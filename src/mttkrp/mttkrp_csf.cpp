#include <vector>

#include "mttkrp/microkernels.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/mttkrp_impl.hpp"
#include "mttkrp/mttkrp_obs.hpp"
#include "mttkrp/thread_scratch.hpp"
#include "parallel/runtime.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace aoadmm {

const char* to_string(LeafFormat fmt) noexcept {
  switch (fmt) {
    case LeafFormat::kDense:
      return "DENSE";
    case LeafFormat::kCsr:
      return "CSR";
    case LeafFormat::kHybrid:
      return "CSR-H";
    case LeafFormat::kAuto:
      return "AUTO";
  }
  return "?";
}

const char* to_string(MttkrpSchedule s) noexcept {
  switch (s) {
    case MttkrpSchedule::kAuto:
      return "auto";
    case MttkrpSchedule::kWeighted:
      return "weighted";
    case MttkrpSchedule::kOwner:
      return "owner";
  }
  return "?";
}

const char* to_string(MttkrpKernel k) noexcept {
  switch (k) {
    case MttkrpKernel::kAuto:
      return "auto";
    case MttkrpKernel::kAllMode:
      return "allmode";
    case MttkrpKernel::kOneTree:
      return "onetree";
    case MttkrpKernel::kDimTree:
      return "dimtree";
    case MttkrpKernel::kAlto:
      return "alto";
  }
  return "?";
}

namespace detail {

MttkrpSchedule resolve_nonroot_schedule(MttkrpSchedule s, index_t out_rows,
                                        std::size_t rank,
                                        int nthreads) noexcept {
  if (s != MttkrpSchedule::kAuto) {
    return s;
  }
  if (nthreads <= 1) {
    // A single thread scatters directly; the privatized kernel degenerates
    // to exactly that (its "copy" is the output itself).
    return MttkrpSchedule::kWeighted;
  }
  const std::size_t copy_bytes =
      static_cast<std::size_t>(out_rows) * rank * sizeof(real_t);
  return copy_bytes <= kPrivatizeMaxBytes ? MttkrpSchedule::kWeighted
                                          : MttkrpSchedule::kOwner;
}

}  // namespace detail

void mttkrp_csf(const CsfTensor& csf, cspan<const Matrix> factors,
                Matrix& out) {
  AOADMM_CHECK(factors.size() == csf.order());
  const Matrix& leaf = factors[csf.level_mode(csf.order() - 1)];
  const std::size_t f = leaf.cols();

  const auto run = [&] {
    detail::rank_dispatch(f, [&](auto rc) {
      constexpr int R = decltype(rc)::value;
      detail::mttkrp_csf_skeleton<R>(
          csf, factors, f,
          [&leaf](index_t idx, real_t v, real_t* __restrict z,
                  std::size_t ff) {
            const real_t* __restrict row =
                leaf.data() + static_cast<std::size_t>(idx) * ff;
            detail::RowOps<R>::axpy(z, v, row, ff);
          },
          out);
    });
  };

  if (csf.order() == 3) {
    // Keep the historical kernel label: the skeleton's flat three-mode fast
    // path with the dense leaf op inlined IS the specialized kernel.
    AOADMM_MTTKRP_OBS("csf3_dense");
    run();
  } else {
    AOADMM_MTTKRP_OBS("csf_dense");
    run();
  }
}

}  // namespace aoadmm
