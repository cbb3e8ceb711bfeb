// Root-mode CSF MTTKRP entry points (dense, CSR and hybrid leaf). The
// skeleton they share lives in mttkrp/csf_kernels.inl, compiled once per
// ISA flavor (mttkrp/isa.hpp); these entries check arguments, size the
// output and call the active flavor.
#include "mttkrp/isa.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/mttkrp_obs.hpp"
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

namespace {

/// Checks shared by the root kernels; sizes and zeroes `out` to
/// (level_dim(0) x f). The leaf factor may come from outside `factors`
/// (CSR / hybrid mirror), so its dense copy is not checked.
void prepare_root(const CsfTensor& csf, cspan<const Matrix> factors,
                  std::size_t f, Matrix& out) {
  const std::size_t order = csf.order();
  AOADMM_CHECK(order >= 2);
  AOADMM_CHECK(factors.size() == order);
  for (std::size_t l = 1; l + 1 < order; ++l) {
    AOADMM_CHECK(factors[csf.level_mode(l)].cols() == f);
  }
  const index_t out_rows = csf.level_dim(0);
  if (out.rows() != out_rows || out.cols() != f) {
    out.resize(out_rows, f);  // resize zero-initializes
  } else {
    out.zero();
  }
}

}  // namespace

void mttkrp_csf(const CsfTensor& csf, cspan<const Matrix> factors,
                Matrix& out) {
  AOADMM_CHECK(factors.size() == csf.order());
  const std::size_t f = factors[csf.level_mode(csf.order() - 1)].cols();

  const auto run = [&] {
    prepare_root(csf, factors, f, out);
    detail::active_mttkrp_kernels().csf_dense(csf, factors, out);
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

void mttkrp_csf_csr(const CsfTensor& csf, cspan<const Matrix> factors,
                    const CsrMatrix& leaf, Matrix& out) {
  AOADMM_MTTKRP_OBS("csf_csr");
  AOADMM_CHECK(factors.size() == csf.order());
  const std::size_t leaf_mode = csf.level_mode(csf.order() - 1);
  AOADMM_CHECK_MSG(leaf.rows() == csf.level_dim(csf.order() - 1),
                   "CSR leaf factor row count mismatch");
  const std::size_t f = leaf.cols();
  // The other factors must agree on rank; the dense copy of the leaf factor
  // in `factors` is ignored (it may be stale).
  for (std::size_t m = 0; m < factors.size(); ++m) {
    if (m != leaf_mode) {
      AOADMM_CHECK(factors[m].cols() == f);
    }
  }
  prepare_root(csf, factors, f, out);
  detail::active_mttkrp_kernels().csf_csr(csf, factors, leaf, out);
}

void mttkrp_csf_hybrid(const CsfTensor& csf, cspan<const Matrix> factors,
                       const HybridMatrix& leaf, Matrix& out) {
  AOADMM_MTTKRP_OBS("csf_hybrid");
  AOADMM_CHECK(factors.size() == csf.order());
  const std::size_t leaf_mode = csf.level_mode(csf.order() - 1);
  AOADMM_CHECK_MSG(leaf.rows() == csf.level_dim(csf.order() - 1),
                   "hybrid leaf factor row count mismatch");
  const std::size_t f = leaf.cols();
  for (std::size_t m = 0; m < factors.size(); ++m) {
    if (m != leaf_mode) {
      AOADMM_CHECK(factors[m].cols() == f);
    }
  }
  prepare_root(csf, factors, f, out);
  detail::active_mttkrp_kernels().csf_hybrid(csf, factors, leaf, out);
}

}  // namespace aoadmm
