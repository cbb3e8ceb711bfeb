#include "mttkrp/microkernels.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/mttkrp_impl.hpp"
#include "mttkrp/mttkrp_obs.hpp"
#include "util/error.hpp"

namespace aoadmm {

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

  const auto dense_cols = leaf.dense_cols();
  const std::size_t ndense = dense_cols.size();

  detail::rank_dispatch(f, [&](auto rc) {
    constexpr int R = decltype(rc)::value;
    detail::mttkrp_csf_skeleton<R>(
        csf, factors, f,
        [&leaf, dense_cols, ndense](index_t idx, real_t v,
                                    real_t* __restrict z, std::size_t) {
          // Start the CSR tail's data movement, then overlap it with the
          // dense-panel arithmetic (paper §IV.C).
          leaf.prefetch_row(idx);
          const real_t* __restrict panel = leaf.dense_row(idx).data();
          for (std::size_t d = 0; d < ndense; ++d) {
            z[dense_cols[d]] += v * panel[d];
          }
          const auto [cols, vals] = leaf.csr_row(idx);
          const std::size_t n = cols.size();
          for (std::size_t k = 0; k < n; ++k) {
            z[cols[k]] += v * vals[k];
          }
        },
        out);
  });
}

}  // namespace aoadmm
