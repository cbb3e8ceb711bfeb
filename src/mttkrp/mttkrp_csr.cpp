#include "mttkrp/microkernels.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/mttkrp_impl.hpp"
#include "mttkrp/mttkrp_obs.hpp"
#include "util/error.hpp"

namespace aoadmm {

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

  // The leaf op itself stays runtime-length (it walks the row's sparse
  // column list); the fixed-rank dispatch still pays off in the skeleton's
  // Hadamard/accumulate loops.
  detail::rank_dispatch(f, [&](auto rc) {
    constexpr int R = decltype(rc)::value;
    detail::mttkrp_csf_skeleton<R>(
        csf, factors, f,
        [&leaf](index_t idx, real_t v, real_t* __restrict z, std::size_t) {
          const auto [cols, vals] = leaf.row(idx);
          const std::size_t n = cols.size();
          for (std::size_t k = 0; k < n; ++k) {
            z[cols[k]] += v * vals[k];
          }
        },
        out);
  });
}

}  // namespace aoadmm
