#include "mttkrp/mttkrp.hpp"

#include <algorithm>

#include "mttkrp/alto.hpp"
#include "tensor/alto.hpp"
#include "util/log.hpp"

namespace aoadmm {

MttkrpKernel resolve_auto_kernel(MttkrpKernel requested, CsfStrategy strategy,
                                 bool /*tiled*/, bool dense_leaf,
                                 std::size_t order, cspan<index_t> dims,
                                 offset_t nnz, rank_t /*rank*/) {
  if (requested != MttkrpKernel::kAuto) {
    return requested;
  }
  if (strategy == CsfStrategy::kAllMode) {
    // One race-free root tree per mode: the per-mode root kernel is already
    // optimal.
    return MttkrpKernel::kAllMode;
  }
  if (!dense_leaf || order != 3) {
    return MttkrpKernel::kOneTree;
  }
  // Order 3: the one-tree walk is already two-level. Prefer ALTO only for
  // the sparse, skewed tensors whose root slices defeat fiber splitting.
  index_t dmin = dims.empty() ? 1 : dims[0];
  index_t dmax = dmin;
  double cells = 1.0;
  for (index_t d : dims) {
    dmin = std::min(dmin, d);
    dmax = std::max(dmax, d);
    cells *= static_cast<double>(d);
  }
  const double density = cells > 0 ? static_cast<double>(nnz) / cells : 1.0;
  const double skew =
      dmin > 0 ? static_cast<double>(dmax) / static_cast<double>(dmin) : 1.0;
  if (skew > 4.0 && density < 1e-4 && alto_linearizable(dims)) {
    AOADMM_LOG_DEBUG << "mttkrp kAuto -> kAlto (skew=" << skew
                     << " density=" << density
                     << " isa=" << mttkrp_isa_flavor() << ")";
    return MttkrpKernel::kAlto;
  }
  AOADMM_LOG_DEBUG << "mttkrp kAuto -> kOneTree (skew=" << skew
                   << " density=" << density
                   << " isa=" << mttkrp_isa_flavor() << ")";
  return MttkrpKernel::kOneTree;
}

void mttkrp_dispatch(const CsfTensor& csf, cspan<const Matrix> factors,
                     std::size_t target_mode, Matrix& out,
                     MttkrpKernel kernel) {
  if (kernel == MttkrpKernel::kAlto) {
    mttkrp_alto(csf.alto_index(), factors, target_mode, out);
    return;
  }
  mttkrp_dispatch(csf, factors, target_mode, out);
}

}  // namespace aoadmm
