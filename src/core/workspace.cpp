#include "core/workspace.hpp"

namespace aoadmm {

SparseFactorCache::Mirror SparseFactorCache::refresh(std::size_t mode,
                                                     const Matrix& factor,
                                                     LeafFormat format,
                                                     real_t threshold) {
  Entry& e = entries_.at(mode);
  Mirror m;

  if (format == LeafFormat::kDense) {
    return m;
  }

  if (e.dirty) {
    // One O(I·F) pass; the same stats drive the exploit decision and the
    // hybrid column classification.
    const DensityStats stats = measure_density(factor);
    e.density = stats.density;
    if (e.density < threshold) {
      if (format == LeafFormat::kCsr) {
        e.csr = CsrMatrix::from_dense(factor);
      } else {
        e.hybrid = HybridMatrix::from_dense(factor, stats);
      }
      m.rebuilt = true;
    }
    e.dirty = false;
  }

  m.density = e.density;
  if (e.density < threshold) {
    if (format == LeafFormat::kCsr) {
      m.csr = &e.csr;
    } else {
      m.hybrid = &e.hybrid;
    }
  }
  return m;
}

}  // namespace aoadmm
