// Reusable buffers and the dynamic sparse-factor cache used by the CPD
// driver. Factor sparsity patterns change every outer iteration, so the
// compressed mirrors are rebuilt on demand and their construction cost is
// an explicit, reported part of total factorization time (paper §IV.C:
// overheads are "not amortized over multiple iterations").
#pragma once

#include <vector>

#include "core/admm.hpp"
#include "la/matrix.hpp"
#include "mttkrp/mttkrp.hpp"
#include "sparse/csr.hpp"
#include "sparse/density.hpp"
#include "sparse/hybrid.hpp"

namespace aoadmm {

/// Per-mode compressed mirror of a (dense) factor matrix.
class SparseFactorCache {
 public:
  explicit SparseFactorCache(std::size_t order) : entries_(order) {}

  /// Mark mode's mirror stale (call after its factor is updated).
  void invalidate(std::size_t mode) { entries_.at(mode).dirty = true; }

  struct Mirror {
    /// Set when the factor is sparse enough to exploit in `format`.
    const CsrMatrix* csr = nullptr;
    const HybridMatrix* hybrid = nullptr;
    /// Measured density at refresh time.
    real_t density = 1;
    /// True if a (re)build happened during this call (conversion cost).
    bool rebuilt = false;
  };

  /// Measure `factor`'s density; when below `threshold`, (re)build and
  /// return the mirror in `format`. Above the threshold the mirror pointers
  /// stay null and the caller uses the dense kernel. A mode keeps one
  /// mirror: the caller passes the same `format` and `threshold` on every
  /// call (a solver passes its configured ones).
  Mirror refresh(std::size_t mode, const Matrix& factor, LeafFormat format,
                 real_t threshold);

 private:
  struct Entry {
    bool dirty = true;
    real_t density = 1;
    CsrMatrix csr;
    HybridMatrix hybrid;
  };
  std::vector<Entry> entries_;
};

/// All scratch the CPD driver needs, allocated once per factorization.
struct CpdWorkspace {
  AdmmScratch admm;
  Matrix mttkrp_out;  // K, resized per mode
  Matrix gram_prod;   // ⊛ of the other modes' Grams
  Matrix fit_acc;     // ⊛ of ALL Grams, for the fit evaluation
  std::vector<Matrix> grams;  // per-mode AᵀA, kept current

  explicit CpdWorkspace(std::size_t order) : grams(order) {}
};

}  // namespace aoadmm
