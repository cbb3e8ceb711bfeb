// Dimension-tree MTTKRP engine (Ballard/Hayashi/Kannan): the cyclic
// per-mode sweep of AO-ADMM/ALS recomputes, for every target mode, partial
// Khatri-Rao contractions that the previous modes' MTTKRPs already formed.
// This engine runs over ONE CSF tree (a kOneMode CsfSet) and caches two
// families of per-node partials in reusable per-solver scratch:
//
//   up[l][n]   — "exclusive below": the sum over node n's children c of
//                inclusive(c), where inclusive(c) = val·leaf_row at the
//                leaves and row(c) ∘ up[l+1][c] elsewhere. Depends on the
//                factors at CSF levels l+1 .. order-1.
//   down[l][n] — "inclusive above": the Hadamard product of the factor rows
//                along the root→n path, n's own row included. Depends on
//                the factors at CSF levels 0 .. l.
//
// MTTKRP for the mode at CSF level t is then a single pass over level t:
//   K(i_t) += down[t-1][parent(n)] ∘ up[t][n]
// (root and leaf targets specialize the obvious ends). After mode m's
// factor update, exactly the partials that read that factor are dropped:
// up[l] for l < s and down[l] for l >= s, where s is m's CSF level — so a
// full cyclic sweep touches the non-zeros ~2x instead of order() x.
//
// All cache arrays and partition scratch are grow-only members: after the
// first sweep, steady-state calls allocate nothing (PR 2's invariant).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "mttkrp/mttkrp.hpp"
#include "tensor/csf.hpp"
#include "util/aligned.hpp"
#include "util/types.hpp"

namespace aoadmm::detail {

/// Monotone per-engine counters: how many cached levels each mttkrp() call
/// had to (re)compute versus could reuse. The per-iteration deltas surface
/// in MetricsSnapshot as dimtree_levels_{computed,reused}.
struct DimTreeStats {
  std::uint64_t levels_computed = 0;
  std::uint64_t levels_reused = 0;
};

class DimTreeEngine {
 public:
  DimTreeEngine() = default;

  /// MTTKRP for original mode `target_mode` over `csf` (which must be a
  /// single tree of order >= 3 containing every mode — i.e. the tree of a
  /// kOneMode CsfSet). Rebinding to a different tree or rank drops every
  /// cached partial. The scatter for non-root targets uses the privatized
  /// per-thread reduction (deterministic for a fixed thread count);
  /// `schedule` kOwner degrades to the same path.
  void mttkrp(const CsfTensor& csf, cspan<const Matrix> factors,
              std::size_t target_mode, Matrix& out,
              MttkrpSchedule schedule = MttkrpSchedule::kAuto);

  /// Drop the partials that read original mode `mode`'s factor. Call after
  /// every factor update; forgetting one silently serves stale MTTKRPs.
  void invalidate_mode(std::size_t mode) noexcept;

  /// Drop everything (new factors wholesale, e.g. at solve start).
  void invalidate_all() noexcept;

  const DimTreeStats& stats() const noexcept { return stats_; }

 private:
  void bind(const CsfTensor& csf, std::size_t rank);
  /// Chunk boundaries of the planned root partition composed down to
  /// `level` (written into bounds_buf_).
  void compose_bounds(std::size_t level, int planned);

  template <int R>
  void refresh_up(std::size_t level, cspan<const Matrix> factors,
                  int planned);
  template <int R>
  void refresh_down(std::size_t level, cspan<const Matrix> factors,
                    int planned);
  template <int R>
  void combine_root(cspan<const Matrix> factors, Matrix& out, int planned);
  template <int R>
  void combine_inner(std::size_t t, cspan<const Matrix> factors, Matrix& out,
                     int planned);
  template <int R>
  void combine_leaf(cspan<const Matrix> factors, Matrix& out, int planned);

  const CsfTensor* tree_ = nullptr;
  std::size_t rank_ = 0;
  std::size_t order_ = 0;
  std::vector<std::size_t> level_of_mode_;

  /// Cached partials, indexed by CSF level; only levels 1..order-2 are
  /// populated (size num_nodes(level) * rank each).
  std::vector<std::vector<real_t, AlignedAllocator<real_t>>> up_;
  std::vector<std::vector<real_t, AlignedAllocator<real_t>>> down_;
  std::vector<char> up_valid_;
  std::vector<char> down_valid_;

  /// Grow-only scratch for per-level chunk boundaries.
  std::vector<std::size_t> bounds_buf_;

  DimTreeStats stats_;
};

}  // namespace aoadmm::detail
