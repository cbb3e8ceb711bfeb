// Non-root-mode MTTKRP over a single CSF tree (the one-tree / memory-
// efficient strategy). For a target at CSF level t:
//
//   K(i_t, :) += down(path above t) ∘ up(subtree below t)
//
// where `down` is the elementwise product of the factor rows along the
// root→node path (excluding level t itself) and `up` is the usual upward
// accumulation of value-scaled factor rows (excluding level t's row).
// Distinct root subtrees can touch the same target-mode row, so the scatter
// into K needs a reduction. Two strategies (MttkrpSchedule):
//
//  * kWeighted  — privatized reduction: every thread accumulates into its
//                 own dense copy of the output (persistent thread scratch),
//                 walking nnz-weighted static root chunks; a partitioned
//                 parallel reduction then folds the copies into K row-wise.
//  * kOwner     — owner-computes: the weighted root chunks induce (via the
//                 monotone fptr composition) contiguous target-level node
//                 ranges per chunk. Rows touched by exactly one chunk are
//                 written directly by that chunk's thread — no
//                 synchronization, no copies. Rows shared between chunks
//                 (typically a small boundary set) go through compact
//                 per-thread slot buffers and a parallel fixup pass. The
//                 classification is precomputed once per (tree, target
//                 level, thread count) and cached (CsfTensor::owner_plan).
//
// kAuto picks kWeighted while the per-thread copy is small and kOwner for
// long target modes (detail::resolve_nonroot_schedule).
#include <algorithm>
#include <memory>
#include <vector>

#include "mttkrp/microkernels.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/mttkrp_impl.hpp"
#include "mttkrp/mttkrp_obs.hpp"
#include "mttkrp/thread_scratch.hpp"
#include "obs/parallel_stats.hpp"
#include "parallel/runtime.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

using detail::BufferTable;

/// Depth-first walk of the root subtrees [lo, hi), delivering each target-
/// level contribution row through scatter(row_id, contrib). down_buf/up_buf/
/// contrib are rank-length scratch rows ((order+1)*f total, per thread).
template <int R, typename Scatter>
void walk_roots(const CsfTensor& csf, cspan<const Matrix> factors,
                std::size_t t, std::size_t f, std::size_t lo, std::size_t hi,
                real_t* __restrict down_buf, real_t* __restrict up_buf,
                real_t* __restrict contrib, const Scatter& scatter) {
  using Ops = detail::RowOps<R>;
  const std::size_t order = csf.order();
  const auto vals = csf.vals();
  const auto leaf_fids = csf.fids(order - 1);

  // Upward accumulation below the target level: identical to the root
  // kernel's subtree(), scaling by each node's own row EXCEPT at level t.
  const auto up_subtree = [&](auto&& self, std::size_t level,
                              offset_t node) -> real_t* {
    real_t* __restrict z = up_buf + (level - t) * f;
    Ops::zero(z, f);
    if (level == order - 1) {
      // Should not happen: leaves are handled by the caller.
      return z;
    }
    const auto fptr = csf.fptr(level);
    if (level + 1 == order - 1) {
      const Matrix& leaf_factor = factors[csf.level_mode(order - 1)];
      for (offset_t c = fptr[node]; c < fptr[node + 1]; ++c) {
        const real_t* __restrict row =
            leaf_factor.data() + static_cast<std::size_t>(leaf_fids[c]) * f;
        Ops::axpy(z, vals[c], row, f);
      }
    } else {
      const Matrix& child_factor = factors[csf.level_mode(level + 1)];
      const auto child_fids = csf.fids(level + 1);
      for (offset_t c = fptr[node]; c < fptr[node + 1]; ++c) {
        const real_t* __restrict zc = self(self, level + 1, c);
        const real_t* __restrict row =
            child_factor.data() +
            static_cast<std::size_t>(child_fids[c]) * f;
        Ops::mul_add(z, zc, row, f);
      }
    }
    return z;
  };

  // Downward walk: carries the `down` product; at level t, combines with
  // the upward accumulation and hands the contribution to the scatter.
  const auto walk = [&](auto&& self, std::size_t level, offset_t node,
                        const real_t* __restrict down) -> void {
    if (level == t) {
      const index_t row_id = csf.fids(level)[node];
      if (level == order - 1) {
        // Leaf target: contribution = val * down.
        Ops::scale(contrib, vals[node], down, f);
      } else {
        const real_t* __restrict up = up_subtree(up_subtree, level, node);
        Ops::mul(contrib, up, down, f);
      }
      scatter(row_id, contrib);
      return;
    }
    // Extend the down product with this level's own factor row.
    const Matrix& a = factors[csf.level_mode(level)];
    const real_t* __restrict own =
        a.data() + static_cast<std::size_t>(csf.fids(level)[node]) * f;
    real_t* __restrict next_down = down_buf + level * f;
    if (level == 0) {
      Ops::copy(next_down, own, f);
    } else {
      Ops::mul(next_down, down, own, f);
    }
    const auto fptr = csf.fptr(level);
    for (offset_t c = fptr[node]; c < fptr[node + 1]; ++c) {
      self(self, level + 1, c, next_down);
    }
  };

  for (std::size_t r = lo; r < hi; ++r) {
    walk(walk, 0, static_cast<offset_t>(r), nullptr);
  }
}

/// Single-thread fast path: scatter directly, nothing to synchronize.
template <int R>
void nonroot_serial(const CsfTensor& csf, cspan<const Matrix> factors,
                    std::size_t t, std::size_t f, Matrix& out) {
  using Ops = detail::RowOps<R>;
  const std::size_t order = csf.order();
  obs::BusyTimes busy(1, obs::RegionDomain::kMttkrp);
  real_t* const base = detail::mttkrp_thread_scratch((order + 1) * f);
  const double t0 = detail::mttkrp_now();
  walk_roots<R>(csf, factors, t, f, 0, csf.num_nodes(0), base, base + t * f,
                base + order * f,
                [&](index_t row_id, const real_t* __restrict src) {
                  Ops::add(out.data() + static_cast<std::size_t>(row_id) * f,
                           src, f);
                });
  busy.add(0, detail::mttkrp_now() - t0);
}

/// Privatized reduction: per-thread dense output copies + partitioned
/// parallel reduction, over nnz-weighted static root chunks.
template <int R>
void nonroot_privatized(const CsfTensor& csf, cspan<const Matrix> factors,
                        std::size_t t, std::size_t f, Matrix& out,
                        int planned) {
  using Ops = detail::RowOps<R>;
  const std::size_t order = csf.order();
  const auto& bounds =
      csf.root_partition(static_cast<std::size_t>(planned));
  const std::size_t parts = bounds.size() - 1;
  const auto out_rows = static_cast<std::ptrdiff_t>(out.rows());
  const std::size_t copy_elems = static_cast<std::size_t>(out.rows()) * f;

  BufferTable table(planned);
  real_t** const bufs = table.data();
  obs::BusyTimes busy(planned, obs::RegionDomain::kMttkrp);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    const int tid = thread_id();
    const int team = std::max(team_size(), 1);
    real_t* const base =
        detail::mttkrp_thread_scratch((order + 1) * f + copy_elems);
    const double t0 = detail::mttkrp_now();
    if (tid < planned) {
      real_t* const local = base + (order + 1) * f;
      std::fill(local, local + copy_elems, real_t{0});
      bufs[tid] = local;
      const auto scatter = [&](index_t row_id,
                               const real_t* __restrict src) {
        Ops::add(local + static_cast<std::size_t>(row_id) * f, src, f);
      };
      // Chunks beyond the team size are picked up round-robin, so a team
      // smaller than planned still covers every chunk.
      for (std::size_t c = static_cast<std::size_t>(tid); c < parts;
           c += static_cast<std::size_t>(team)) {
        walk_roots<R>(csf, factors, t, f, bounds[c], bounds[c + 1], base,
                      base + t * f, base + order * f, scatter);
      }
    }
    busy.add(tid, detail::mttkrp_now() - t0);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp barrier
#endif

    // Row-partitioned reduction of the registered copies into the (zeroed)
    // output; each row is folded by exactly one thread.
    const double t1 = detail::mttkrp_now();
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp for schedule(static) nowait
#endif
    for (std::ptrdiff_t row = 0; row < out_rows; ++row) {
      real_t* __restrict dst =
          out.data() + static_cast<std::size_t>(row) * f;
      for (int p = 0; p < planned; ++p) {
        if (bufs[p] != nullptr) {
          Ops::add(dst, bufs[p] + static_cast<std::size_t>(row) * f, f);
        }
      }
    }
    busy.add(tid, detail::mttkrp_now() - t1);
  }
}

/// Owner-computes: direct writes for chunk-private rows, slot buffers plus
/// a parallel fixup for the chunk-boundary rows.
template <int R>
void nonroot_owner(const CsfTensor& csf, cspan<const Matrix> factors,
                   std::size_t t, std::size_t f, Matrix& out, int planned) {
  using Ops = detail::RowOps<R>;
  const std::size_t order = csf.order();
  const MttkrpOwnerPlan& plan =
      csf.owner_plan(t, static_cast<std::size_t>(planned));
  const std::size_t parts = plan.parts;
  const auto nshared = static_cast<std::ptrdiff_t>(plan.shared_rows.size());
  const std::size_t slot_elems = static_cast<std::size_t>(nshared) * f;
  const std::int32_t* __restrict row_slot = plan.row_slot.data();

  BufferTable table(planned);
  real_t** const bufs = table.data();
  obs::BusyTimes busy(planned, obs::RegionDomain::kMttkrp);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    const int tid = thread_id();
    const int team = std::max(team_size(), 1);
    real_t* const base =
        detail::mttkrp_thread_scratch((order + 1) * f + slot_elems);
    const double t0 = detail::mttkrp_now();
    if (tid < planned) {
      real_t* const slot_buf = base + (order + 1) * f;
      std::fill(slot_buf, slot_buf + slot_elems, real_t{0});
      bufs[tid] = slot_buf;
      const auto scatter = [&](index_t row_id,
                               const real_t* __restrict src) {
        const std::int32_t slot = row_slot[row_id];
        if (slot < 0) {
          // Row owned by this chunk alone: plain accumulate, single writer.
          Ops::add(out.data() + static_cast<std::size_t>(row_id) * f, src,
                   f);
        } else {
          Ops::add(slot_buf + static_cast<std::size_t>(slot) * f, src, f);
        }
      };
      for (std::size_t c = static_cast<std::size_t>(tid); c < parts;
           c += static_cast<std::size_t>(team)) {
        walk_roots<R>(csf, factors, t, f, plan.root_bounds[c],
                      plan.root_bounds[c + 1], base, base + t * f,
                      base + order * f, scatter);
      }
    }
    busy.add(tid, detail::mttkrp_now() - t0);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp barrier
#endif

    // Fixup: fold the slot buffers into the shared rows, one slot per
    // iteration so each output row keeps a single writer.
    const double t1 = detail::mttkrp_now();
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp for schedule(static) nowait
#endif
    for (std::ptrdiff_t s = 0; s < nshared; ++s) {
      real_t* __restrict dst =
          out.data() +
          static_cast<std::size_t>(plan.shared_rows[static_cast<std::size_t>(
              s)]) *
              f;
      for (int p = 0; p < planned; ++p) {
        if (bufs[p] != nullptr) {
          Ops::add(dst, bufs[p] + static_cast<std::size_t>(s) * f, f);
        }
      }
    }
    busy.add(tid, detail::mttkrp_now() - t1);
  }
}

}  // namespace

void mttkrp_csf_nonroot(const CsfTensor& csf, cspan<const Matrix> factors,
                        std::size_t target_mode, Matrix& out,
                        MttkrpSchedule schedule) {
  AOADMM_MTTKRP_OBS("csf_nonroot");
  const std::size_t order = csf.order();
  AOADMM_CHECK(order >= 2);
  AOADMM_CHECK(factors.size() == order);
  AOADMM_CHECK(target_mode < order);

  // Locate the CSF level holding the target mode.
  std::size_t t = order;
  for (std::size_t l = 0; l < order; ++l) {
    if (csf.level_mode(l) == target_mode) {
      t = l;
      break;
    }
  }
  AOADMM_CHECK_MSG(t < order, "target mode not present in CSF");
  AOADMM_CHECK_MSG(t > 0, "use mttkrp_csf for root-mode targets");

  const std::size_t f = factors[target_mode].cols();
  for (std::size_t m = 0; m < order; ++m) {
    AOADMM_CHECK(factors[m].cols() == f);
    AOADMM_CHECK(factors[m].rows() == csf.dims()[m]);
  }

  const index_t out_rows = csf.dims()[target_mode];
  if (out.rows() != out_rows || out.cols() != f) {
    out.resize(out_rows, f);
  } else {
    out.zero();
  }

  const int planned = std::max(max_threads(), 1);
  const MttkrpSchedule sched =
      detail::resolve_nonroot_schedule(schedule, out_rows, f, planned);

  detail::rank_dispatch(f, [&](auto rc) {
    constexpr int R = decltype(rc)::value;
    if (planned <= 1) {
      nonroot_serial<R>(csf, factors, t, f, out);
    } else if (sched == MttkrpSchedule::kOwner) {
      nonroot_owner<R>(csf, factors, t, f, out, planned);
    } else {
      nonroot_privatized<R>(csf, factors, t, f, out, planned);
    }
  });
}

void mttkrp_dispatch(const CsfTensor& csf, cspan<const Matrix> factors,
                     std::size_t target_mode, Matrix& out,
                     MttkrpSchedule schedule) {
  if (csf.level_mode(0) == target_mode) {
    mttkrp_csf(csf, factors, out);
  } else {
    mttkrp_csf_nonroot(csf, factors, target_mode, out, schedule);
  }
}

}  // namespace aoadmm
