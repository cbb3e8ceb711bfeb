// Shared CSF-MTTKRP skeleton, templated on the leaf accumulation so the
// dense / CSR / hybrid variants reuse one traversal, and on the compile-time
// rank R (0 = runtime rank) so the rank loops become fixed-trip SIMD code
// (see microkernels.hpp). Internal header.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "la/matrix.hpp"
#include "mttkrp/microkernels.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/thread_scratch.hpp"
#include "obs/parallel_stats.hpp"
#include "parallel/runtime.hpp"
#include "tensor/csf.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace aoadmm::detail {

/// Monotonic seconds for per-thread busy-time measurement.
inline double mttkrp_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pointer table shared across a team: per-thread private-accumulator base
/// addresses, registered inside the region and read by the reduction pass.
/// Inline storage for the common case so steady-state calls allocate
/// nothing (same pattern as obs::BusyTimes). Shared by the privatized /
/// owner-computes scatter paths of the CSF non-root, dimension-tree and
/// ALTO kernels.
class BufferTable {
 public:
  explicit BufferTable(int n) : n_(n) {
    if (n_ > kInline) {
      heap_.reset(new real_t*[static_cast<std::size_t>(n_)]());
      bufs_ = heap_.get();
    } else {
      std::fill(inline_bufs_, inline_bufs_ + kInline, nullptr);
    }
  }
  real_t** data() noexcept { return bufs_; }
  int size() const noexcept { return n_; }

 private:
  static constexpr int kInline = 64;
  real_t* inline_bufs_[kInline];
  std::unique_ptr<real_t*[]> heap_;
  real_t** bufs_ = inline_bufs_;
  int n_ = 0;
};

/// In-region driver for the loop over root nodes. `bounds` (parts+1
/// nnz-weighted boundaries from CsfTensor::root_partition) assigns whole
/// chunks to threads statically — a schedule that costs nothing per call
/// and absorbs power-law slice costs; chunks beyond the team size are
/// picked up round-robin, so correctness never depends on the planned and
/// actual team sizes agreeing. Must be executed by every thread of the
/// enclosing parallel region.
template <typename Body>
inline void mttkrp_root_loop(const std::vector<std::size_t>& bounds, int tid,
                             int team, const Body& body) {
  const std::size_t parts = bounds.size() - 1;
  const auto stride = static_cast<std::size_t>(team > 0 ? team : 1);
  for (std::size_t c = static_cast<std::size_t>(tid); c < parts;
       c += stride) {
    for (std::size_t r = bounds[c]; r < bounds[c + 1]; ++r) {
      body(static_cast<std::ptrdiff_t>(r));
    }
  }
}

/// LeafOp contract: void op(index_t leaf_index, real_t value,
///                          real_t* __restrict z, std::size_t f)
/// accumulating  z += value * LeafFactorRow(leaf_index)  (length f).
template <int R, typename LeafOp>
void mttkrp_csf_skeleton(const CsfTensor& csf, cspan<const Matrix> factors,
                         std::size_t rank, const LeafOp& leaf_op,
                         Matrix& out) {
  using Ops = RowOps<R>;
  const std::size_t order = csf.order();
  AOADMM_CHECK(order >= 2);
  AOADMM_CHECK(factors.size() == order);
  const std::size_t f = rank;

  const index_t out_rows = csf.level_dim(0);
  if (out.rows() != out_rows || out.cols() != f) {
    out.resize(out_rows, f);  // resize zero-initializes
  } else {
    out.zero();
  }

  const auto root_fids = csf.fids(0);

  // Dense factor rows for the internal levels 1..order-2, by CSF level.
  std::vector<const Matrix*> level_factor(order, nullptr);
  for (std::size_t l = 1; l + 1 < order; ++l) {
    level_factor[l] = &factors[csf.level_mode(l)];
    AOADMM_CHECK(level_factor[l]->cols() == f);
  }

  const int planned = max_threads();
  const std::vector<std::size_t>& bounds =
      csf.root_partition(static_cast<std::size_t>(planned));
  obs::BusyTimes busy(planned, obs::RegionDomain::kMttkrp);

  if (order == 3) {
    // Flat three-mode fast path (Algorithm 3) — the common case. Written
    // without recursion so the templated leaf_op inlines into tight loops,
    // keeping the CSR/hybrid kernels on equal footing with the dense one.
    const Matrix& b_mid = factors[csf.level_mode(1)];
    const auto mid_fids = csf.fids(1);
    const auto leaf_fids = csf.fids(2);
    const auto fptr0 = csf.fptr(0);
    const auto fptr1 = csf.fptr(1);
    const auto vals = csf.vals();
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
    {
      real_t* __restrict z = mttkrp_thread_scratch(f);
      const int tid = thread_id();
      const double t0 = mttkrp_now();
      mttkrp_root_loop(
          bounds, tid, team_size(), [&](std::ptrdiff_t r) {
            const auto rr = static_cast<std::size_t>(r);
            real_t* __restrict krow =
                out.data() + static_cast<std::size_t>(root_fids[rr]) * f;
            for (offset_t jn = fptr0[rr]; jn < fptr0[rr + 1]; ++jn) {
              Ops::zero(z, f);
              for (offset_t c = fptr1[jn]; c < fptr1[jn + 1]; ++c) {
                leaf_op(leaf_fids[c], vals[c], z, f);
              }
              const real_t* __restrict brow =
                  b_mid.data() + static_cast<std::size_t>(mid_fids[jn]) * f;
              Ops::mul_add(krow, z, brow, f);
            }
          });
      busy.add(tid, mttkrp_now() - t0);
    }
    return;
  }

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    // One accumulation buffer per internal level (order-2 of them; none for
    // matrices). Thread-private and persistent across calls.
    real_t* const scratch_base =
        mttkrp_thread_scratch(order >= 2 ? (order - 1) * f : f);
    const int tid = thread_id();
    const double t0 = mttkrp_now();

    mttkrp_root_loop(
        bounds, tid, team_size(), [&](std::ptrdiff_t r) {
          const auto rr = static_cast<std::size_t>(r);
          real_t* __restrict out_row =
              out.data() + static_cast<std::size_t>(root_fids[rr]) * f;

          if (order == 2) {
            // Children of the root are leaves: accumulate directly.
            const auto leaf_fids = csf.fids(1);
            const auto vals = csf.vals();
            const auto fptr0 = csf.fptr(0);
            for (offset_t c = fptr0[rr]; c < fptr0[rr + 1]; ++c) {
              leaf_op(leaf_fids[c], vals[c], out_row, f);
            }
            return;
          }

          // General case: depth-first over the subtree; contributions bubble
          // upward through the per-level scratch buffers, each scaled by its
          // node's factor row on the way up.
          const auto fptr0 = csf.fptr(0);
          const auto leaf_fids = csf.fids(order - 1);
          const auto vals = csf.vals();

          // Iterate children of the root (level-1 nodes).
          for (offset_t n1 = fptr0[rr]; n1 < fptr0[rr + 1]; ++n1) {
            // Recursive contribution of the level-1 subtree into
            // scratch[0..f), via explicit recursion over levels.
            const auto subtree = [&](auto&& self, std::size_t level,
                                     offset_t node) -> void {
              real_t* __restrict z = scratch_base + (level - 1) * f;
              Ops::zero(z, f);
              if (level == order - 2) {
                const auto fptr = csf.fptr(level);
                for (offset_t c = fptr[node]; c < fptr[node + 1]; ++c) {
                  leaf_op(leaf_fids[c], vals[c], z, f);
                }
              } else {
                const auto fptr = csf.fptr(level);
                real_t* __restrict zc = scratch_base + level * f;
                for (offset_t c = fptr[node]; c < fptr[node + 1]; ++c) {
                  self(self, level + 1, c);
                  Ops::add(z, zc, f);
                }
              }
              // Scale by this node's own factor row.
              const Matrix& a = *level_factor[level];
              const real_t* __restrict row =
                  a.data() +
                  static_cast<std::size_t>(csf.fids(level)[node]) * f;
              Ops::mul_inplace(z, row, f);
            };
            subtree(subtree, 1, n1);
            Ops::add(out_row, scratch_base, f);
          }
        });
    busy.add(tid, mttkrp_now() - t0);
  }
}

}  // namespace aoadmm::detail
