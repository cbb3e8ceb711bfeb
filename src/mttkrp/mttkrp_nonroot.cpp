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
// long target modes (detail::resolve_nonroot_schedule). The kernel bodies
// live in mttkrp/nonroot_kernels.inl, compiled once per ISA flavor
// (mttkrp/isa.hpp); this file keeps the baseline entry points.
#include <algorithm>

#include "mttkrp/isa.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/mttkrp_obs.hpp"
#include "parallel/runtime.hpp"
#include "util/error.hpp"

namespace aoadmm {

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

  detail::active_mttkrp_kernels().csf_nonroot(csf, factors, t, out, sched,
                                              planned);
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
