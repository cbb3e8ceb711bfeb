// The per-mode ADMM update with its full guard-rail envelope. Every
// normal-equations step of the outer loop (core/outer_loop.hpp) runs it, so
// drivers handed the same (K, G) produce the same iterate — which is what
// makes the 1x1x1-grid sharded solve bitwise-equal to the unsharded one.
#pragma once

#include <cstdint>

#include "core/admm.hpp"
#include "core/config.hpp"
#include "core/cpd.hpp"
#include "core/prox.hpp"

namespace aoadmm {
namespace detail {

/// Per-call aggregates the outer loop folds into its iteration snapshot.
struct ModeUpdateStats {
  unsigned inner_iterations = 0;
  real_t primal_residual = 0;
  real_t dual_residual = 0;
  /// Seconds of MTTKRP-equivalent work inside the update (row-system
  /// assembly on the loss path). The outer loop books them under MTTKRP
  /// instead of ADMM.
  double mttkrp_seconds = 0;
};

/// Fold one inner solve's outcome into `result` and the metrics registry:
/// the iteration totals, the residual histograms and one recovery event
/// (with its counter and log line) per intervention it reports — adaptive-ρ
/// rebalances, Cholesky jitter, divergence restarts, abandonment. The
/// generalized-loss path reports its LossUpdateResult through it too.
void record_inner_solve(const AdmmResult& ar, unsigned outer, std::size_t mode,
                        CpdResult& result);

/// Run the configured ADMM variant on one mode's assembled system
/// (factor/dual updated in place), record every robustness intervention
/// into `result` and the metrics registry, and perform the non-finite
/// factor rollback (restores `scratch.h_entry`, zeroes the duals). Throws
/// NumericalError when the factor is contaminated beyond recovery.
ModeUpdateStats admm_mode_update(AdmmVariant variant, Matrix& factor,
                                 Matrix& dual, const Matrix& mttkrp,
                                 const Matrix& gram_prod,
                                 const ProxOperator& prox,
                                 const AdmmOptions& opts, AdmmScratch& scratch,
                                 unsigned outer, std::size_t mode,
                                 CpdResult& result);

}  // namespace detail
}  // namespace aoadmm
