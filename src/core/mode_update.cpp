#include "core/mode_update.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace aoadmm {
namespace detail {
namespace {

/// Same metric names CpdSolver always reported — the registry hands back
/// the same underlying instruments, so extraction is invisible to scrapes.
struct ModeUpdateMetrics {
  obs::Counter robust_cholesky_jitter;
  obs::Counter robust_admm_restarts;
  obs::Counter robust_admm_abandoned;
  obs::Counter robust_factor_rollbacks;
  obs::Counter robust_rho_rebalances;
  obs::Histogram admm_inner_iterations;
  obs::Histogram admm_primal_residual;
  obs::Histogram admm_dual_residual;

  static const ModeUpdateMetrics& get() {
    static const ModeUpdateMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      ModeUpdateMetrics out;
      out.robust_cholesky_jitter = reg.counter("robust/cholesky_jitter");
      out.robust_admm_restarts = reg.counter("robust/admm_restarts");
      out.robust_admm_abandoned = reg.counter("robust/admm_abandoned");
      out.robust_factor_rollbacks = reg.counter("robust/factor_rollbacks");
      out.robust_rho_rebalances = reg.counter("robust/rho_rebalances");
      out.admm_inner_iterations = reg.histogram("admm/inner_iterations");
      out.admm_primal_residual = reg.histogram("admm/primal_residual");
      out.admm_dual_residual = reg.histogram("admm/dual_residual");
      return out;
    }();
    return m;
  }
};

}  // namespace

void record_inner_solve(const AdmmResult& ar, unsigned outer, std::size_t mode,
                        CpdResult& result) {
  const ModeUpdateMetrics& metrics = ModeUpdateMetrics::get();
  result.total_inner_iterations += ar.iterations;
  result.total_row_iterations += ar.row_iterations;
  metrics.admm_inner_iterations.observe(ar.iterations);
  metrics.admm_primal_residual.observe(static_cast<double>(ar.primal_residual));
  metrics.admm_dual_residual.observe(static_cast<double>(ar.dual_residual));

  // Adaptive-rho interventions are reported whenever the feature is on,
  // independent of the robustness master switch; the guard-rail fields
  // below are nonzero only when robustness intervened.
  if (ar.rho_rebalances > 0) {
    result.recovery.add({RecoveryKind::kRhoRebalance, outer, mode,
                         ar.rho_rebalances, static_cast<double>(ar.rho),
                         std::string(), {}});
    metrics.robust_rho_rebalances.add(ar.rho_rebalances);
    AOADMM_LOG_DEBUG << "outer " << outer << " mode " << mode
                     << ": adaptive rho rebalanced " << ar.rho_rebalances
                     << "x (final rho " << ar.rho << ")";
  }
  if (ar.cholesky_attempts > 0) {
    result.recovery.add({RecoveryKind::kCholeskyJitter, outer, mode,
                         ar.cholesky_attempts,
                         static_cast<double>(ar.cholesky_jitter),
                         std::string(), {}});
    metrics.robust_cholesky_jitter.add(1);
    AOADMM_LOG_WARN << "outer " << outer << " mode " << mode
                    << ": Cholesky needed a diagonal ridge of "
                    << ar.cholesky_jitter << " (" << ar.cholesky_attempts
                    << " jitter attempts)";
  }
  if (ar.restarts > 0) {
    result.recovery.add({RecoveryKind::kAdmmRestart, outer, mode, ar.restarts,
                         static_cast<double>(ar.rho), std::string(), {}});
    metrics.robust_admm_restarts.add(ar.restarts);
    AOADMM_LOG_WARN << "outer " << outer << " mode " << mode
                    << ": divergent inner solve restarted " << ar.restarts
                    << "x (final rho " << ar.rho << ")";
  }
  if (ar.abandoned) {
    result.recovery.add({RecoveryKind::kAdmmAbandoned, outer, mode,
                         ar.restarts, static_cast<double>(ar.rho),
                         std::string(), {}});
    metrics.robust_admm_abandoned.add(1);
    AOADMM_LOG_WARN << "outer " << outer << " mode " << mode
                    << ": inner solve abandoned after " << ar.restarts
                    << " restarts; keeping previous iterate";
  }
}

ModeUpdateStats admm_mode_update(AdmmVariant variant, Matrix& factor,
                                 Matrix& dual, const Matrix& mttkrp,
                                 const Matrix& gram_prod,
                                 const ProxOperator& prox,
                                 const AdmmOptions& opts, AdmmScratch& scratch,
                                 unsigned outer, std::size_t mode,
                                 CpdResult& result) {
  const RobustnessOptions& rb = opts.robustness;
  const AdmmResult ar =
      variant == AdmmVariant::kBlocked
          ? admm_update_blocked(factor, dual, mttkrp, gram_prod, prox, opts,
                                scratch)
          : admm_update(factor, dual, mttkrp, gram_prod, prox, opts, scratch);
  record_inner_solve(ar, outer, mode, result);

  // Factor sentinel: a contaminated update would poison the Gram matrices
  // and, through them, every other mode. Roll back to the entry iterate the
  // ADMM scratch snapshotted for this mode.
  if (rb.enabled && rb.check_finite && !all_finite(factor)) {
    if (!all_finite(scratch.h_entry)) {
      throw NumericalError("factor " + std::to_string(mode) +
                           " is non-finite and so is its pre-update "
                           "iterate; cannot recover");
    }
    factor = scratch.h_entry;
    dual.zero();
    result.recovery.add({RecoveryKind::kFactorRollback, outer, mode, 1, 0,
                         std::string(), {}});
    ModeUpdateMetrics::get().robust_factor_rollbacks.add(1);
    AOADMM_LOG_WARN << "outer " << outer << " mode " << mode
                    << ": non-finite factor update rolled back";
  }

  return {ar.iterations, ar.primal_residual, ar.dual_residual};
}

}  // namespace detail
}  // namespace aoadmm
