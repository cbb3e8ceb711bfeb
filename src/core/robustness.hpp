// Numerical fault tolerance for the AO-ADMM stack.
//
// The inner solve is numerically fragile by construction: the penalty is
// fixed to ρ = tr(G)/F and G + ρI is factorized once per mode (Algorithm 1,
// line 3), so a corrupted or contaminated Gram matrix kills the run via
// NumericalError, and nothing detects NaN/Inf contamination or residual
// blow-up. RobustnessOptions gates a layered set of guard rails:
//
//  * guarded Cholesky — on a non-positive pivot, escalate a diagonal ridge
//    geometrically (bounded jitter retries) instead of throwing;
//  * ADMM divergence recovery — monitor primal/dual residuals per inner
//    solve and, on blow-up or non-finite values, rescale ρ, reset the
//    duals, and retry the inner solve a bounded number of times;
//  * NaN/Inf sentinels — cheap vectorized finite-checks on MTTKRP output
//    and factor updates, with bounded recompute/rollback recovery.
//
// Every intervention is recorded as a RecoveryEvent and surfaced in the
// RecoveryReport on CpdResult, and counted in the obs metrics registry
// (robust/* counters). All guard rails are off by default: with
// `enabled == false` the solver behaves exactly as before (fail fast).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/telemetry/trace_context.hpp"
#include "util/types.hpp"

namespace aoadmm {

/// Gate + tuning knobs for the numerical guard rails. Carried on
/// AdmmOptions (and therefore CpdConfig); see CpdConfig::with_robustness().
struct RobustnessOptions {
  /// Master switch. Off means every guard rail is bypassed and numerical
  /// failures throw exactly as they always did.
  bool enabled = false;

  // --- Guarded Cholesky (la/cholesky.hpp: Cholesky::factor_guarded) ---
  /// Jitter retries after the plain attempt fails. Each retry adds
  /// `cholesky_initial_jitter * growth^k` (relative to the largest diagonal
  /// magnitude) to the diagonal before refactoring.
  unsigned cholesky_max_attempts = 8;
  real_t cholesky_initial_jitter = 1e-10;
  real_t cholesky_jitter_growth = 100;

  // --- ADMM divergence recovery ---
  /// An inner solve is declared divergent when its residual accumulators go
  /// non-finite, or the relative primal residual exceeds 1 AND has grown
  /// past `divergence_factor` times the best residual seen in the solve.
  real_t divergence_factor = 1e4;
  /// Bounded retries for a divergent inner solve (primal restored to its
  /// entry iterate, duals reset, ρ multiplied by rho_rescale) and for the
  /// non-finite MTTKRP recompute. After the budget is exhausted the update
  /// is abandoned and the previous iterate kept.
  unsigned max_recoveries = 3;
  real_t rho_rescale = 10;

  // --- NaN/Inf sentinels ---
  /// Finite-check MTTKRP outputs (recompute on contamination) and factor
  /// updates (roll back to the pre-update iterate on contamination).
  bool check_finite = true;
};

/// What kind of intervention a guard rail performed.
enum class RecoveryKind {
  /// Cholesky needed a diagonal ridge to factorize (magnitude = ridge).
  kCholeskyJitter,
  /// A divergent inner ADMM solve was restarted with rescaled ρ and reset
  /// duals (magnitude = final ρ, attempts = restarts used).
  kAdmmRestart,
  /// The inner solve still diverged after every restart; the factor was
  /// rolled back to its entry iterate and the update skipped.
  kAdmmAbandoned,
  /// Non-finite MTTKRP output detected; the kernel was re-run
  /// (attempts = recomputes needed to obtain a finite result).
  kMttkrpRetry,
  /// A factor update produced non-finite entries; the factor was rolled
  /// back to its pre-update iterate and the mode's duals were reset.
  kFactorRollback,
  /// A checkpoint write failed; the previous checkpoint file was left
  /// intact and the solve continued.
  kCheckpointWriteFailure,
  /// Residual-balancing adaptive ρ rescaled the penalty mid-solve
  /// (attempts = rescales performed, magnitude = final ρ). Reported
  /// whenever AdaptiveRhoOptions::enabled fires, independent of the
  /// RobustnessOptions master switch.
  kRhoRebalance,
};

const char* to_string(RecoveryKind k) noexcept;

/// One intervention by a guard rail, tagged with where it happened.
struct RecoveryEvent {
  RecoveryKind kind = RecoveryKind::kCholeskyJitter;
  /// Outer iteration (1-based) the event occurred in; 0 when outside the
  /// outer loop.
  unsigned outer_iteration = 0;
  /// Mode whose update was affected (meaningless for checkpoint events).
  std::size_t mode = 0;
  /// Retries/attempts the recovery consumed (kind-specific).
  unsigned attempts = 0;
  /// Kind-specific scalar: the jitter ridge, the final ρ, ...
  double magnitude = 0;
  /// Free-form context for logs ("short write", ...).
  std::string detail;
  /// Trace context active when the event fired (stamped by
  /// RecoveryReport::add from the thread-local context): links the event
  /// to the refresh solve / ingest batch it happened under. All-zero for
  /// solves run outside any traced scope.
  obs::TraceContext trace;
};

/// Structured log of every recovery performed during a solve, surfaced on
/// CpdResult::recovery. Empty on a fault-free run.
struct RecoveryReport {
  std::vector<RecoveryEvent> events;

  bool empty() const noexcept { return events.empty(); }
  std::size_t size() const noexcept { return events.size(); }
  /// Number of events of one kind.
  std::size_t count(RecoveryKind k) const noexcept;
  /// Record one event. Stamps the thread's current trace context on it,
  /// appends a `recovery` line to the installed event journal (if any),
  /// and drops a profiler instant marker — one choke point for every
  /// guard-rail call site.
  void add(RecoveryEvent e);
  /// One "outer I mode M: kind attempts=N magnitude=X" line per event.
  std::string to_string() const;
  /// Compact single-line summary, e.g. "3 recoveries (cholesky_jitter 2,
  /// admm_restart 1)"; "none" when empty.
  std::string summary() const;
};

}  // namespace aoadmm
