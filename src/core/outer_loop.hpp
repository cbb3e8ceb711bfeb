// The one AO outer loop (Algorithm 2) behind every CPD driver.
//
// CpdSolver (quadratic and generalized-loss paths), ShardedCpdSolver,
// cpd_als and coupled_factorize differ only in how they produce the
// right-hand side K of a mode, how they update that mode's factor, and how
// they measure fit. Everything else lives here, once:
//
//  * the cooperative cancel/deadline check at the top of each iteration;
//  * the wall clock and the MTTKRP / ADMM / other time buckets
//    (KernelBreakdown) plus the per-iteration MetricsSnapshot, assembled
//    only when CpdConfig::on_iteration is set;
//  * the cpd/outer, cpd/mode, cpd/fit and cpd/checkpoint profile scopes;
//  * the non-finite-K recompute under RobustnessOptions::check_finite;
//  * the trace point, the convergence test and the stop reason;
//  * the checkpoint write (journaled as checkpoint_written, survived under
//    robustness);
//  * result finalization (times, factors, factor densities).
//
// A driver plugs in an OuterLoopStep. The loop never asks which driver it
// is running: every difference goes through the step's hooks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/cpd.hpp"
#include "core/mode_update.hpp"
#include "core/prox.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace detail {

/// Registry handles one driver reports into. Default handles drop updates,
/// so a driver leaves unset whatever it does not report.
struct LoopMetrics {
  obs::Counter runs;
  obs::Counter outer_iterations;
  obs::Counter mttkrp_calls;
  obs::Counter sparse_mttkrp_calls;
  /// Run totals of the MTTKRP and ADMM buckets.
  obs::Counter mttkrp_seconds;
  obs::Counter admm_seconds;
  obs::Counter checkpoints_written;
  obs::Counter robust_mttkrp_retries;
  obs::Counter robust_checkpoint_write_failures;
  obs::Histogram iteration_seconds;

  /// The process-wide counters every driver shares (robust/* and
  /// cpd/checkpoints_written); the per-driver handles stay unset.
  static LoopMetrics shared();
  /// shared() plus `<family>/runs`, `<family>/outer_iterations`,
  /// `<family>/mttkrp_calls` and `<family>/iteration_seconds`.
  static LoopMetrics family(const std::string& name);
};

/// What produce_k() hands the loop for one mode.
struct ModeSystem {
  /// The assembled right-hand side, checked for non-finite values and
  /// counted as one MTTKRP. nullptr when the update assembles its own
  /// per-row systems (the generalized loss path).
  const Matrix* k = nullptr;
  /// MTTKRP seconds to book for this call.
  double mttkrp_seconds = 0;
  /// True when the kernel read a compressed leaf factor.
  bool sparse = false;
};

/// What fit() reports at the end of an iteration.
struct LoopFit {
  /// The trace point; also the snapshot's relative_error and the
  /// checkpoint's prev_error.
  real_t error = 0;
  /// The convergence measure: the loop stops once it improves by less than
  /// the tolerance.
  double measure = 0;
  /// Scale the tolerance by max(1, |previous measure|) — for objectives
  /// whose magnitude is far from 1.
  bool relative = false;
};

/// The iterate a driver runs the loop on, with its workspaces. A CpdSolver
/// or ShardedCpdSolver keeps one for its lifetime; cpd_als and
/// coupled_factorize build one per run. Checkpoints save the factors,
/// duals and RNG state from here.
struct SolverState {
  explicit SolverState(std::size_t order) : ws(order), sparse_cache(order) {}

  /// One prox operator per mode (call after the constraints are validated).
  void build_prox(const ModeConstraints& constraints);
  /// Size every dual to dims[m] x rank and zero it. resize() reuses
  /// capacity, so a warmed session resets its duals without allocating.
  void zero_duals(cspan<index_t> dims, rank_t rank);

  std::vector<Matrix> factors;
  std::vector<Matrix> duals;
  std::vector<std::unique_ptr<ProxOperator>> prox;
  CpdWorkspace ws;
  SparseFactorCache sparse_cache;
  /// The initialization stream, restored by a resume.
  Rng rng;
};

/// One driver's part of the loop. Hooks run in this order:
///   begin_run, then per outer iteration: begin_iteration, per mode
///   {produce_k [, produce_k(retry) ...], update, finish_mode}, fit.
class OuterLoopStep {
 public:
  virtual ~OuterLoopStep() = default;

  /// The iterate (factors, duals, RNG) the step updates.
  virtual const SolverState& state() const = 0;

  /// Once per run, inside the wall clock: Grams, caches, broadcasts.
  virtual void begin_run() {}
  /// Once per outer iteration, before the first mode.
  virtual void begin_iteration() {}
  /// Produce K for `mode`. `retry` is set when the loop recomputes a
  /// non-finite K: rerun the kernel from the factors, not from caches.
  virtual ModeSystem produce_k(unsigned outer, std::size_t mode,
                               bool retry) = 0;
  /// Update factor `mode` from the K just produced. Timed as ADMM.
  virtual ModeUpdateStats update(unsigned outer, std::size_t mode,
                                 CpdResult& result) = 0;
  /// Bookkeeping after the update, outside the ADMM bucket (Gram refresh,
  /// cache invalidation, factor broadcast).
  virtual void finish_mode(std::size_t mode) { (void)mode; }
  /// Measure the fit of the finished iterate; set the result fields the
  /// driver owns (relative_error, objective_value, ...).
  virtual LoopFit fit(unsigned outer, CpdResult& result) = 0;
  /// Driver-specific snapshot fields (dimension-tree reuse, shard
  /// imbalance, exchange bytes). Called only when on_iteration is set.
  virtual void fill_snapshot(obs::MetricsSnapshot& snap) const {
    (void)snap;
  }
};

class OuterLoop {
 public:
  /// `config` supplies the iteration cap, tolerance, trace, callback,
  /// cancel token, robustness and checkpoint policy; it must outlive run().
  OuterLoop(const CpdConfig& config, LoopMetrics metrics)
      : config_(config), metrics_(metrics) {}

  /// Run outer iterations start_outer..max_outer_iterations. `result`
  /// arrives seeded with any counters and trace carried over from a
  /// checkpoint; `prev_measure` is the convergence reference for the first
  /// iteration (infinity for a fresh baseline).
  CpdResult run(OuterLoopStep& step, unsigned start_outer,
                double prev_measure, CpdResult result) const;

 private:
  const CpdConfig& config_;
  LoopMetrics metrics_;
};

/// The normal-equations steps: Grams, the ADMM update of admm_mode_update
/// and the exact fit from the last mode's K. Subclasses produce K. The
/// dimension-tree and sparse-mirror bookkeeping is a no-op for a step that
/// never runs those kernels.
class QuadraticStep : public OuterLoopStep {
 public:
  /// All references must outlive the step.
  QuadraticStep(const CpdConfig& config, real_t x_norm_sq, SolverState& state)
      : config_(config), x_norm_sq_(x_norm_sq), state_(state) {}

  const SolverState& state() const override { return state_; }
  void begin_run() override;
  void begin_iteration() override;
  ModeUpdateStats update(unsigned outer, std::size_t mode,
                         CpdResult& result) override;
  void finish_mode(std::size_t mode) override;
  LoopFit fit(unsigned outer, CpdResult& result) override;
  void fill_snapshot(obs::MetricsSnapshot& snap) const override;

 protected:
  /// state_.ws.gram_prod = ⊛ of every Gram but `mode`'s (Algorithm 2,
  /// lines 4/8/12), then the Gram fault-injection hook.
  void gram_product(std::size_t mode);

  const CpdConfig& config_;
  const real_t x_norm_sq_;
  SolverState& state_;

 private:
  DimTreeStats dimtree_before_;
};

/// The local step: K from the CsfSet's MTTKRP kernels (compressed leaves,
/// tiled or dimension-tree as configured). cpd_als and coupled_factorize
/// derive from it to replace the update or extend K.
class LocalStep : public QuadraticStep {
 public:
  /// `kernel` comes from resolve_kernel().
  LocalStep(const CsfSet& csf, const CpdConfig& config, MttkrpKernel kernel,
            real_t x_norm_sq, SolverState& state)
      : QuadraticStep(config, x_norm_sq, state), csf_(csf), kernel_(kernel) {}

  ModeSystem produce_k(unsigned outer, std::size_t mode, bool retry) override;

 protected:
  const CsfSet& csf_;
  const MttkrpKernel kernel_;
};

/// Check a checkpoint against the resuming session's tensor shape and rank
/// (InvalidArgument on a mismatch), move its factors, duals and RNG state
/// into `state`, and return a result seeded with its counters and trace,
/// ready for OuterLoop::run from the next iteration.
CpdResult resume_into(CpdCheckpoint& ck, cspan<index_t> dims, rank_t rank,
                      SolverState& state);

/// The MTTKRP kernel a local solve runs: `requested` checked against the
/// compiled CsfSet (InvalidArgument when it cannot run there — wrong
/// strategy, tiling, order or index width), then kAuto resolved by
/// resolve_auto_kernel. Shared by CpdSolver, cpd_als and coupled_factorize.
MttkrpKernel resolve_kernel(const CsfSet& csf, MttkrpKernel requested,
                            LeafFormat leaf_format, rank_t rank);

/// The configuration checks of a driver that solves the Frobenius normal
/// equations and cannot resume (cpd_als, coupled_factorize): throws
/// InvalidArgument on any validate() error, on a loss other than unmasked
/// Frobenius and on checkpoint_every > 0.
void check_frobenius_config(const CpdConfig& config, std::size_t order,
                            const char* driver);

}  // namespace detail
}  // namespace aoadmm
