// Validated solver configuration for the CpdSolver session API.
//
//  * ModeConstraints replaces the old implicit cspan<const ConstraintSpec>
//    convention ("one entry broadcasts, otherwise one per mode") with an
//    explicit type that states which of the two it means and rejects
//    mismatched counts with a clear error instead of a deep assert.
//  * CpdConfig is the single source of truth for every solver knob —
//    rank, tolerances, ADMM options, loss, kernel selection,
//    constraints, checkpoint policy — behind chainable with_* setters and
//    a validate() that returns structured diagnostics (field, severity,
//    actionable message) rather than asserting; callers like tensor_tool
//    print them as CLI errors. CpdSolver, ShardedCpdSolver, cpd_als and
//    coupled_factorize all take it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/cpd.hpp"
#include "core/loss.hpp"
#include "core/prox.hpp"

namespace aoadmm {

/// Constraints for every mode of a factorization: either one spec broadcast
/// to all modes, or exactly one spec per mode.
class ModeConstraints {
 public:
  /// Default: non-negativity broadcast to every mode (the paper's headline
  /// configuration and the previous implicit default).
  ModeConstraints() : specs_(1) {}

  static ModeConstraints broadcast(const ConstraintSpec& spec) {
    ModeConstraints c;
    c.specs_[0] = spec;
    return c;
  }

  /// One spec per mode, in mode order. Throws InvalidArgument when empty.
  static ModeConstraints per_mode(std::vector<ConstraintSpec> specs);

  bool broadcasts() const noexcept { return specs_.size() == 1; }
  std::size_t size() const noexcept { return specs_.size(); }
  const std::vector<ConstraintSpec>& specs() const noexcept { return specs_; }

  /// The spec governing `mode`. Requires check_order to have passed for the
  /// tensor at hand (broadcast ignores `mode`).
  const ConstraintSpec& for_mode(std::size_t mode) const {
    return specs_[broadcasts() ? 0 : mode];
  }

  /// Throws InvalidArgument naming both counts unless this holds one
  /// broadcast spec or exactly `order` per-mode specs.
  void check_order(std::size_t order) const;

 private:
  std::vector<ConstraintSpec> specs_;
};

struct ValidationIssue {
  enum class Severity { kError, kWarning };
  Severity severity = Severity::kError;
  /// Option the issue concerns, e.g. "rank" or "admm.relaxation".
  std::string field;
  /// Actionable description, suitable for direct CLI display.
  std::string message;
};

const char* to_string(ValidationIssue::Severity s) noexcept;

/// Outcome of CpdConfig::validate(): all findings, never a throw.
struct ValidationReport {
  std::vector<ValidationIssue> issues;

  bool ok() const noexcept;  // true when no kError issue is present
  std::size_t error_count() const noexcept;
  std::size_t warning_count() const noexcept;
  /// One "severity field: message" line per issue.
  std::string to_string() const;
};

/// Grid decomposition + out-of-core knobs for the sharded solver
/// (dist/sharded_solver.hpp). Inert unless enabled(): the single-session
/// CpdSolver ignores this block entirely.
struct ShardOptions {
  /// Cells per mode ("2x2x1" on the CLI). Empty = unsharded. A spill_dir
  /// with no grid means a 1-per-mode grid (pure out-of-core).
  std::vector<std::size_t> grid;
  /// When non-empty, tiles are serialized here and mmap-streamed back on
  /// demand instead of staying resident (out-of-core mode).
  std::string spill_dir;
  /// Decoded-tile residency budget for out-of-core mode; 0 = unbounded
  /// (tiles still spill, but nothing is evicted).
  std::size_t max_resident_bytes = 0;

  bool enabled() const noexcept {
    return !grid.empty() || !spill_dir.empty() || max_resident_bytes > 0;
  }
  bool out_of_core() const noexcept { return !spill_dir.empty(); }
  std::size_t shard_count() const noexcept {
    std::size_t n = 1;
    for (const std::size_t g : grid) n *= g;
    return grid.empty() ? 1 : n;
  }
};

/// Full description of a factorization run, built fluently:
///
///   CpdConfig cfg = CpdConfig()
///       .with_rank(50)
///       .with_constraints(ModeConstraints::broadcast(nonneg))
///       .with_checkpoint("run.ckpt", 10);
///   ValidationReport report = cfg.validate(csf.order());
///   if (!report.ok()) { ... print report.to_string() ... }
struct CpdConfig {
  rank_t rank = 16;
  unsigned max_outer_iterations = 200;
  /// Stop when the convergence measure (relative error for the Frobenius
  /// fast path, the loss objective otherwise) improves by less than this.
  real_t tolerance = 1e-6;
  AdmmOptions admm;
  AdmmVariant variant = AdmmVariant::kBlocked;
  /// Leaf-factor storage during MTTKRP (Table II: DENSE / CSR / CSR-H).
  LeafFormat leaf_format = LeafFormat::kDense;
  /// MTTKRP driver; kAuto follows the CsfSet (resolve_auto_kernel). The
  /// scatter kernels always run the kAuto schedule cost model.
  MttkrpKernel mttkrp_kernel = MttkrpKernel::kAuto;
  /// Exploit factor sparsity only below this density (paper: 20%).
  real_t sparsity_threshold = 0.20;
  std::uint64_t seed = 123;
  bool record_trace = true;
  /// Invoked at the end of every outer iteration with that iteration's
  /// metrics (obs/snapshot.hpp); empty skips the snapshot assembly.
  std::function<void(const obs::MetricsSnapshot&)> on_iteration;
  /// Data-fidelity loss (core/loss.hpp). The default — unmasked Frobenius
  /// — runs the normal-equations fast path; everything else takes the
  /// generalized per-row split solve.
  LossSpec loss;
  ModeConstraints constraints;
  /// When checkpoint_every > 0, CpdSolver writes a checkpoint of the full
  /// solver state to checkpoint_path after every checkpoint_every outer
  /// iterations (atomically: temp file + rename).
  std::string checkpoint_path;
  unsigned checkpoint_every = 0;
  /// Cooperative stop request (core/cancel.hpp). When set, the outer loop
  /// checks it once per iteration and stops with StopReason::kCancelled or
  /// kDeadline, returning the last completed iterate. Null = never checked.
  CancelTokenPtr cancel;
  /// Grid decomposition + out-of-core spill (dist/sharded_solver.hpp).
  ShardOptions shards;

  CpdConfig& with_rank(rank_t r) { rank = r; return *this; }
  CpdConfig& with_max_outer(unsigned n) {
    max_outer_iterations = n;
    return *this;
  }
  CpdConfig& with_tolerance(real_t t) { tolerance = t; return *this; }
  CpdConfig& with_admm(const AdmmOptions& a) {
    admm = a;
    return *this;
  }
  CpdConfig& with_variant(AdmmVariant v) { variant = v; return *this; }
  CpdConfig& with_leaf_format(LeafFormat f) {
    leaf_format = f;
    return *this;
  }
  CpdConfig& with_mttkrp_kernel(MttkrpKernel k) {
    mttkrp_kernel = k;
    return *this;
  }
  CpdConfig& with_sparsity_threshold(real_t t) {
    sparsity_threshold = t;
    return *this;
  }
  CpdConfig& with_seed(std::uint64_t s) { seed = s; return *this; }
  CpdConfig& with_trace(bool record) {
    record_trace = record;
    return *this;
  }
  /// Data-fidelity loss, e.g. with_loss({LossKind::kKL}) for count data or
  /// with_loss(parse_loss_spec("huber:0.5")). See docs/losses.md.
  CpdConfig& with_loss(const LossSpec& l) {
    loss = l;
    return *this;
  }
  CpdConfig& with_constraints(ModeConstraints c) {
    constraints = std::move(c);
    return *this;
  }
  /// Numerical guard rails (guarded Cholesky, ADMM divergence recovery,
  /// NaN/Inf sentinels). See core/robustness.hpp and docs/robustness.md.
  CpdConfig& with_robustness(const RobustnessOptions& r) {
    admm.robustness = r;
    return *this;
  }
  /// Shorthand: enable the guard rails with their default thresholds.
  CpdConfig& with_robustness(bool enabled = true) {
    admm.robustness.enabled = enabled;
    return *this;
  }
  const RobustnessOptions& robustness() const noexcept {
    return admm.robustness;
  }
  /// Residual-balancing adaptive ρ (core/admm.hpp: AdaptiveRhoOptions).
  CpdConfig& with_adaptive_rho(const AdaptiveRhoOptions& a) {
    admm.adaptive = a;
    return *this;
  }
  /// Shorthand: enable adaptive ρ with its default thresholds.
  CpdConfig& with_adaptive_rho(bool enabled = true) {
    admm.adaptive.enabled = enabled;
    return *this;
  }
  const AdaptiveRhoOptions& adaptive_rho() const noexcept {
    return admm.adaptive;
  }
  CpdConfig& with_checkpoint(std::string path, unsigned every) {
    checkpoint_path = std::move(path);
    checkpoint_every = every;
    return *this;
  }
  /// Attach a cooperative cancellation token; pass nullptr to detach. The
  /// caller arms it (cancel() or set_deadline_after) while a solve runs.
  CpdConfig& with_cancel(CancelTokenPtr token) {
    cancel = std::move(token);
    return *this;
  }
  /// Grid decomposition and out-of-core spill for ShardedCpdSolver.
  CpdConfig& with_shards(ShardOptions s) {
    shards = std::move(s);
    return *this;
  }

  /// Check every field for consistency. Pass the tensor order when known to
  /// also validate the constraint count and mode-dependent combinations;
  /// order == 0 skips those checks. Never throws: all findings are returned,
  /// errors and warnings alike.
  ValidationReport validate(std::size_t order = 0) const;
};

}  // namespace aoadmm
