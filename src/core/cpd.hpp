// Options and result types for constrained CPD, plus the legacy free-
// function entry points. The primary API is the CpdSolver session
// (core/solver.hpp), which validates its configuration up front and reuses
// all solver state across repeated solves:
//
//   CooTensor x = read_tns_file("data.tns");
//   CsfSet csf(x);
//   CpdConfig cfg = CpdConfig()
//       .with_rank(50)
//       .with_constraints(
//           ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
//   CpdSolver solver(csf, cfg);
//   CpdResult r = solver.solve();
//
// Convergence follows the paper (§V.A): factorization quality is the
// relative error ‖X − M‖_F/‖X‖_F, and the loop stops when it improves by
// less than `tolerance` or after `max_outer_iterations`.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/admm.hpp"
#include "core/prox.hpp"
#include "core/trace.hpp"
#include "la/matrix.hpp"
#include "mttkrp/mttkrp.hpp"
#include "obs/snapshot.hpp"
#include "tensor/csf.hpp"

namespace aoadmm {

/// Which ADMM inner solver the driver uses.
enum class AdmmVariant {
  kBaseline,  // §IV.A kernel-parallel
  kBlocked,   // §IV.B blockwise reformulation
};

const char* to_string(AdmmVariant v) noexcept;

/// Why the outer loop stopped. kCancelled/kDeadline come from a cooperative
/// CancelToken (core/cancel.hpp) checked once per outer iteration; the
/// returned factors are the iterate of the last completed iteration.
enum class StopReason {
  kConverged,      // tolerance reached
  kMaxIterations,  // iteration cap hit without converging
  kCancelled,      // CancelToken::cancel() observed
  kDeadline,       // CancelToken deadline expired
};

const char* to_string(StopReason r) noexcept;

struct CpdOptions {
  rank_t rank = 16;
  unsigned max_outer_iterations = 200;
  /// Stop when the relative error improves by less than this (paper: 1e-6).
  real_t tolerance = 1e-6;
  AdmmOptions admm;
  AdmmVariant variant = AdmmVariant::kBlocked;
  /// Leaf-factor storage during MTTKRP (Table II: DENSE / CSR / CSR-H).
  LeafFormat leaf_format = LeafFormat::kDense;
  /// Which MTTKRP driver the solver runs (kAuto follows the CsfSet: tiled
  /// compilations run kTiled, otherwise the strategy's ALLMODE/ONEMODE
  /// kernels).
  MttkrpKernel mttkrp_kernel = MttkrpKernel::kAuto;
  /// Scatter/scheduling policy inside the MTTKRP kernels (see
  /// mttkrp/mttkrp.hpp; kDynamic is the legacy atomic ablation baseline).
  MttkrpSchedule mttkrp_schedule = MttkrpSchedule::kAuto;
  /// Leaf-mode tile height intended for the CsfSet compilation (0 = no
  /// tiling). The tiling itself happens when the CsfSet is built — this
  /// field exists so validate() can cross-check it against mttkrp_kernel
  /// and leaf_format, and so drivers like tensor_tool have one place to
  /// read it from.
  index_t mttkrp_tile_rows = 0;
  /// Exploit factor sparsity only below this density (paper: 20%).
  real_t sparsity_threshold = 0.20;
  std::uint64_t seed = 123;
  bool record_trace = true;
  /// Invoked at the end of every outer iteration with that iteration's
  /// metrics (relative error, per-mode MTTKRP seconds, ADMM residuals,
  /// thread imbalance, ... — see obs/snapshot.hpp). Called exactly
  /// `outer_iterations` times. Leave empty to skip snapshot assembly (the
  /// per-iteration factor-density measurement is only done when set).
  std::function<void(const obs::MetricsSnapshot&)> on_iteration;
};

/// Wall-clock decomposition of a factorization (paper Fig. 3).
struct KernelBreakdown {
  double mttkrp_seconds = 0;
  double admm_seconds = 0;
  /// Gram products, fit evaluation, sparse-mirror construction, misc.
  double other_seconds = 0;
  double total_seconds = 0;

  double mttkrp_fraction() const noexcept {
    return total_seconds > 0 ? mttkrp_seconds / total_seconds : 0;
  }
  double admm_fraction() const noexcept {
    return total_seconds > 0 ? admm_seconds / total_seconds : 0;
  }
  double other_fraction() const noexcept {
    return total_seconds > 0
               ? 1.0 - mttkrp_fraction() - admm_fraction()
               : 0;
  }
};

struct CpdResult {
  std::vector<Matrix> factors;
  /// Observed-entry relative error ‖X − M‖_F/‖X‖_F (over all cells on the
  /// quadratic fast path, over Ω on the generalized loss path).
  real_t relative_error = 1;
  /// Final loss objective Σ g(x, m) (+ zero-fill term). Only set by the
  /// generalized loss path; 0 for the Frobenius fast path.
  double objective_value = 0;
  /// Per-outer-iteration objective values, same length as the trace.
  /// Empty on the Frobenius fast path.
  std::vector<double> objective_trace;
  unsigned outer_iterations = 0;
  bool converged = false;
  /// Why the loop stopped (kConverged iff `converged`).
  StopReason stop_reason = StopReason::kMaxIterations;
  ConvergenceTrace trace;
  KernelBreakdown times;
  /// Sum over all factor updates of the ADMM iterations they ran.
  std::uint64_t total_inner_iterations = 0;
  /// Sum over all updates of per-row inner iterations (work measure).
  std::uint64_t total_row_iterations = 0;
  /// How many MTTKRP calls used a compressed leaf factor.
  std::uint64_t sparse_mttkrp_count = 0;
  std::uint64_t mttkrp_count = 0;
  /// Density of each factor at termination (nnz / (I·F)).
  std::vector<real_t> factor_density;
  /// Every numerical intervention the guard rails performed (empty unless
  /// RobustnessOptions::enabled and something actually went wrong).
  RecoveryReport recovery;
};

/// Constrained CPD via AO-ADMM. `constraints` has either one entry
/// (broadcast to all modes) or one per mode.
///
/// Deprecated shim over a throwaway CpdSolver session: prefer CpdSolver
/// (core/solver.hpp) with an explicit ModeConstraints, which validates the
/// configuration up front and reuses state across repeated solves.
CpdResult cpd_aoadmm(const CsfSet& csf, const CpdOptions& opts,
                     cspan<const ConstraintSpec> constraints);

/// Unconstrained (or ridge-regularized) CPD via ALS — the classical
/// baseline AO-ADMM generalizes (§II.C: "when no constraints are enforced,
/// AO becomes ALS"): the shared outer loop with a least-squares update.
/// Of the ADMM, variant and leaf options only admm.robustness is read.
CpdResult cpd_als(const CsfSet& csf, const CpdOptions& opts,
                  real_t ridge = 0);

}  // namespace aoadmm
