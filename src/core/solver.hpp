// Persistent solver sessions — the library's primary entry point.
//
// A CpdSolver binds a CsfSet to a validated CpdConfig once and then runs
// any number of factorizations against it, reusing every piece of hoisted
// state between calls: ADMM scratch (including the Cholesky system), MTTKRP
// workspaces, sparse-mirror buffers, factor and dual storage, and the
// tensor norm. After the first solve warms the buffers, a repeat solve()
// on an unchanged session performs zero heap allocations inside the outer
// loop (asserted in tests/integration/test_session.cpp against the
// alloc/aligned_calls obs counter).
//
//   CsfSet csf(x);
//   CpdConfig cfg = CpdConfig().with_rank(50).with_checkpoint("run.ckpt", 10);
//   CpdSolver solver(csf, cfg);        // validates; throws on config errors
//   CpdResult r1 = solver.solve();     // cold start from cfg.seed
//   CpdResult r2 = solver.solve_warm(KruskalTensor(r1.factors));
//   CpdResult r3 = solver.resume("run.ckpt");  // continue a killed run
//
// solve_warm seeds the factors from a prior model (λ folded into mode 0)
// and keeps the session's ADMM duals, so a re-solve after a small data or
// config perturbation converges in strictly fewer inner iterations than a
// cold start. resume() restores factors, duals, RNG state, counters, and
// the convergence trace from a checkpoint file and continues the run
// bitwise-identically (same variant/thread configuration assumed).
//
// The free function cpd_aoadmm() remains as a thin shim over a throwaway
// session; cpd_als() runs the same outer loop with a least-squares step.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/cpd.hpp"
#include "core/loss_solve.hpp"
#include "core/outer_loop.hpp"
#include "core/workspace.hpp"

namespace aoadmm {

class CpdSolver {
 public:
  /// Bind a tensor to a validated configuration. Runs config.validate(order)
  /// and throws InvalidArgument listing every error when validation fails;
  /// warnings are kept and readable via validation(). The CsfSet is held by
  /// reference and must outlive the solver.
  CpdSolver(const CsfSet& csf, CpdConfig config);

  const CpdConfig& config() const noexcept { return config_; }
  /// The full validation report from construction (warnings included).
  const ValidationReport& validation() const noexcept { return validation_; }

  /// Cold solve: re-initialize factors from config.seed, zero the
  /// duals, run the AO-ADMM outer loop. Callable any number of times; each
  /// call reproduces the same run on an unchanged session.
  CpdResult solve();

  /// Warm solve: seed the factors from `model` (λ folded into mode 0) and
  /// keep the session's current ADMM duals — after a prior solve on a
  /// nearby problem they carry the constraint geometry, so the inner loops
  /// start near their fixed points. Throws InvalidArgument when the model's
  /// shape or rank does not match the session.
  CpdResult solve_warm(const KruskalTensor& model);

  /// Continue a checkpointed run to completion. Restores factors, duals,
  /// RNG state, iteration counters, and the recorded trace, then resumes at
  /// the next outer iteration; the completed run's trace is bitwise
  /// identical (iteration, relative_error) to an uninterrupted one. Throws
  /// ParseError on a corrupt file and InvalidArgument when the checkpoint
  /// does not match the session's tensor or rank.
  CpdResult resume(const std::string& checkpoint_path);

 private:
  class LossStep;

  /// Run the shared outer loop (core/outer_loop.hpp) from the iterate in
  /// factors_/duals_, with the quadratic step or, for any other loss, the
  /// per-row loss step. `result` arrives pre-seeded with carried-over
  /// counters and trace.
  CpdResult run(unsigned start_outer, real_t prev_error, CpdResult result);

  const CsfSet& csf_;
  CpdConfig config_;
  ValidationReport validation_;
  real_t x_norm_sq_ = 0;

  // Hoisted per-session state, allocated on first use and reused forever.
  std::unique_ptr<Loss> loss_;
  LossWorkspace loss_ws_;
  detail::SolverState state_;  // factors, duals, prox, workspaces
  /// Concrete kernel after kAuto resolution (resolve_auto_kernel), fixed at
  /// construction for the session's lifetime.
  MttkrpKernel resolved_kernel_ = MttkrpKernel::kAuto;
};

}  // namespace aoadmm
