// Generalized per-row split solve for non-quadratic or masked losses.
//
// The Frobenius fast path folds the data term into normal equations
// (MTTKRP + Gram) once per mode. Any other loss g(x, m) — KL, Huber, L1,
// or Frobenius restricted to the observed entries — breaks that algebra,
// so each factor row h gets the extra ADMM split of the AO-ADMM framework
// paper: introduce t ≈ B h (the model values at the row's observed
// entries, B = the Khatri-Rao rows along its CSF subtree) next to the
// constraint split h̄ = h, and alternate
//
//   h  <- (BᵀB + I)⁻¹ (Bᵀ(t − u_t) + (h̄ − u_h) − c/ρ)
//   t  <- prox_{g(x,·)/ρ}(B h + u_t)         (elementwise, closed form)
//   h̄  <- prox_{r/ρ}(h + u_h)                (the mode's ProxOperator)
//   u_t += B h − t,   u_h += h − h̄
//
// The h-system is independent of ρ, so it is factorized once per row per
// call and residual-balancing adaptive ρ costs nothing but the dual
// rescale. c is the linear zero-fill term an unmasked loss contributes
// over the unobserved cells (KL: slope 1); masked losses have c = 0.
//
// The split state (t, u_t) lives per non-zero of each mode's tree and
// warm-starts across outer iterations. Requires a CsfStrategy::kAllMode
// compilation (per-row systems are assembled from mode-rooted subtrees).
#pragma once

#include <vector>

#include "core/admm.hpp"
#include "core/loss.hpp"
#include "core/prox.hpp"
#include "la/matrix.hpp"
#include "tensor/csf.hpp"

namespace aoadmm {

/// Warm-started split variables for one mode: the loss-split primal t and
/// scaled dual u_t, one entry per non-zero in that mode's tree (leaf
/// order). `warm == false` means the next update re-seeds t = x, u_t = 0.
struct LossModeState {
  std::vector<real_t> t;
  std::vector<real_t> u_t;
  bool warm = false;
};

/// One LossModeState per tensor mode, owned by the solver session so
/// repeated solves reuse the allocations.
struct LossWorkspace {
  std::vector<LossModeState> modes;

  /// Size every mode's state to its tree's non-zero count and mark all of
  /// them cold (re-seeded on first use).
  void reset(const CsfSet& csf);
};

/// Aggregate outcome of one mode update in the quadratic path's terms, so
/// both paths report through the same code: `iterations` is the largest
/// per-row count, `row_iterations` the sum over rows, the residuals are the
/// worst rows' final ones and `rho_rebalances` is summed over rows. Every
/// row runs its own penalty, so `rho` stays 0, and the guard-rail fields
/// stay 0 because no guard rail runs here.
struct LossUpdateResult : AdmmResult {
  /// Wall-clock seconds spent assembling the per-row Khatri-Rao systems —
  /// the generalized path's MTTKRP analogue (max over threads, so it is
  /// comparable to the quadratic path's per-mode kernel time).
  double assemble_seconds = 0;
};

/// One generalized mode update: for every root row of `tree` (which must
/// be rooted at `mode`), assemble the row system from the current factors
/// and run the two-split row ADMM above. `factors[mode]` holds h̄ and is
/// updated in place together with the mode's dual matrix `u_h` and the
/// warm split state. `zero_fill_s` is Π_{n≠mode} colsum_n (length F) for
/// an unmasked loss with a zero-fill slope; pass empty otherwise. Throws
/// NumericalError when a row system is not positive definite; rows not yet
/// solved then keep their previous values.
LossUpdateResult loss_mode_update(const CsfTensor& tree,
                                  std::vector<Matrix>& factors,
                                  Matrix& u_h, std::size_t mode,
                                  const Loss& loss, const ProxOperator& prox,
                                  const AdmmOptions& opts,
                                  cspan<const real_t> zero_fill_s,
                                  LossModeState& state);

/// Objective and fit of the current model under `loss`.
struct LossObjective {
  /// Σ_Ω g(x, m) plus, for an unmasked loss, slope · (total model mass −
  /// observed model mass) over the implicit zeros.
  double objective = 0;
  /// √(Σ_Ω (x − m)² / Σ_Ω x²) — the trace/fit measure, loss-agnostic.
  real_t observed_relative_error = 0;
};

LossObjective loss_objective(const CsfTensor& tree,
                             cspan<const Matrix> factors, const Loss& loss,
                             real_t value_norm_sq);

}  // namespace aoadmm
