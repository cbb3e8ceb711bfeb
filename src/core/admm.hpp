// The ADMM inner solver of AO-ADMM (Algorithm 1) in two parallel flavors:
//
//  * admm_update          — the §IV.A baseline: each dense kernel (solve,
//    prox, dual update, residuals) is parallelized over rows with implicit
//    barriers in between, and convergence is a single global test over
//    aggregated residuals.
//  * admm_update_blocked  — the §IV.B reformulation: rows are split into
//    fixed-size blocks, each block runs the *whole* inner loop to its own
//    convergence, and blocks are dynamically scheduled across threads. This
//    removes every inter-kernel synchronization, keeps a block's primal/dual
//    state cache-resident across iterations, and lets "high-signal" rows
//    iterate more than already-converged ones.
//
// Both minimize  ½‖X(m) − H(⊙ₙAₙ)ᵀ‖² + r(H)  for one factor given the
// MTTKRP result K and Gram matrix G, updating the primal H and scaled dual
// U in place. They differ only in how rows are scheduled: core/admm.cpp
// runs both inside one envelope that owns the penalty, the factorization
// of G + ρI, residual balancing and divergence recovery.
#pragma once

#include <cstdint>
#include <vector>

#include "core/prox.hpp"
#include "core/robustness.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "util/aligned.hpp"
#include "util/types.hpp"

namespace aoadmm {

/// Residual-balancing adaptive penalty (Boyd et al. §3.4.1, and the scheme
/// snippet 3 of SNIPPETS.md applies): when the relative primal residual
/// exceeds `ratio` times the dual one, the penalty is too weak — multiply
/// ρ by `rescale` and divide the scaled duals by it; in the mirror case
/// divide ρ and multiply the duals. Keeps the two residuals within a
/// factor of `ratio` of each other so neither stalls the inner loop on
/// ill-conditioned systems where the tr(G)/F default lands far off.
///
/// The residuals are checked after every inner iteration (for the blocked
/// variant, after every one-iteration sweep over the blocks), and ρ is
/// rescaled at most kMaxRhoRebalances times per update, which bounds the
/// refactorization cost and stops ρ from oscillating. The quadratic path
/// refactors its F x F system after every rescale (the Cholesky depends on
/// ρ); the generalized-loss path's per-row system (BᵀB + I) is
/// ρ-independent, so rebalancing there is free.
struct AdaptiveRhoOptions {
  /// Off by default: ρ stays fixed at tr(G)/F, the historical behavior.
  bool enabled = false;
  /// Imbalance threshold μ triggering a rescale.
  real_t ratio = 10;
  /// Multiplier τ applied to ρ per rescale (duals scaled by 1/τ).
  real_t rescale = 2;
};

/// Rescale budget of one inner solve (per row on the generalized-loss path).
inline constexpr unsigned kMaxRhoRebalances = 16;

struct AdmmOptions {
  /// Inner tolerance ε: stop when the relative primal AND dual residuals
  /// fall below it (Algorithm 1 line 12).
  real_t tolerance = 1e-2;
  /// Hard cap on inner iterations (per block for the blocked variant).
  unsigned max_iterations = 50;
  /// Rows per block for admm_update_blocked. The paper found 50 to balance
  /// convergence benefit against per-block overheads (§IV.B). 0 selects
  /// the analytical model (auto_block_size — the paper's §VI future work).
  std::size_t block_size = 50;
  /// Over-relaxation α ∈ (0, 2): the classical ADMM acceleration (Boyd et
  /// al. §3.4.3) — the least-squares iterate is mixed with the previous
  /// primal, Ĥ = α·H̃ + (1−α)·H₀, before the prox and dual steps. 1.0
  /// disables it; 1.5–1.8 typically speeds convergence.
  real_t relaxation = 1.0;
  /// Numerical guard rails (guarded Cholesky, divergence recovery). Off by
  /// default: a non-PD system throws and divergence runs unchecked, exactly
  /// the historical behavior.
  RobustnessOptions robustness;
  /// Residual-balancing adaptive ρ (see AdaptiveRhoOptions). Off by
  /// default.
  AdaptiveRhoOptions adaptive;
};

/// Analytical block-size model (implements the paper's future-work item:
/// "an analytical model of the ADMM algorithm could provide a method of
/// choosing block sizes"). One blocked-ADMM iteration touches five row
/// panels of F doubles per row (primal, dual, aux, previous primal, and
/// the MTTKRP rhs); the model picks the largest block whose working set
/// fits the per-thread cache budget, clamped to [8, 512] so per-block
/// overheads (small blocks) and convergence loss (huge blocks) stay
/// bounded.
std::size_t auto_block_size(std::size_t rank,
                            std::size_t cache_bytes = 256 * 1024) noexcept;

struct AdmmResult {
  /// Inner iterations executed: for the baseline, the global count; for the
  /// blocked variant, the maximum over blocks. Accumulated across
  /// divergence restarts (the true work performed).
  unsigned iterations = 0;
  /// Σ over rows of the number of iterations that touched them — the true
  /// work measure that the blocked variant reduces.
  std::uint64_t row_iterations = 0;
  /// Final relative residuals (worst block for the blocked variant).
  real_t primal_residual = 0;
  real_t dual_residual = 0;

  // --- Guard-rail telemetry (all zero unless robustness intervened) ---
  /// Jitter retries the guarded Cholesky factorization(s) consumed.
  unsigned cholesky_attempts = 0;
  /// Largest diagonal ridge the guard had to add.
  real_t cholesky_jitter = 0;
  /// Divergence restarts performed (ρ rescaled, duals reset each time).
  unsigned restarts = 0;
  /// True when the solve still diverged after every permitted restart; the
  /// primal was rolled back to its entry iterate and the duals were reset,
  /// so the caller keeps a sane (if stale) factor.
  bool abandoned = false;
  /// Final penalty in effect (== tr(G)/F unless restarts or residual
  /// rebalancing rescaled it).
  real_t rho = 0;
  /// Residual-balancing ρ rescales performed (AdaptiveRhoOptions).
  unsigned rho_rebalances = 0;
};

namespace detail {

/// The four squared norms of Algorithm 1's convergence test (lines 10–11),
/// summed over whatever rows an iteration covered.
struct ResidualAccum {
  real_t primal_num = 0;
  real_t primal_den = 0;
  real_t dual_num = 0;
  real_t dual_den = 0;

  void merge(const ResidualAccum& o) noexcept {
    primal_num += o.primal_num;
    primal_den += o.primal_den;
    dual_num += o.dual_num;
    dual_den += o.dual_den;
  }

  real_t primal() const noexcept {
    return primal_num / (primal_den > 0 ? primal_den : real_t{1});
  }
  real_t dual() const noexcept {
    // Algorithm 1 normalizes by ‖U‖², which vanishes when the constraints
    // are inactive (the dual settles at zero) and would stall convergence
    // detection on an already-exact iterate. Floor the denominator at a
    // tiny fraction of ‖H‖² so "both numerator and dual are negligible"
    // counts as converged.
    const real_t floor_den = real_t{1e-12} * primal_den + real_t{1e-300};
    return dual_num / (dual_den > floor_den ? dual_den : floor_den);
  }
  bool converged(real_t eps) const noexcept {
    return primal() < eps && dual() < eps;
  }
};

}  // namespace detail

/// Scratch reused across ADMM calls (aux = H̃, h_old = H₀), plus the F x F
/// system matrix G + ρI and its Cholesky factorization, which are rebuilt in
/// place every call. Sized lazily to the largest factor they have seen, so a
/// long-lived solver session performs no heap allocation here after the
/// first outer iteration.
struct AdmmScratch {
  Matrix aux;
  Matrix h_old;
  Matrix sys;     // G + ρI
  Cholesky chol;  // factorization of sys, refreshed per call
  /// Snapshot of the primal at call entry, maintained only when robustness
  /// is enabled: divergence restarts and sentinel rollbacks restore it.
  Matrix h_entry;

  /// One block's progress across the blocked variant's sweeps.
  struct Block {
    enum State : unsigned char { kRunning, kConverged, kDiverged };
    detail::ResidualAccum acc;  // residual sums of its latest iteration
    unsigned iterations = 0;    // iterations run in this attempt
    State state = kRunning;
  };
  /// Grow-only: the largest block count any call has needed.
  std::vector<Block, AlignedAllocator<Block>> blocks;

  void ensure(std::size_t rows, std::size_t cols) {
    if (aux.rows() < rows || aux.cols() != cols) {
      aux.resize(rows, cols);
      h_old.resize(rows, cols);
    }
  }
};

/// Baseline kernel-parallel ADMM (Algorithm 1). `h` (primal) and `u` (dual)
/// are I x F and updated in place; `k` is the MTTKRP result; `g` the F x F
/// Gram matrix Σ-free of the mode being solved.
AdmmResult admm_update(Matrix& h, Matrix& u, const Matrix& k, const Matrix& g,
                       const ProxOperator& prox, const AdmmOptions& opts,
                       AdmmScratch& scratch);

/// Blockwise ADMM (§IV.B). Requires a row-separable prox (all operators in
/// this library are).
AdmmResult admm_update_blocked(Matrix& h, Matrix& u, const Matrix& k,
                               const Matrix& g, const ProxOperator& prox,
                               const AdmmOptions& opts, AdmmScratch& scratch);

}  // namespace aoadmm
