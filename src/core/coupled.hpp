// Coupled matrix-tensor factorization: a CPD that shares one or more of
// its factor matrices with side matrices,
//
//   min ‖X − ⟦A₀,…,A_{N−1}⟧‖² + Σ_c β_c ‖Y_c − A_{mode_c} W_cᵀ‖²
//        + Σ_n r_n(A_n) + Σ_c r_c(W_c),
//
// the standard way to graft side information (user features, gene
// annotations, …) onto a sparse tensor. Frobenius data terms only: the
// coupling folds into the shared mode's normal equations (K += β Y W,
// G += β WᵀW), so every update reuses the stock ADMM machinery
// (admm_mode_update) on the shared outer loop — augmented systems for the
// tensor modes, and a plain least-squares ADMM for each W_c.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/cpd.hpp"
#include "la/matrix.hpp"
#include "tensor/csf.hpp"

namespace aoadmm {

/// One side matrix coupled to a tensor mode.
struct CoupledMatrix {
  /// The data matrix, dims[mode] x J (rows aligned with the mode's index).
  Matrix y;
  /// Tensor mode whose factor it shares.
  std::size_t mode = 0;
  /// Coupling strength beta (> 0) weighting this matrix's loss term
  /// against the tensor term.
  real_t weight = 1;
  /// Constraint on the side factor W (default: none).
  ConstraintSpec w_constraint;
};

struct CoupledResult {
  /// Tensor-side outcome. relative_error is the tensor fit; the trace
  /// records the combined relative error below.
  CpdResult cpd;
  /// One J x F side factor per coupling, in input order.
  std::vector<Matrix> side_factors;
  /// ‖Y_c − A Wᵀ‖_F / ‖Y_c‖_F per coupling at termination.
  std::vector<real_t> matrix_relative_error;
  /// √((‖X−M‖² + Σ β‖Y−AWᵀ‖²) / (‖X‖² + Σ β‖Y‖²)) — the convergence
  /// measure of the coupled objective.
  real_t combined_relative_error = 1;
};

/// Run the coupled factorization on the shared outer loop (`config` applies
/// as in CpdSolver). Throws InvalidArgument on any loss but the default
/// unmasked Frobenius, on checkpoint_every > 0 (no side factors in the
/// checkpoint format, no resume), on a coupling whose mode or row count
/// does not match the tensor, or on weight <= 0.
CoupledResult coupled_factorize(const CsfSet& csf, const CpdConfig& config,
                                const std::vector<CoupledMatrix>& couplings);

}  // namespace aoadmm
