// Internal helpers shared by the CPD drivers (core/outer_loop.hpp and its
// steps).
#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "core/cpd.hpp"
#include "la/blas.hpp"
#include "parallel/runtime.hpp"
#include "util/rng.hpp"

namespace aoadmm::detail {

inline real_t tensor_norm_sq(const CsfTensor& csf) {
  const auto vals = csf.vals();
  return parallel_reduce_sum(0, vals.size(), [&](std::size_t i) {
    return vals[i] * vals[i];
  });
}

/// ⊛ of all Grams except `mode` into `out` (Algorithm 2, lines 4/8/12).
inline void gram_product_excluding(const std::vector<Matrix>& grams,
                                   std::size_t mode, Matrix& out) {
  const std::size_t f = grams[0].rows();
  if (out.rows() != f || out.cols() != f) {
    out.resize(f, f);
  }
  out.fill(real_t{1});
  for (std::size_t m = 0; m < grams.size(); ++m) {
    if (m != mode) {
      hadamard_inplace(out, grams[m]);
    }
  }
}

/// Exact relative error using the freshly computed MTTKRP of the final
/// mode: ⟨X, M⟩ = ⟨K, A_last⟩ holds exactly because K depends only on the
/// other (already current) factors. ‖M‖² comes from the Gram trick.
inline real_t fit_relative_error(real_t x_norm_sq, const Matrix& k,
                                 const Matrix& a_last,
                                 const std::vector<Matrix>& grams,
                                 Matrix& acc) {
  const real_t inner = dot(k, a_last);
  const std::size_t f = grams[0].rows();
  if (acc.rows() != f || acc.cols() != f) {
    acc.resize(f, f);
  }
  acc.fill(real_t{1});
  for (const Matrix& g : grams) {
    hadamard_inplace(acc, g);
  }
  const real_t model_sq = sum_all(acc);
  real_t resid_sq = x_norm_sq - 2 * inner + model_sq;
  if (resid_sq < 0) {
    resid_sq = 0;
  }
  return x_norm_sq > 0 ? std::sqrt(resid_sq / x_norm_sq)
                       : std::sqrt(resid_sq);
}

/// In-place factor initialization drawing from a caller-owned generator.
/// Reuses the matrices' existing storage when shapes already match, so a
/// session's repeated cold solves reallocate nothing. Draw order matches
/// the historical Matrix::random_uniform path exactly.
inline void init_factors_into(cspan<index_t> dims, rank_t rank, Rng& rng,
                              real_t x_norm_sq,
                              std::vector<Matrix>& factors) {
  factors.resize(dims.size());
  for (std::size_t m = 0; m < dims.size(); ++m) {
    Matrix& a = factors[m];
    if (a.rows() != dims[m] || a.cols() != rank) {
      a.resize(dims[m], rank);
    }
    // Uniform [0,1) keeps the start feasible for the non-negative and box
    // constraints and matches the paper's random initialization.
    for (real_t& v : a.flat()) {
      v = rng.uniform();
    }
  }

  // Balance the initial model energy against the data: on hypersparse
  // tensors a raw uniform start has ‖M₀‖ ≫ ‖X‖ (the model is dense, the
  // data is not), which makes the first least-squares pull crush every
  // factor toward zero and stalls convergence detection. Scaling each
  // factor by (‖X‖²/‖M₀‖²)^(1/2N) equalizes the norms.
  const std::size_t order = dims.size();
  real_t model_sq;
  {
    Matrix acc(rank, rank);
    acc.fill(real_t{1});
    Matrix g(rank, rank);
    for (const Matrix& a : factors) {
      gram(a, g);
      hadamard_inplace(acc, g);
    }
    model_sq = sum_all(acc);
  }
  if (model_sq > 0 && x_norm_sq > 0) {
    const real_t s = std::pow(x_norm_sq / model_sq,
                              real_t{1} / (2 * static_cast<real_t>(order)));
    for (Matrix& a : factors) {
      for (real_t& v : a.flat()) {
        v *= s;
      }
    }
  }
}

inline void init_factors_into(const CsfSet& csf, rank_t rank, Rng& rng,
                              real_t x_norm_sq,
                              std::vector<Matrix>& factors) {
  init_factors_into(csf.dims(), rank, rng, x_norm_sq, factors);
}

}  // namespace aoadmm::detail
