#include "core/loss_solve.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <exception>
#include <vector>

#include "core/admm_impl.hpp"
#include "la/cholesky.hpp"
#include "parallel/runtime.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

/// Per-thread scratch for one row's two-split subproblem. The per-entry
/// buffers (w/xs/nodes) grow to the largest row seen and are reused.
struct RowScratch {
  Matrix g;                                             // BᵀB, then BᵀB + I
  std::vector<real_t, AlignedAllocator<real_t>> rhs;    // h-system rhs / h
  std::vector<real_t, AlignedAllocator<real_t>> c;      // zero-fill linear term
  std::vector<real_t, AlignedAllocator<real_t>> hbar_old;
  std::vector<real_t, AlignedAllocator<real_t>> path;   // per-level products
  std::vector<real_t, AlignedAllocator<real_t>> w;      // nnz_i x F KRP rows
  std::vector<real_t> xs;                               // nnz_i data values
  std::vector<offset_t> nodes;                          // leaf node ids

  RowScratch(std::size_t f, std::size_t order)
      : g(f, f), rhs(f), c(f), hbar_old(f), path(order * f) {}
};

/// One DFS over root `r`'s subtree: collect the Khatri-Rao row w_j, the
/// datum x_j, and the leaf node id for every observed entry, and build
/// G = Σ w wᵀ (upper triangle) plus the column sums Σ_j w_j needed by the
/// zero-fill term.
void assemble_row(const CsfTensor& tree, cspan<const Matrix> factors,
                  std::size_t r, cspan<const real_t> zero_fill_s,
                  RowScratch& s) {
  const std::size_t order = tree.order();
  const std::size_t f = s.rhs.size();
  s.g.zero();
  s.w.clear();
  s.xs.clear();
  s.nodes.clear();
  std::fill(s.c.begin(), s.c.end(), real_t{0});

  const auto vals = tree.vals();
  const auto leaf_fids = tree.fids(order - 1);
  const Matrix& leaf_factor = factors[tree.level_mode(order - 1)];

  const auto visit = [&](auto&& self, std::size_t level, offset_t node,
                         const real_t* __restrict partial) -> void {
    if (level == order - 1) {
      const real_t* __restrict lrow =
          leaf_factor.data() + static_cast<std::size_t>(leaf_fids[node]) * f;
      const std::size_t at = s.w.size();
      s.w.resize(at + f);
      real_t* __restrict w = s.w.data() + at;
      for (std::size_t col = 0; col < f; ++col) {
        w[col] = partial == nullptr ? lrow[col] : partial[col] * lrow[col];
      }
      s.xs.push_back(vals[node]);
      s.nodes.push_back(node);
      for (std::size_t p = 0; p < f; ++p) {
        const real_t wp = w[p];
        real_t* __restrict gp = s.g.data() + p * f;
        for (std::size_t q = p; q < f; ++q) {
          gp[q] += wp * w[q];
        }
        s.c[p] += wp;  // observed column mass, reused for zero-fill below
      }
      return;
    }
    const real_t* next_partial = partial;
    if (level > 0) {
      const Matrix& a = factors[tree.level_mode(level)];
      const real_t* __restrict row =
          a.data() + static_cast<std::size_t>(tree.fids(level)[node]) * f;
      real_t* __restrict buf = s.path.data() + level * f;
      for (std::size_t col = 0; col < f; ++col) {
        buf[col] = partial == nullptr ? row[col] : partial[col] * row[col];
      }
      next_partial = buf;
    }
    const auto fptr = tree.fptr(level);
    for (offset_t child = fptr[node]; child < fptr[node + 1]; ++child) {
      self(self, level + 1, child, next_partial);
    }
  };
  visit(visit, 0, static_cast<offset_t>(r), nullptr);

  for (std::size_t p = 0; p < f; ++p) {
    for (std::size_t q = p + 1; q < f; ++q) {
      s.g(q, p) = s.g(p, q);
    }
  }
  // c currently holds s_obs = Σ_j w_j; turn it into the zero-fill linear
  // coefficient s − s_obs, or zero it for masked losses.
  if (zero_fill_s.empty()) {
    std::fill(s.c.begin(), s.c.end(), real_t{0});
  } else {
    for (std::size_t col = 0; col < f; ++col) {
      s.c[col] = zero_fill_s[col] - s.c[col];
    }
  }
}

struct RowOutcome {
  unsigned iterations = 0;
  real_t primal = 0;
  real_t dual = 0;
  unsigned rebalances = 0;
  unsigned cholesky_attempts = 0;
  real_t cholesky_jitter = 0;
};

/// Two-split ADMM on one assembled row. h̄ lives in h_mat's row (through
/// the parent matrix so the prox sees a proper row), u_h in u_mat's row,
/// and (t, u_t) in the mode's warm state indexed by leaf node id.
RowOutcome solve_row(Matrix& h_mat, Matrix& u_mat, std::size_t row,
                     const Loss& loss, const ProxOperator& prox,
                     const AdmmOptions& opts, real_t slope,
                     LossModeState& state, RowScratch& s) {
  const std::size_t f = s.rhs.size();
  const std::size_t nnz = s.xs.size();
  real_t rho = detail::admm_penalty(s.g);
  // The h-system (G + I) is rho-independent: factor once, rebalance freely.
  // With the guard rails on, a system the "+ I" cannot make definite (huge
  // factor entries round it away) gets a diagonal ridge instead of a throw.
  for (std::size_t col = 0; col < f; ++col) {
    s.g(col, col) += real_t{1};
  }
  RowOutcome out;
  Cholesky chol;
  const RobustnessOptions& rb = opts.robustness;
  if (rb.enabled) {
    const CholeskyReport cr = chol.factor_guarded(
        s.g, {rb.cholesky_max_attempts, rb.cholesky_initial_jitter,
              rb.cholesky_jitter_growth});
    out.cholesky_attempts = cr.attempts;
    out.cholesky_jitter = cr.jitter;
  } else {
    chol.factor(s.g);
  }

  real_t* __restrict hbar = h_mat.data() + row * f;
  real_t* __restrict uh = u_mat.data() + row * f;
  real_t* __restrict h = s.rhs.data();
  const real_t* __restrict w = s.w.data();
  const real_t* __restrict xs = s.xs.data();
  real_t* __restrict t = state.t.data();
  real_t* __restrict ut = state.u_t.data();
  const AdaptiveRhoOptions& ad = opts.adaptive;

  while (out.iterations < opts.max_iterations) {
    // h-update: (G + I) h = Bᵀ(t − u_t) + (h̄ − u_h) − c/ρ.
    for (std::size_t col = 0; col < f; ++col) {
      h[col] = hbar[col] - uh[col] - slope * s.c[col] / rho;
    }
    for (std::size_t j = 0; j < nnz; ++j) {
      const std::size_t n = s.nodes[j];
      const real_t coef = t[n] - ut[n];
      const real_t* __restrict wj = w + j * f;
      for (std::size_t col = 0; col < f; ++col) {
        h[col] += coef * wj[col];
      }
    }
    chol.solve_inplace({h, f});

    detail::ResidualAccum acc;

    // t-update: elementwise loss prox at the fresh model values.
    for (std::size_t j = 0; j < nnz; ++j) {
      const std::size_t n = s.nodes[j];
      const real_t* __restrict wj = w + j * f;
      real_t m = 0;
      for (std::size_t col = 0; col < f; ++col) {
        m += wj[col] * h[col];
      }
      const real_t tn = loss.prox(xs[j], m + ut[n], rho);
      const real_t step = tn - t[n];
      acc.dual_num += step * step;
      t[n] = tn;
      const real_t diff = m - tn;
      ut[n] += diff;
      acc.primal_num += diff * diff;
      acc.primal_den += tn * tn;
      acc.dual_den += ut[n] * ut[n];
    }

    // h̄-update through the mode's constraint prox, then the h-split dual.
    for (std::size_t col = 0; col < f; ++col) {
      s.hbar_old[col] = hbar[col];
      hbar[col] = h[col] + uh[col];
    }
    prox.apply(h_mat, row, row + 1, rho);
    for (std::size_t col = 0; col < f; ++col) {
      const real_t diff = h[col] - hbar[col];
      uh[col] += diff;
      acc.primal_num += diff * diff;
      acc.primal_den += hbar[col] * hbar[col];
      const real_t step = hbar[col] - s.hbar_old[col];
      acc.dual_num += step * step;
      acc.dual_den += uh[col] * uh[col];
    }

    out.primal = acc.primal();
    out.dual = acc.dual();
    ++out.iterations;
    if (acc.converged(opts.tolerance)) {
      break;
    }

    // Residual-balancing adaptive rho: no refactor needed here, just the
    // penalty and the scaled duals of both splits.
    const real_t scale = ad.enabled && out.rebalances < kMaxRhoRebalances
                             ? detail::rebalance_scale(acc, ad)
                             : real_t{0};
    if (scale != 0) {
      rho *= scale;
      const real_t inv = real_t{1} / scale;
      for (std::size_t j = 0; j < nnz; ++j) {
        ut[s.nodes[j]] *= inv;
      }
      for (std::size_t col = 0; col < f; ++col) {
        uh[col] *= inv;
      }
      ++out.rebalances;
    }
  }
  return out;
}

}  // namespace

void LossWorkspace::reset(const CsfSet& csf) {
  modes.resize(csf.order());
  for (std::size_t m = 0; m < csf.order(); ++m) {
    const std::size_t nnz = csf.for_mode(m).vals().size();
    modes[m].t.assign(nnz, real_t{0});
    modes[m].u_t.assign(nnz, real_t{0});
    modes[m].warm = false;
  }
}

LossUpdateResult loss_mode_update(const CsfTensor& tree,
                                  std::vector<Matrix>& factors,
                                  Matrix& u_h, std::size_t mode,
                                  const Loss& loss, const ProxOperator& prox,
                                  const AdmmOptions& opts,
                                  cspan<const real_t> zero_fill_s,
                                  LossModeState& state) {
  AOADMM_CHECK(tree.level_mode(0) == mode);
  const std::size_t order = tree.order();
  const std::size_t f = factors[mode].cols();
  const auto root_fids = tree.fids(0);
  const auto nroots = static_cast<std::ptrdiff_t>(root_fids.size());
  Matrix& h = factors[mode];
  const real_t slope = zero_fill_s.empty() ? 0 : loss.zero_fill_slope();

  if (!state.warm) {
    const auto vals = tree.vals();
    for (std::size_t n = 0; n < vals.size(); ++n) {
      state.t[n] = vals[n];
      state.u_t[n] = 0;
    }
    state.warm = true;
  }

  LossUpdateResult result;
  // An exception may not leave a worksharing region. The first one (a row
  // system that is not positive definite, say) skips the remaining rows and
  // is rethrown after the region; the region's closing barrier publishes it.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    RowScratch scratch(f, order);
    LossUpdateResult local;
    using clock = std::chrono::steady_clock;
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 8) nowait
#endif
    for (std::ptrdiff_t r = 0; r < nroots; ++r) {
      if (failed.load(std::memory_order_relaxed)) {
        continue;
      }
      try {
        const auto rr = static_cast<std::size_t>(r);
        const clock::time_point a0 = clock::now();
        assemble_row(tree, factors, rr, zero_fill_s, scratch);
        local.assemble_seconds +=
            std::chrono::duration<double>(clock::now() - a0).count();
        const RowOutcome row = solve_row(h, u_h, root_fids[rr], loss, prox,
                                         opts, slope, state, scratch);
        local.iterations = std::max(local.iterations, row.iterations);
        local.row_iterations += row.iterations;
        local.primal_residual = std::max(local.primal_residual, row.primal);
        local.dual_residual = std::max(local.dual_residual, row.dual);
        local.rho_rebalances += row.rebalances;
        local.cholesky_attempts += row.cholesky_attempts;
        local.cholesky_jitter =
            std::max(local.cholesky_jitter, row.cholesky_jitter);
      } catch (...) {
        if (!failed.exchange(true)) {
          error = std::current_exception();
        }
      }
    }
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp critical(aoadmm_loss_mode_update)
#endif
    {
      result.iterations = std::max(result.iterations, local.iterations);
      result.row_iterations += local.row_iterations;
      result.primal_residual =
          std::max(result.primal_residual, local.primal_residual);
      result.dual_residual =
          std::max(result.dual_residual, local.dual_residual);
      result.rho_rebalances += local.rho_rebalances;
      // A sum and a max: the same whatever order the threads arrive in.
      result.cholesky_attempts += local.cholesky_attempts;
      result.cholesky_jitter =
          std::max(result.cholesky_jitter, local.cholesky_jitter);
      // Max over threads: the assembly phases overlap, so the busiest
      // thread's total is the wall-clock share assembly is responsible for.
      result.assemble_seconds =
          std::max(result.assemble_seconds, local.assemble_seconds);
    }
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return result;
}

LossObjective loss_objective(const CsfTensor& tree,
                             cspan<const Matrix> factors, const Loss& loss,
                             real_t value_norm_sq) {
  const std::size_t order = tree.order();
  const std::size_t f = factors[0].cols();
  const auto vals = tree.vals();
  // A static nnz-weighted root partition (cached on the tree) keeps every
  // thread's partial sums — and so the ordered merge below — identical
  // from run to run; a dynamic schedule would hand out roots by timing.
  const std::vector<std::size_t>& bounds =
      tree.root_partition(static_cast<std::size_t>(max_threads()));
  const std::size_t parts = bounds.size() - 1;

  double obj = 0;
  double resid_sq = 0;
  double observed_mass = 0;
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    std::vector<real_t> path(order * f);
    double local_obj = 0;
    double local_resid = 0;
    double local_mass = 0;
    const auto visit = [&](auto&& self, std::size_t level, offset_t node,
                           const real_t* partial) -> void {
      const Matrix& a = factors[tree.level_mode(level)];
      const real_t* row =
          a.data() + static_cast<std::size_t>(tree.fids(level)[node]) * f;
      if (level == order - 1) {
        real_t model = 0;
        for (std::size_t col = 0; col < f; ++col) {
          model += partial[col] * row[col];
        }
        const real_t x = vals[node];
        local_obj += static_cast<double>(loss.value(x, model));
        const real_t d = x - model;
        local_resid += static_cast<double>(d * d);
        local_mass += static_cast<double>(model);
        return;
      }
      real_t* buf = path.data() + level * f;
      for (std::size_t col = 0; col < f; ++col) {
        buf[col] = partial == nullptr ? row[col] : partial[col] * row[col];
      }
      const auto fptr = tree.fptr(level);
      for (offset_t child = fptr[node]; child < fptr[node + 1]; ++child) {
        self(self, level + 1, child, buf);
      }
    };
    const auto stride = static_cast<std::size_t>(team_size());
    for (auto c = static_cast<std::size_t>(thread_id()); c < parts;
         c += stride) {
      for (std::size_t r = bounds[c]; r < bounds[c + 1]; ++r) {
        visit(visit, 0, static_cast<offset_t>(r), nullptr);
      }
    }
    merge_in_thread_order([&] {
      obj += local_obj;
      resid_sq += local_resid;
      observed_mass += local_mass;
    });
  }

  // Zero-fill: an unmasked loss charges slope · m over every unobserved
  // cell. Σ_all m for a Kruskal model is Σ_f Π_n colsum_n[f].
  const real_t slope = loss.masked() ? real_t{0} : loss.zero_fill_slope();
  if (slope != 0) {
    std::vector<double> colsum_prod(f, 1.0);
    std::vector<double> colsum(f);
    for (std::size_t n = 0; n < factors.size(); ++n) {
      std::fill(colsum.begin(), colsum.end(), 0.0);
      const Matrix& a = factors[n];
      for (std::size_t i = 0; i < a.rows(); ++i) {
        const real_t* row = a.data() + i * f;
        for (std::size_t col = 0; col < f; ++col) {
          colsum[col] += static_cast<double>(row[col]);
        }
      }
      for (std::size_t col = 0; col < f; ++col) {
        colsum_prod[col] *= colsum[col];
      }
    }
    double total_mass = 0;
    for (std::size_t col = 0; col < f; ++col) {
      total_mass += colsum_prod[col];
    }
    obj += static_cast<double>(slope) * (total_mass - observed_mass);
  }

  LossObjective out;
  out.objective = obj;
  out.observed_relative_error =
      value_norm_sq > 0
          ? static_cast<real_t>(
                std::sqrt(resid_sq / static_cast<double>(value_norm_sq)))
          : static_cast<real_t>(std::sqrt(resid_sq));
  return out;
}

}  // namespace aoadmm
