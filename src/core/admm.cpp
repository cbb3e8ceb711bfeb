#include "core/admm.hpp"

#include <algorithm>
#include <chrono>

#include "core/admm_impl.hpp"
#include "la/cholesky.hpp"
#include "obs/parallel_stats.hpp"
#include "obs/profile.hpp"
#include "parallel/partition.hpp"
#include "parallel/runtime.hpp"
#include "util/error.hpp"

#if defined(AOADMM_HAVE_OPENMP)
#include <omp.h>
#endif

namespace aoadmm {

std::size_t auto_block_size(std::size_t rank,
                            std::size_t cache_bytes) noexcept {
  const std::size_t bytes_per_row = 5 * rank * sizeof(real_t);
  const std::size_t rows =
      bytes_per_row > 0 ? cache_bytes / bytes_per_row : std::size_t{512};
  return std::clamp<std::size_t>(rows, 8, 512);
}

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// What one attempt of a variant's inner loop hands back to the envelope.
struct Attempt {
  /// Global count for the baseline, the maximum over blocks for the
  /// blocked variant.
  unsigned iterations = 0;
  std::uint64_t row_iterations = 0;
  bool diverged = false;
  /// Final relative residuals (worst block for the blocked variant).
  real_t primal = 0;
  real_t dual = 0;
};

/// The guard-rail envelope both variants run inside. The constructor checks
/// the arguments, sets ρ = tr(G)/F (Algorithm 1, line 3) and snapshots the
/// entry iterate when robustness is on. run() factors G + ρI (guarded when
/// robustness is on) and runs the variant's inner loop under the divergence
/// policy: a blow-up restarts the loop from the entry iterate with ρ scaled
/// by rho_rescale and zeroed duals, at most max_recoveries times, and then
/// abandons the solve with the entry iterate restored. A restart is global —
/// one block blowing up restarts every block — because the blocks share
/// G + ρI and the outer AO step consumes the whole factor.
class Envelope {
 public:
  Envelope(Matrix& h, Matrix& u, const Matrix& k, const Matrix& g,
           const AdmmOptions& opts, AdmmScratch& scratch)
      : h_(h), u_(u), g_(g), opts_(opts), scratch_(scratch) {
    const std::size_t rows = h.rows();
    const std::size_t f = h.cols();
    AOADMM_CHECK(u.rows() == rows && u.cols() == f);
    AOADMM_CHECK(k.rows() == rows && k.cols() == f);
    AOADMM_CHECK(g.rows() == f && g.cols() == f);
    AOADMM_CHECK_MSG(opts.relaxation > 0 && opts.relaxation < 2,
                     "relaxation must lie in (0, 2)");
    scratch.ensure(rows, f);
    rho_ = detail::admm_penalty(g);
    if (opts.robustness.enabled) {
      // The copy reuses h_entry's capacity after the first call, so the
      // steady state stays allocation-free.
      scratch.h_entry = h;
    }
  }

  real_t rho() const noexcept { return rho_; }

  /// Residual-balancing adaptive ρ between iterations (sweeps) that did not
  /// converge: when `acc`'s residuals drifted more than `ratio` apart,
  /// rescale ρ and the duals and refactor the system (it depends on ρ).
  /// Returns whether ρ changed.
  bool rebalance(const detail::ResidualAccum& acc) {
    const AdaptiveRhoOptions& ad = opts_.adaptive;
    if (!ad.enabled || result_.rho_rebalances >= kMaxRhoRebalances) {
      return false;
    }
    const real_t scale = detail::rebalance_scale(acc, ad);
    if (scale == 0) {
      return false;
    }
    rho_ *= scale;
    detail::rescale_duals(u_, scale);
    factor();
    ++result_.rho_rebalances;
    return true;
  }

  /// `inner_loop()` runs one attempt against rho() and the factorization in
  /// the scratch, and returns its Attempt.
  template <typename InnerLoop>
  AdmmResult run(InnerLoop&& inner_loop) {
    const RobustnessOptions& rb = opts_.robustness;
    Attempt last;
    for (;;) {
      factor();
      last = inner_loop();
      result_.iterations += last.iterations;
      result_.row_iterations += last.row_iterations;
      if (!last.diverged) {
        break;
      }
      if (result_.restarts >= rb.max_recoveries) {
        // Out of retries: roll the primal back to the entry iterate and
        // reset the duals so the caller keeps a sane (if stale) factor.
        h_ = scratch_.h_entry;
        u_.zero();
        last = Attempt{};
        result_.abandoned = true;
        break;
      }
      ++result_.restarts;
      rho_ *= rb.rho_rescale;
      h_ = scratch_.h_entry;
      u_.zero();
    }
    result_.rho = rho_;
    result_.primal_residual = last.primal;
    result_.dual_residual = last.dual;
    return result_;
  }

 private:
  void factor() {
    detail::regularized_gram_into(g_, rho_, scratch_.sys);
    const RobustnessOptions& rb = opts_.robustness;
    if (!rb.enabled) {
      scratch_.chol.factor(scratch_.sys);
      return;
    }
    const CholeskyReport cr = scratch_.chol.factor_guarded(
        scratch_.sys, {rb.cholesky_max_attempts, rb.cholesky_initial_jitter,
                       rb.cholesky_jitter_growth});
    result_.cholesky_attempts += cr.attempts;
    result_.cholesky_jitter = std::max(result_.cholesky_jitter, cr.jitter);
  }

  Matrix& h_;
  Matrix& u_;
  const Matrix& g_;
  const AdmmOptions& opts_;
  AdmmScratch& scratch_;
  real_t rho_ = 0;
  AdmmResult result_;
};

}  // namespace

AdmmResult admm_update(Matrix& h, Matrix& u, const Matrix& k, const Matrix& g,
                       const ProxOperator& prox, const AdmmOptions& opts,
                       AdmmScratch& scratch) {
  AOADMM_PROFILE_SCOPE("admm/base");
  Envelope env(h, u, k, g, opts, scratch);
  const std::size_t rows = h.rows();
  Matrix& aux = scratch.aux;
  Matrix& h_old = scratch.h_old;
  const RobustnessOptions& rb = opts.robustness;

  return env.run([&] {
    Attempt out;
    detail::DivergenceMonitor monitor;
    detail::ResidualAccum acc;
    for (unsigned iter = 0; iter < opts.max_iterations; ++iter) {
      acc = detail::ResidualAccum{};
      const real_t rho = env.rho();
      const Cholesky& chol = scratch.chol;

      // Each kernel runs over a static row partition with a barrier after
      // it — the §IV.A baseline decomposition. The partition is explicit
      // (rather than `omp for`) so each thread can time its own work,
      // excluding barrier waits, for the busy-time imbalance report.
#if defined(AOADMM_HAVE_OPENMP)
      obs::BusyTimes busy(max_threads());
#pragma omp parallel
      {
        const int nt = omp_get_num_threads();
        const std::size_t chunk = (rows + static_cast<std::size_t>(nt) - 1) /
                                  static_cast<std::size_t>(nt);
        const std::size_t lo =
            std::min(rows, chunk * static_cast<std::size_t>(thread_id()));
        const std::size_t hi = std::min(rows, lo + chunk);

        double busy_seconds = 0;
        const auto timed = [&busy_seconds](const auto& work) {
          const auto t0 = clock::now();
          work();
          busy_seconds += seconds_since(t0);
        };

        detail::ResidualAccum local;
        timed([&] {
          detail::admm_solve_rows(h, u, k, rho, chol, aux, lo, hi);
        });
#pragma omp barrier
        timed([&] {
          detail::admm_primal_prep_rows(h, u, aux, h_old, opts.relaxation, lo,
                                        hi);
        });
#pragma omp barrier
        timed([&] { prox.apply(h, lo, hi, rho); });
#pragma omp barrier
        timed([&] {
          local.merge(detail::admm_dual_rows(h, u, aux, h_old, lo, hi));
        });
        busy.add(thread_id(), busy_seconds);
        merge_in_thread_order([&] { acc.merge(local); });
      }
#else
      obs::BusyTimes busy(1);
      const auto t0 = clock::now();
      detail::admm_solve_rows(h, u, k, rho, chol, aux, 0, rows);
      detail::admm_primal_prep_rows(h, u, aux, h_old, opts.relaxation, 0, rows);
      prox.apply(h, 0, rows, rho);
      acc = detail::admm_dual_rows(h, u, aux, h_old, 0, rows);
      busy.add(0, seconds_since(t0));
#endif

      ++out.iterations;
      out.row_iterations += rows;
      if (rb.enabled && monitor.diverged(acc, rb.divergence_factor)) {
        out.diverged = true;
        return out;
      }
      if (acc.converged(opts.tolerance)) {
        break;
      }
      env.rebalance(acc);
    }
    out.primal = acc.primal();
    out.dual = acc.dual();
    return out;
  });
}

AdmmResult admm_update_blocked(Matrix& h, Matrix& u, const Matrix& k,
                               const Matrix& g, const ProxOperator& prox,
                               const AdmmOptions& opts, AdmmScratch& scratch) {
  AOADMM_PROFILE_SCOPE("admm/blocked");
  using Block = AdmmScratch::Block;
  Envelope env(h, u, k, g, opts, scratch);
  const std::size_t rows = h.rows();
  const std::size_t block_size =
      opts.block_size > 0 ? opts.block_size : auto_block_size(h.cols());
  const std::size_t nblocks = num_blocks(rows, block_size);
  if (scratch.blocks.size() < nblocks) {
    scratch.blocks.resize(nblocks);
  }
  Block* const blocks = scratch.blocks.data();
  Matrix& aux = scratch.aux;
  Matrix& h_old = scratch.h_old;
  const RobustnessOptions& rb = opts.robustness;

  // Without adaptive ρ, one sweep runs every block to its own convergence
  // and no barrier between blocks ever happens (§IV.B). Rebalancing needs
  // the global residual picture and a refactored shared system, so with
  // adaptive ρ on every unfinished block advances one iteration per sweep
  // and ρ is rebalanced on the merged residuals between sweeps.
  const unsigned sweep = opts.adaptive.enabled ? 1 : opts.max_iterations;
  const auto pending = [&](std::size_t b) {
    return blocks[b].state == Block::kRunning &&
           blocks[b].iterations < opts.max_iterations;
  };

  /// Advance block b by one sweep within its iteration budget. Its
  /// primal/dual/aux rows stay cache-resident throughout, and it watches
  /// its own residuals for blow-up.
  const auto run_block = [&](std::size_t b, real_t rho) {
    AOADMM_PROFILE_SCOPE("admm/blocked/block");
    Block& blk = blocks[b];
    const auto [lo, hi] = block_range(rows, block_size, b);
    const unsigned budget =
        std::min(sweep, opts.max_iterations - blk.iterations);
    detail::DivergenceMonitor monitor;
    detail::ResidualAccum acc;
    unsigned ran = 0;
    while (ran < budget) {
      detail::admm_solve_rows(h, u, k, rho, scratch.chol, aux, lo, hi);
      detail::admm_primal_prep_rows(h, u, aux, h_old, opts.relaxation, lo,
                                    hi);
      prox.apply(h, lo, hi, rho);
      acc = detail::admm_dual_rows(h, u, aux, h_old, lo, hi);
      ++ran;
      if (rb.enabled && monitor.diverged(acc, rb.divergence_factor)) {
        blk.state = Block::kDiverged;
        break;
      }
      if (acc.converged(opts.tolerance)) {
        blk.state = Block::kConverged;
        break;
      }
    }
    blk.iterations += ran;
    blk.acc = acc;
  };

  obs::BusyTimes busy(max_threads());
  return env.run([&] {
    std::fill_n(blocks, nblocks, Block{});
    for (;;) {
      const real_t rho = env.rho();
      // Blocks are equal-sized but converge after different iteration
      // counts, so they are dynamically scheduled (§IV.B). Each thread
      // accumulates its own busy time for the imbalance report.
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
      {
        double busy_seconds = 0;
#pragma omp for schedule(dynamic, 1) nowait
        for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nblocks);
             ++b) {
          const auto bb = static_cast<std::size_t>(b);
          if (!pending(bb)) {
            continue;
          }
          const auto t0 = clock::now();
          run_block(bb, rho);
          busy_seconds += seconds_since(t0);
        }
        busy.add(thread_id(), busy_seconds);
      }
#else
      const auto t0 = clock::now();
      for (std::size_t b = 0; b < nblocks; ++b) {
        if (pending(b)) {
          run_block(b, rho);
        }
      }
      busy.add(0, seconds_since(t0));
#endif

      // One serial pass in block order: the attempt's totals so far, the
      // done-scan, and the global residual a rebalance judges.
      Attempt out;
      bool open = false;
      detail::ResidualAccum global;
      for (std::size_t b = 0; b < nblocks; ++b) {
        const Block& blk = blocks[b];
        const auto [lo, hi] = block_range(rows, block_size, b);
        out.iterations = std::max(out.iterations, blk.iterations);
        out.row_iterations +=
            static_cast<std::uint64_t>(blk.iterations) * (hi - lo);
        out.diverged = out.diverged || blk.state == Block::kDiverged;
        out.primal = std::max(out.primal, blk.acc.primal());
        out.dual = std::max(out.dual, blk.acc.dual());
        open = open || pending(b);
        global.merge(blk.acc);
      }
      if (out.diverged || !open) {
        return out;
      }
      if (env.rebalance(global)) {
        // Convergence verdicts were issued under the old ρ; blocks with
        // budget left re-check under the new one.
        for (std::size_t b = 0; b < nblocks; ++b) {
          blocks[b].state = Block::kRunning;
        }
      }
    }
  });
}

}  // namespace aoadmm
