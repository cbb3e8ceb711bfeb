#include "core/outer_loop.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/cpd_impl.hpp"
#include "obs/parallel_stats.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "obs/telemetry/trace_context.hpp"
#include "sparse/density.hpp"
#include "tensor/alto.hpp"
#include "testing/fault_injection.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace aoadmm {
namespace detail {

LoopMetrics LoopMetrics::shared() {
  auto& reg = obs::MetricsRegistry::global();
  LoopMetrics out;
  out.checkpoints_written = reg.counter("cpd/checkpoints_written");
  out.robust_mttkrp_retries = reg.counter("robust/mttkrp_retries");
  out.robust_checkpoint_write_failures =
      reg.counter("robust/checkpoint_write_failures");
  return out;
}

LoopMetrics LoopMetrics::family(const std::string& name) {
  auto& reg = obs::MetricsRegistry::global();
  LoopMetrics out = shared();
  out.runs = reg.counter(name + "/runs");
  out.outer_iterations = reg.counter(name + "/outer_iterations");
  out.mttkrp_calls = reg.counter(name + "/mttkrp_calls");
  out.iteration_seconds = reg.histogram(name + "/iteration_seconds");
  return out;
}

CpdResult OuterLoop::run(OuterLoopStep& step, unsigned start_outer,
                         double prev_measure, CpdResult result) const {
  const RobustnessOptions& rb = config_.admm.robustness;
  metrics_.runs.add(1);

  Timer wall;
  wall.start();
  Timer admm;
  double mttkrp_seconds = 0;
  // MTTKRP-equivalent time the updates reported from inside the ADMM span.
  double moved_seconds = 0;

  step.begin_run();
  const SolverState& state = step.state();
  const std::size_t order = state.factors.size();
  std::vector<double> mode_mttkrp_seconds(order, 0);

  for (unsigned outer = start_outer; outer <= config_.max_outer_iterations;
       ++outer) {
    AOADMM_PROFILE_SCOPE("cpd/outer");
    // Cooperative stop: one check per outer iteration, before any work, so
    // the factors are always the last completed iterate.
    if (config_.cancel && config_.cancel->should_stop()) {
      result.stop_reason = config_.cancel->cancelled()
                               ? StopReason::kCancelled
                               : StopReason::kDeadline;
      AOADMM_LOG_WARN << "outer " << outer << ": stopping ("
                      << to_string(result.stop_reason) << ")";
      break;
    }
    const double iter_start_seconds = wall.seconds();
    const obs::ParallelTotals parallel_before = obs::parallel_totals();
    const obs::ParallelTotals mttkrp_before = obs::mttkrp_totals();
    const double admm_seconds_before = admm.seconds() - moved_seconds;
    std::fill(mode_mttkrp_seconds.begin(), mode_mttkrp_seconds.end(), 0.0);
    std::uint64_t iter_inner_iterations = 0;
    real_t worst_primal = 0;
    real_t worst_dual = 0;
    real_t sum_primal = 0;
    real_t sum_dual = 0;

    step.begin_iteration();
    for (std::size_t m = 0; m < order; ++m) {
      AOADMM_PROFILE_SCOPE("cpd/mode");
      ModeSystem sys = step.produce_k(outer, m, false);
      double k_seconds = sys.mttkrp_seconds;
      if (sys.k != nullptr) {
        ++result.mttkrp_count;
        metrics_.mttkrp_calls.add(1);
        // A transient corruption (an injected fault, a flipped bit) does
        // not recur on recompute.
        if (rb.enabled && rb.check_finite && !all_finite(*sys.k)) {
          unsigned attempts = 0;
          while (attempts < rb.max_recoveries && !all_finite(*sys.k)) {
            ++attempts;
            sys = step.produce_k(outer, m, true);
            k_seconds += sys.mttkrp_seconds;
          }
          result.recovery.add({RecoveryKind::kMttkrpRetry, outer, m, attempts,
                               0, std::string(), {}});
          metrics_.robust_mttkrp_retries.add(1);
          AOADMM_LOG_WARN << "outer " << outer << " mode " << m
                          << ": non-finite MTTKRP output, recomputed ("
                          << attempts << " retries)";
          if (!all_finite(*sys.k)) {
            throw NumericalError(
                "MTTKRP output for mode " + std::to_string(m) +
                " is non-finite even after " + std::to_string(attempts) +
                " recomputes");
          }
        }
        if (sys.sparse) {
          ++result.sparse_mttkrp_count;
          metrics_.sparse_mttkrp_calls.add(1);
        }
      }

      admm.start();
      const ModeUpdateStats u = step.update(outer, m, result);
      admm.stop();
      moved_seconds += u.mttkrp_seconds;
      mode_mttkrp_seconds[m] = k_seconds + u.mttkrp_seconds;
      mttkrp_seconds += mode_mttkrp_seconds[m];
      iter_inner_iterations += u.inner_iterations;
      worst_primal = std::max(worst_primal, u.primal_residual);
      worst_dual = std::max(worst_dual, u.dual_residual);
      sum_primal += u.primal_residual;
      sum_dual += u.dual_residual;

      step.finish_mode(m);
    }

    LoopFit fit;
    {
      AOADMM_PROFILE_SCOPE("cpd/fit");
      fit = step.fit(outer, result);
    }
    result.outer_iterations = outer;
    if (config_.record_trace) {
      result.trace.add(outer, wall.seconds(), fit.error);
    }

    const double iter_seconds = wall.seconds() - iter_start_seconds;
    metrics_.outer_iterations.add(1);
    metrics_.iteration_seconds.observe(iter_seconds);

    if (config_.on_iteration) {
      obs::MetricsSnapshot snap;
      snap.outer_iteration = outer;
      snap.seconds = wall.seconds();
      snap.iteration_seconds = iter_seconds;
      snap.relative_error = fit.error;
      snap.mode_mttkrp_seconds = mode_mttkrp_seconds;
      snap.admm_seconds = admm.seconds() - moved_seconds - admm_seconds_before;
      snap.admm_inner_iterations = iter_inner_iterations;
      snap.worst_primal_residual = worst_primal;
      snap.mean_primal_residual = sum_primal / static_cast<real_t>(order);
      snap.worst_dual_residual = worst_dual;
      snap.mean_dual_residual = sum_dual / static_cast<real_t>(order);
      snap.thread_imbalance = obs::imbalance_since(parallel_before);
      snap.mttkrp_imbalance = obs::mttkrp_imbalance_since(mttkrp_before);
      const obs::ParallelTotals mttkrp_now = obs::mttkrp_totals();
      snap.mttkrp_max_busy_seconds =
          mttkrp_now.max_busy_seconds - mttkrp_before.max_busy_seconds;
      snap.mttkrp_mean_busy_seconds =
          mttkrp_now.mean_busy_seconds - mttkrp_before.mean_busy_seconds;
      snap.factor_density.reserve(order);
      for (const Matrix& a : state.factors) {
        snap.factor_density.push_back(measure_density(a).density);
      }
      snap.mttkrp_count = result.mttkrp_count;
      snap.sparse_mttkrp_count = result.sparse_mttkrp_count;
      step.fill_snapshot(snap);
      config_.on_iteration(snap);
    }

    const double scale =
        fit.relative ? std::max(1.0, std::abs(prev_measure)) : 1.0;
    const bool converged_now = outer > 1 && std::isfinite(prev_measure) &&
                               prev_measure - fit.measure <
                                   config_.tolerance * scale;
    prev_measure = fit.measure;

    if (!converged_now && config_.checkpoint_every > 0 &&
        outer % config_.checkpoint_every == 0) {
      AOADMM_PROFILE_SCOPE("cpd/checkpoint");
      CpdCheckpoint ck;
      for (const Matrix& a : state.factors) {
        ck.dims.push_back(static_cast<index_t>(a.rows()));
      }
      ck.rank = config_.rank;
      ck.seed = config_.seed;
      ck.rng_state = state.rng.state();
      ck.outer_iteration = outer;
      ck.prev_error = fit.error;
      ck.total_inner_iterations = result.total_inner_iterations;
      ck.total_row_iterations = result.total_row_iterations;
      ck.mttkrp_count = result.mttkrp_count;
      ck.sparse_mttkrp_count = result.sparse_mttkrp_count;
      ck.factors = state.factors;
      ck.duals = state.duals;
      ck.trace = result.trace;
      try {
        write_checkpoint_file(ck, config_.checkpoint_path);
        metrics_.checkpoints_written.add(1);
        obs::journal_event(
            obs::EventKind::kCheckpointWritten, obs::current_trace(),
            obs::EventJournal::Fields{}
                .num("outer_iteration", static_cast<std::uint64_t>(outer))
                .str("path", config_.checkpoint_path));
      } catch (const CheckpointError& e) {
        // The writer guarantees the previous checkpoint is untouched, so
        // under robustness a failed write is survivable: record it and
        // keep iterating. Without robustness, fail fast.
        if (!rb.enabled) {
          throw;
        }
        result.recovery.add({RecoveryKind::kCheckpointWriteFailure, outer, 0,
                             0, 0, e.what(), {}});
        metrics_.robust_checkpoint_write_failures.add(1);
        AOADMM_LOG_WARN << "outer " << outer
                        << ": checkpoint write failed (continuing): "
                        << e.what();
      }
    }

    if (converged_now) {
      result.converged = true;
      result.stop_reason = StopReason::kConverged;
      break;
    }
  }

  wall.stop();
  result.times.total_seconds = wall.seconds();
  result.times.mttkrp_seconds = mttkrp_seconds;
  result.times.admm_seconds = admm.seconds() - moved_seconds;
  result.times.other_seconds = result.times.total_seconds -
                               result.times.mttkrp_seconds -
                               result.times.admm_seconds;
  metrics_.mttkrp_seconds.add(result.times.mttkrp_seconds);
  metrics_.admm_seconds.add(result.times.admm_seconds);

  result.factors = state.factors;
  result.factor_density.clear();
  result.factor_density.reserve(order);
  for (const Matrix& a : result.factors) {
    result.factor_density.push_back(measure_density(a).density);
  }
  return result;
}

void SolverState::build_prox(const ModeConstraints& constraints) {
  prox.resize(ws.grams.size());  // the workspace holds one Gram per mode
  for (std::size_t m = 0; m < prox.size(); ++m) {
    prox[m] = make_prox(constraints.for_mode(m));
  }
}

void SolverState::zero_duals(cspan<index_t> dims, rank_t rank) {
  duals.resize(dims.size());
  for (std::size_t m = 0; m < dims.size(); ++m) {
    duals[m].resize(dims[m], rank);
  }
}

void QuadraticStep::begin_run() {
  AOADMM_PROFILE_SCOPE("cpd/gram");
  for (std::size_t m = 0; m < state_.factors.size(); ++m) {
    gram(state_.factors[m], state_.ws.grams[m]);
    state_.sparse_cache.invalidate(m);
  }
}

void QuadraticStep::gram_product(std::size_t m) {
  {
    AOADMM_PROFILE_SCOPE("cpd/gram_product");
    gram_product_excluding(state_.ws.grams, m, state_.ws.gram_prod);
  }
  testing::maybe_corrupt_gram(state_.ws.gram_prod);
}

ModeUpdateStats QuadraticStep::update(unsigned outer, std::size_t m,
                                      CpdResult& result) {
  CpdWorkspace& ws = state_.ws;
  return admm_mode_update(config_.variant, state_.factors[m], state_.duals[m],
                          ws.mttkrp_out, ws.gram_prod, *state_.prox[m],
                          config_.admm, ws.admm, outer, m, result);
}

void QuadraticStep::finish_mode(std::size_t m) {
  AOADMM_PROFILE_SCOPE("cpd/gram");
  gram(state_.factors[m], state_.ws.grams[m]);
  state_.sparse_cache.invalidate(m);
}

LoopFit QuadraticStep::fit(unsigned outer, CpdResult& result) {
  // Exact, reusing the final mode's MTTKRP output (see cpd_impl.hpp).
  CpdWorkspace& ws = state_.ws;
  const real_t err = fit_relative_error(x_norm_sq_, ws.mttkrp_out,
                                        state_.factors.back(), ws.grams,
                                        ws.fit_acc);
  result.relative_error = err;
  AOADMM_LOG_DEBUG << "outer " << outer << " relative_error " << err;
  return {err, err, false};
}

ModeSystem LocalStep::produce_k(unsigned outer, std::size_t m, bool retry) {
  (void)outer;
  CpdWorkspace& ws = state_.ws;
  std::vector<Matrix>& factors = state_.factors;
  if (!retry) {
    gram_product(m);
  }

  const CsfTensor& tree = csf_.for_mode(m);
  Timer kernel;
  bool used_sparse = false;
  // Compressed leaf factor: the leaf mode of this tree is the factor read
  // once per non-zero — the only one worth compressing (paper §IV.C).
  // Sparse-leaf kernels exist for root-mode trees only (ALLMODE); a one-tree
  // set serves non-root modes through the scatter kernels.
  if (config_.leaf_format != LeafFormat::kDense && tree.level_mode(0) == m) {
    const std::size_t leaf_mode = tree.level_mode(factors.size() - 1);
    SparseFactorCache::Mirror mirror;
    {
      AOADMM_PROFILE_SCOPE("cpd/sparse_mirror");
      mirror = state_.sparse_cache.refresh(leaf_mode, factors[leaf_mode],
                                           config_.leaf_format,
                                           config_.sparsity_threshold);
    }
    if (mirror.csr != nullptr) {
      const ScopedTimer t(kernel);
      mttkrp_csf_csr(tree, factors, *mirror.csr, ws.mttkrp_out);
      used_sparse = true;
    } else if (mirror.hybrid != nullptr) {
      const ScopedTimer t(kernel);
      mttkrp_csf_hybrid(tree, factors, *mirror.hybrid, ws.mttkrp_out);
      used_sparse = true;
    }
  }
  if (!used_sparse) {
    const ScopedTimer t(kernel);
    mttkrp_dispatch(tree, factors, m, ws.mttkrp_out, kernel_);
  }
  testing::maybe_inject_nan(ws.mttkrp_out);
  return {&ws.mttkrp_out, kernel.seconds(), used_sparse};
}

CpdResult resume_into(CpdCheckpoint& ck, cspan<index_t> dims, rank_t rank,
                      SolverState& state) {
  if (ck.dims != std::vector<index_t>(dims.begin(), dims.end())) {
    throw InvalidArgument("resume: checkpoint tensor shape does not match "
                          "this session's tensor");
  }
  if (ck.rank != rank) {
    throw InvalidArgument("resume: checkpoint rank " +
                          std::to_string(ck.rank) +
                          " does not match configured rank " +
                          std::to_string(rank));
  }
  state.factors = std::move(ck.factors);
  state.duals = std::move(ck.duals);
  state.rng.set_state(ck.rng_state);
  CpdResult result;
  result.total_inner_iterations = ck.total_inner_iterations;
  result.total_row_iterations = ck.total_row_iterations;
  result.mttkrp_count = ck.mttkrp_count;
  result.sparse_mttkrp_count = ck.sparse_mttkrp_count;
  result.trace = std::move(ck.trace);
  result.relative_error = ck.prev_error;
  result.outer_iterations = ck.outer_iteration;
  return result;
}

MttkrpKernel resolve_kernel(const CsfSet& csf, MttkrpKernel kernel,
                            LeafFormat leaf_format) {
  if (kernel == MttkrpKernel::kAllMode &&
      csf.strategy() != CsfStrategy::kAllMode) {
    throw InvalidArgument(
        "mttkrp_kernel=allmode but the CsfSet was compiled with the "
        "one-mode strategy; rebuild it with CsfStrategy::kAllMode");
  }
  if (kernel == MttkrpKernel::kOneTree &&
      csf.strategy() == CsfStrategy::kAllMode) {
    throw InvalidArgument(
        "mttkrp_kernel=onetree but the CsfSet holds one tree per mode; "
        "rebuild it with CsfStrategy::kOneMode to exercise the non-root "
        "kernels");
  }
  if (kernel == MttkrpKernel::kAlto &&
      csf.strategy() != CsfStrategy::kOneMode) {
    throw InvalidArgument(
        "mttkrp_kernel=alto linearizes the single shared tree; rebuild the "
        "CsfSet with CsfStrategy::kOneMode");
  }
  if (kernel == MttkrpKernel::kAlto && !alto_linearizable(csf.dims())) {
    throw InvalidArgument(
        "mttkrp_kernel=alto: mode index bits exceed the 64-bit linearized "
        "code; use onetree for this tensor");
  }
  return resolve_auto_kernel(kernel, csf.strategy(), /*tiled=*/false,
                             leaf_format == LeafFormat::kDense, csf.order(),
                             csf.dims(), csf.nnz());
}

void check_frobenius_config(const CpdConfig& config, std::size_t order,
                            const char* driver) {
  const ValidationReport report = config.validate(order);
  if (!report.ok()) {
    throw InvalidArgument("invalid CpdConfig:\n" + report.to_string());
  }
  if (config.loss.kind != LossKind::kFrobenius || config.loss.masked) {
    throw InvalidArgument(std::string(driver) +
                          ": the update solves the Frobenius normal "
                          "equations and supports only the default unmasked "
                          "frobenius loss (got " +
                          to_cli_string(config.loss) + ")");
  }
  if (config.checkpoint_every > 0) {
    throw InvalidArgument(std::string(driver) +
                          ": checkpoints are not supported (there is no "
                          "resume entry point); set checkpoint_every = 0");
  }
}

}  // namespace detail
}  // namespace aoadmm
