#include "dist/sharded_solver.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "core/cpd_impl.hpp"
#include "core/mode_update.hpp"
#include "mttkrp/mttkrp.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "obs/telemetry/trace_context.hpp"
#include "sparse/density.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/overflow.hpp"
#include "util/timer.hpp"

namespace aoadmm {

namespace {

struct DistMetrics {
  obs::Counter runs;
  obs::Counter outer_iterations;
  obs::Counter mttkrp_calls;
  obs::Counter checkpoints_written;
  obs::Counter robust_mttkrp_retries;
  obs::Counter robust_checkpoint_write_failures;
  obs::Gauge exchange_bytes;
  obs::Gauge exchange_messages;
  obs::Gauge shard_imbalance;
  obs::Gauge tile_loads;
  obs::Gauge tile_evictions;
  obs::Gauge tile_resident_bytes;
  obs::Histogram iteration_seconds;
  obs::Histogram shard_busy_seconds;

  static const DistMetrics& get() {
    static const DistMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      DistMetrics out;
      out.runs = reg.counter("dist/runs");
      out.outer_iterations = reg.counter("dist/outer_iterations");
      out.mttkrp_calls = reg.counter("dist/mttkrp_calls");
      out.checkpoints_written = reg.counter("cpd/checkpoints_written");
      out.robust_mttkrp_retries = reg.counter("robust/mttkrp_retries");
      out.robust_checkpoint_write_failures =
          reg.counter("robust/checkpoint_write_failures");
      out.exchange_bytes = reg.gauge("dist/exchange_bytes");
      out.exchange_messages = reg.gauge("dist/exchange_messages");
      out.shard_imbalance = reg.gauge("dist/shard_imbalance");
      out.tile_loads = reg.gauge("dist/tile_loads");
      out.tile_evictions = reg.gauge("dist/tile_evictions");
      out.tile_resident_bytes = reg.gauge("dist/tile_resident_bytes");
      out.iteration_seconds = reg.histogram("dist/iteration_seconds");
      out.shard_busy_seconds = reg.histogram("dist/shard_busy_seconds");
      return out;
    }();
    return m;
  }
};

/// Root selection for a tile tree: shortest local mode, ties to the lowest
/// id — the same rule CsfSet's kOneMode strategy applies globally, so a
/// 1x1x1 grid compiles the exact tree the unsharded solver would.
std::size_t tile_root(const CooTensor& tile) {
  std::size_t root = 0;
  for (std::size_t m = 1; m < tile.order(); ++m) {
    if (tile.dim(m) < tile.dim(root)) {
      root = m;
    }
  }
  return root;
}

}  // namespace

/// Per-shard worker state. The worker owns a local mirror of the factor
/// blocks its tile intersects; kFactor messages keep them current.
struct ShardedCpdSolver::Worker {
  std::size_t shard = 0;
  bool has_tile = false;  ///< false for empty cells (no tree was built)
  std::vector<Matrix> local_factors;  ///< per mode, rows(m) x rank
  Matrix out;                         ///< MTTKRP partial scratch
};

ShardedCpdSolver::ShardedCpdSolver(const CooTensor& coo, CpdConfig config)
    : config_(std::move(config)), ws_(coo.order()), rng_(config_.seed),
      mode_mttkrp_seconds_(coo.order(), 0) {
  const std::size_t order = coo.order();
  AOADMM_CHECK(order >= 2);

  validation_ = config_.validate(order);
  if (!validation_.ok()) {
    throw InvalidArgument("invalid CpdConfig:\n" + validation_.to_string());
  }
  if (!config_.shards.enabled()) {
    throw InvalidArgument(
        "ShardedCpdSolver needs shards configured (set shards.grid and/or "
        "shards.spill_dir); for unsharded solves use CpdSolver");
  }

  // A spill_dir with no grid means "out-of-core, single tile".
  std::vector<std::size_t> grid = config_.shards.grid;
  if (grid.empty()) {
    grid.assign(order, 1);
  }
  plan_ = make_shard_plan(coo, grid);
  const std::size_t shard_count = plan_.shard_count();

  // Same serial accumulation order as CsfSet's constructor, so a 1x1x1
  // grid reproduces the unsharded x_norm_sq bit for bit.
  x_norm_sq_ = 0;
  for (const real_t v : coo.values()) {
    x_norm_sq_ += v * v;
  }

  prox_.resize(order);
  for (std::size_t m = 0; m < order; ++m) {
    prox_[m] = make_prox(config_.constraints.for_mode(m));
  }

  const bool out_of_core = config_.shards.out_of_core();
  if (out_of_core) {
    store_ = std::make_unique<TileStore>(config_.shards.spill_dir,
                                         plan_.signature);
    const std::size_t budget = config_.shards.max_resident_bytes > 0
                                   ? config_.shards.max_resident_bytes
                                   : std::numeric_limits<std::size_t>::max();
    residency_ = std::make_unique<TileResidency>(*store_, budget);
  } else {
    tiles_.resize(shard_count);
  }

  // Compile (and in out-of-core mode spill) every non-empty tile. One tile
  // is materialized at a time, so peak construction memory in out-of-core
  // mode is the COO tensor plus the largest single tile.
  workers_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto w = std::make_unique<Worker>();
    w->shard = s;
    w->has_tile = plan_.shards[s].nnz > 0;
    w->local_factors.resize(order);
    if (w->has_tile) {
      const CooTensor tile_coo = extract_tile(coo, plan_, s);
      CsfTensor tree = CsfTensor::build_for_mode(tile_coo, tile_root(tile_coo));
      if (out_of_core) {
        store_->write_tile(s, tree);
      } else {
        tiles_[s] = std::make_shared<const CsfTensor>(std::move(tree));
      }
    }
    workers_.push_back(std::move(w));
  }

  exchange_ = std::make_unique<InProcExchange>(shard_count + 1);
  threads_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    threads_.emplace_back([this, s] { worker_main(s); });
  }
}

ShardedCpdSolver::~ShardedCpdSolver() { stop_workers(); }

void ShardedCpdSolver::stop_workers() {
  if (workers_stopped_) {
    return;
  }
  workers_stopped_ = true;
  for (std::size_t s = 0; s < threads_.size(); ++s) {
    Message stop;
    stop.kind = MsgKind::kStop;
    exchange_->send(s, std::move(stop));
  }
  for (std::thread& t : threads_) {
    t.join();
  }
}

TileResidency::Stats ShardedCpdSolver::residency_stats() const {
  return residency_ ? residency_->stats() : TileResidency::Stats{};
}

void ShardedCpdSolver::worker_main(std::size_t shard) {
  Worker& w = *workers_[shard];
  for (;;) {
    Message m = exchange_->recv(shard);
    if (m.kind == MsgKind::kStop) {
      return;
    }
    if (m.kind == MsgKind::kFactor) {
      const std::size_t rows = plan_.shards[shard].rows(m.mode);
      Matrix& f = w.local_factors[m.mode];
      if (f.rows() != rows || f.cols() != m.cols) {
        f.resize(rows, m.cols);
      }
      if (rows > 0) {
        std::memcpy(f.data(), m.payload.data(),
                    rows * m.cols * sizeof(real_t));
      }
      continue;
    }
    // kTask: this shard's MTTKRP partial for m.mode against the local
    // factor blocks. Workers never throw across the thread boundary — a
    // failure travels back as Message::error.
    Message reply;
    reply.kind = MsgKind::kPartial;
    reply.mode = m.mode;
    reply.shard = shard;
    reply.epoch = m.epoch;
    try {
      Timer busy;
      busy.start();
      if (w.has_tile) {
        std::shared_ptr<const CsfTensor> tile;
        if (residency_) {
          tile = residency_->acquire(shard);
        } else {
          tile = tiles_[shard];
        }
        // Every mode is served from the single tile tree (root or scatter
        // kernels) — the sharded equivalent of mttkrp_kernel=onetree.
        mttkrp_dispatch(*tile, w.local_factors, m.mode, w.out,
                        config_.mttkrp_schedule);
        if (residency_) {
          residency_->release(shard);
        }
        reply.rows = w.out.rows();
        reply.cols = w.out.cols();
        reply.payload.assign(w.out.data(),
                             w.out.data() + w.out.rows() * w.out.cols());
      }
      busy.stop();
      reply.busy_seconds = busy.seconds();
    } catch (const std::exception& e) {
      reply.error = e.what();
      reply.rows = 0;
      reply.cols = 0;
      reply.payload.clear();
    }
    exchange_->send(plan_.shard_count(), std::move(reply));
  }
}

void ShardedCpdSolver::broadcast_mode(std::size_t mode, std::uint64_t epoch) {
  const Matrix& f = factors_[mode];
  for (std::size_t s = 0; s < plan_.shard_count(); ++s) {
    const Shard& shard = plan_.shards[s];
    Message m;
    m.kind = MsgKind::kFactor;
    m.mode = mode;
    m.shard = s;
    m.epoch = epoch;
    m.rows = shard.rows(mode);
    m.cols = f.cols();
    if (m.rows > 0) {
      const real_t* begin = f.data() + shard.row_begin[mode] * f.cols();
      m.payload.assign(begin, begin + m.rows * f.cols());
    }
    exchange_->send(s, std::move(m));
  }
}

void ShardedCpdSolver::sweep_mode(std::size_t mode, std::uint64_t epoch,
                                  double& max_busy, double& sum_busy) {
  const std::size_t shard_count = plan_.shard_count();
  const DistMetrics& metrics = DistMetrics::get();
  for (std::size_t s = 0; s < shard_count; ++s) {
    Message task;
    task.kind = MsgKind::kTask;
    task.mode = mode;
    task.shard = s;
    task.epoch = epoch;
    exchange_->send(s, std::move(task));
  }

  // Collect all partials (completion order is nondeterministic), then
  // reduce in shard-id order — the fixed reduction order that makes
  // repeated runs bitwise identical.
  std::vector<Message> partials(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    Message p = exchange_->recv(shard_count);
    AOADMM_CHECK_MSG(p.kind == MsgKind::kPartial && p.epoch == epoch &&
                         p.mode == mode,
                     "unexpected message in shard reduction");
    const std::size_t from = p.shard;
    partials[from] = std::move(p);
  }

  Matrix& k = ws_.mttkrp_out;
  const std::size_t rows = plan_.dims[mode];
  const std::size_t cols = config_.rank;
  if (k.rows() != rows || k.cols() != cols) {
    k.resize(rows, cols);
  }
  k.zero();
  max_busy = 0;
  sum_busy = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const Message& p = partials[s];
    if (!p.error.empty()) {
      throw Error("shard " + std::to_string(s) + " failed on mode " +
                  std::to_string(mode) + ": " + p.error);
    }
    max_busy = std::max(max_busy, p.busy_seconds);
    sum_busy += p.busy_seconds;
    metrics.shard_busy_seconds.observe(p.busy_seconds);
    if (p.rows == 0) {
      continue;
    }
    AOADMM_CHECK_MSG(p.cols == cols &&
                         p.rows == plan_.shards[s].rows(mode) &&
                         p.payload.size() == p.rows * cols,
                     "shard partial has wrong shape");
    const index_t row0 = plan_.shards[s].row_begin[mode];
    for (std::size_t r = 0; r < p.rows; ++r) {
      real_t* __restrict dst = k.data() + (row0 + r) * cols;
      const real_t* __restrict src = p.payload.data() + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        dst[c] += src[c];
      }
    }
  }
}

CpdResult ShardedCpdSolver::solve() {
  rng_ = Rng(config_.seed);
  detail::init_factors_into(plan_.dims, config_.rank, rng_, x_norm_sq_,
                            factors_);
  duals_.resize(plan_.order());
  for (std::size_t m = 0; m < plan_.order(); ++m) {
    duals_[m].resize(plan_.dims[m], config_.rank);
  }
  return run(1, std::numeric_limits<real_t>::infinity(), CpdResult{});
}

CpdResult ShardedCpdSolver::resume(const std::string& checkpoint_path) {
  CpdCheckpoint ck = read_checkpoint_file(checkpoint_path);
  if (ck.dims != plan_.dims) {
    throw InvalidArgument("resume: checkpoint tensor shape does not match "
                          "this session's tensor");
  }
  if (ck.rank != config_.rank) {
    throw InvalidArgument("resume: checkpoint rank " +
                          std::to_string(ck.rank) +
                          " does not match configured rank " +
                          std::to_string(config_.rank));
  }
  factors_ = std::move(ck.factors);
  duals_ = std::move(ck.duals);
  rng_.set_state(ck.rng_state);

  CpdResult result;
  result.total_inner_iterations = ck.total_inner_iterations;
  result.total_row_iterations = ck.total_row_iterations;
  result.mttkrp_count = ck.mttkrp_count;
  result.sparse_mttkrp_count = ck.sparse_mttkrp_count;
  result.trace = std::move(ck.trace);
  result.relative_error = ck.prev_error;
  result.outer_iterations = ck.outer_iteration;
  return run(ck.outer_iteration + 1, ck.prev_error, std::move(result));
}

CpdResult ShardedCpdSolver::run(unsigned start_outer, real_t prev_error,
                                CpdResult result) {
  const std::size_t order = plan_.order();
  const CpdConfig& opts = config_;
  const RobustnessOptions& rb = opts.admm.robustness;
  const DistMetrics& metrics = DistMetrics::get();
  metrics.runs.add(1);

  Timer wall;
  wall.start();
  Timer admm_timer;
  double mttkrp_seconds = 0;

  {
    for (std::size_t m = 0; m < order; ++m) {
      gram(factors_[m], ws_.grams[m]);
    }
  }
  // Seed every worker's local factor mirrors with the starting iterate.
  for (std::size_t m = 0; m < order; ++m) {
    broadcast_mode(m, 0);
  }

  const ExchangeStats exchange_start = exchange_->stats();
  std::uint64_t epoch = 0;

  for (unsigned outer = start_outer; outer <= opts.max_outer_iterations;
       ++outer) {
    if (opts.cancel && opts.cancel->should_stop()) {
      result.stop_reason = opts.cancel->cancelled() ? StopReason::kCancelled
                                                    : StopReason::kDeadline;
      AOADMM_LOG_WARN << "outer " << outer << ": stopping ("
                      << to_string(result.stop_reason) << ")";
      break;
    }
    const double iter_start_seconds = wall.seconds();
    const double admm_seconds_before = admm_timer.seconds();
    const ExchangeStats exchange_before = exchange_->stats();
    std::fill(mode_mttkrp_seconds_.begin(), mode_mttkrp_seconds_.end(), 0.0);
    std::uint64_t iter_inner_iterations = 0;
    real_t worst_primal = 0;
    real_t worst_dual = 0;
    real_t sum_primal = 0;
    real_t sum_dual = 0;
    double iter_max_busy = 0;
    double iter_sum_busy = 0;

    for (std::size_t m = 0; m < order; ++m) {
      detail::gram_product_excluding(ws_.grams, m, ws_.gram_prod);

      ++result.mttkrp_count;
      metrics.mttkrp_calls.add(1);
      double max_busy = 0;
      double sum_busy = 0;
      sweep_mode(m, ++epoch, max_busy, sum_busy);
      if (rb.enabled && rb.check_finite && !all_finite(ws_.mttkrp_out)) {
        unsigned attempts = 0;
        while (attempts < rb.max_recoveries &&
               !all_finite(ws_.mttkrp_out)) {
          ++attempts;
          double rb_max = 0;
          double rb_sum = 0;
          sweep_mode(m, ++epoch, rb_max, rb_sum);
          max_busy += rb_max;
          sum_busy += rb_sum;
        }
        result.recovery.add({RecoveryKind::kMttkrpRetry, outer, m, attempts,
                             0, std::string(), {}});
        metrics.robust_mttkrp_retries.add(1);
        AOADMM_LOG_WARN << "outer " << outer << " mode " << m
                        << ": non-finite sharded MTTKRP, recomputed ("
                        << attempts << " retries)";
        if (!all_finite(ws_.mttkrp_out)) {
          throw NumericalError(
              "sharded MTTKRP for mode " + std::to_string(m) +
              " is non-finite even after " + std::to_string(attempts) +
              " recomputes");
        }
      }
      // The sweep's critical path is the slowest shard of each step.
      mode_mttkrp_seconds_[m] = max_busy;
      mttkrp_seconds += max_busy;
      iter_max_busy += max_busy;
      iter_sum_busy += sum_busy;

      {
        admm_timer.start();
        const detail::ModeUpdateStats ms = detail::admm_mode_update(
            opts.variant, factors_[m], duals_[m], ws_.mttkrp_out,
            ws_.gram_prod, *prox_[m], opts.admm, ws_.admm, outer, m, result);
        admm_timer.stop();
        iter_inner_iterations += ms.inner_iterations;
        worst_primal = std::max(worst_primal, ms.primal_residual);
        worst_dual = std::max(worst_dual, ms.dual_residual);
        sum_primal += ms.primal_residual;
        sum_dual += ms.dual_residual;
      }

      gram(factors_[m], ws_.grams[m]);
      broadcast_mode(m, epoch);
    }

    const real_t err = detail::fit_relative_error(
        x_norm_sq_, ws_.mttkrp_out, factors_[order - 1], ws_.grams,
        ws_.fit_acc);
    result.relative_error = err;
    result.outer_iterations = outer;
    if (opts.record_trace) {
      result.trace.add(outer, wall.seconds(), err);
    }
    AOADMM_LOG_DEBUG << "outer " << outer << " relative_error " << err;

    const double iter_seconds = wall.seconds() - iter_start_seconds;
    metrics.outer_iterations.add(1);
    metrics.iteration_seconds.observe(iter_seconds);

    // Shard imbalance over this iteration: 1 - mean/max of per-step worker
    // busy time, 0 = perfectly balanced (same shape as thread_imbalance).
    const double mean_busy =
        iter_sum_busy / static_cast<double>(plan_.shard_count() * order);
    const double shard_imbalance =
        iter_max_busy > 0
            ? 1.0 - mean_busy / (iter_max_busy / static_cast<double>(order))
            : 0.0;
    const ExchangeStats exchange_now = exchange_->stats();
    metrics.shard_imbalance.set(shard_imbalance);
    metrics.exchange_bytes.set(static_cast<double>(exchange_now.bytes));
    metrics.exchange_messages.set(static_cast<double>(exchange_now.messages));
    if (residency_) {
      const TileResidency::Stats rs = residency_->stats();
      metrics.tile_loads.set(static_cast<double>(rs.loads));
      metrics.tile_evictions.set(static_cast<double>(rs.evictions));
      metrics.tile_resident_bytes.set(static_cast<double>(rs.resident_bytes));
    }

    if (opts.on_iteration) {
      obs::MetricsSnapshot snap;
      snap.outer_iteration = outer;
      snap.seconds = wall.seconds();
      snap.iteration_seconds = iter_seconds;
      snap.relative_error = err;
      snap.mode_mttkrp_seconds = mode_mttkrp_seconds_;
      snap.admm_seconds = admm_timer.seconds() - admm_seconds_before;
      snap.admm_inner_iterations = iter_inner_iterations;
      snap.worst_primal_residual = worst_primal;
      snap.mean_primal_residual = sum_primal / static_cast<real_t>(order);
      snap.worst_dual_residual = worst_dual;
      snap.mean_dual_residual = sum_dual / static_cast<real_t>(order);
      snap.shard_imbalance = shard_imbalance;
      snap.exchange_bytes = exchange_now.bytes - exchange_before.bytes;
      snap.factor_density.reserve(order);
      for (std::size_t m = 0; m < order; ++m) {
        snap.factor_density.push_back(measure_density(factors_[m]).density);
      }
      snap.mttkrp_count = result.mttkrp_count;
      opts.on_iteration(snap);
    }

    const bool converged_now = prev_error - err < opts.tolerance && outer > 1;
    prev_error = err;

    if (!converged_now && config_.checkpoint_every > 0 &&
        outer % config_.checkpoint_every == 0) {
      CpdCheckpoint ck;
      ck.dims = plan_.dims;
      ck.rank = opts.rank;
      ck.seed = opts.seed;
      ck.rng_state = rng_.state();
      ck.outer_iteration = outer;
      ck.prev_error = prev_error;
      ck.total_inner_iterations = result.total_inner_iterations;
      ck.total_row_iterations = result.total_row_iterations;
      ck.mttkrp_count = result.mttkrp_count;
      ck.sparse_mttkrp_count = result.sparse_mttkrp_count;
      ck.factors = factors_;
      ck.duals = duals_;
      ck.trace = result.trace;
      try {
        write_checkpoint_file(ck, config_.checkpoint_path);
        metrics.checkpoints_written.add(1);
        obs::journal_event(
            obs::EventKind::kCheckpointWritten, obs::current_trace(),
            obs::EventJournal::Fields{}
                .num("outer_iteration", static_cast<std::uint64_t>(outer))
                .str("path", config_.checkpoint_path));
      } catch (const CheckpointError& e) {
        if (!rb.enabled) {
          throw;
        }
        result.recovery.add({RecoveryKind::kCheckpointWriteFailure, outer, 0,
                             0, 0, e.what(), {}});
        metrics.robust_checkpoint_write_failures.add(1);
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
  result.times.admm_seconds = admm_timer.seconds();
  result.times.other_seconds = result.times.total_seconds -
                               result.times.mttkrp_seconds -
                               result.times.admm_seconds;

  const ExchangeStats exchange_end = exchange_->stats();
  AOADMM_LOG_DEBUG << "sharded run exchanged "
                   << (exchange_end.bytes - exchange_start.bytes)
                   << " bytes in "
                   << (exchange_end.messages - exchange_start.messages)
                   << " messages across " << plan_.shard_count()
                   << " shards";

  result.factors = factors_;
  result.factor_density.clear();
  result.factor_density.reserve(order);
  for (std::size_t m = 0; m < order; ++m) {
    result.factor_density.push_back(measure_density(factors_[m]).density);
  }
  return result;
}

}  // namespace aoadmm
