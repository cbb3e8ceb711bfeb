#include "dist/sharded_solver.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "core/cpd_impl.hpp"
#include "core/outer_loop.hpp"
#include "mttkrp/mttkrp.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/overflow.hpp"
#include "util/timer.hpp"

namespace aoadmm {

namespace {

struct DistMetrics {
  detail::LoopMetrics loop;
  obs::Gauge exchange_bytes;
  obs::Gauge exchange_messages;
  obs::Gauge shard_imbalance;
  obs::Gauge tile_loads;
  obs::Gauge tile_evictions;
  obs::Gauge tile_resident_bytes;
  obs::Histogram shard_busy_seconds;

  static const DistMetrics& get() {
    static const DistMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      DistMetrics out;
      out.loop = detail::LoopMetrics::family("dist");
      out.exchange_bytes = reg.gauge("dist/exchange_bytes");
      out.exchange_messages = reg.gauge("dist/exchange_messages");
      out.shard_imbalance = reg.gauge("dist/shard_imbalance");
      out.tile_loads = reg.gauge("dist/tile_loads");
      out.tile_evictions = reg.gauge("dist/tile_evictions");
      out.tile_resident_bytes = reg.gauge("dist/tile_resident_bytes");
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
    : config_(std::move(config)), state_(coo.order()) {
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

  state_.build_prox(config_.constraints);
  state_.rng = Rng(config_.seed);

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
        mttkrp_dispatch(*tile, w.local_factors, m.mode, w.out);
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
  const Matrix& f = state_.factors[mode];
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

  Matrix& k = state_.ws.mttkrp_out;
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
  state_.rng = Rng(config_.seed);
  detail::init_factors_into(plan_.dims, config_.rank, state_.rng, x_norm_sq_,
                            state_.factors);
  state_.zero_duals(plan_.dims, config_.rank);
  return run(1, std::numeric_limits<real_t>::infinity(), CpdResult{});
}

CpdResult ShardedCpdSolver::resume(const std::string& checkpoint_path) {
  CpdCheckpoint ck = read_checkpoint_file(checkpoint_path);
  CpdResult result = detail::resume_into(ck, plan_.dims, config_.rank, state_);
  return run(ck.outer_iteration + 1, ck.prev_error, std::move(result));
}

/// The sharded step: K is the shard-order reduction of every worker's
/// partial, the update is the unsharded solver's admm_mode_update, and each
/// updated factor is broadcast back to the shards that read it.
class ShardedCpdSolver::Step final : public detail::QuadraticStep {
 public:
  explicit Step(ShardedCpdSolver& s)
      : QuadraticStep(s.config_, s.x_norm_sq_, s.state_), s_(s) {}

  void begin_run() override {
    QuadraticStep::begin_run();
    // Seed every worker's local factor mirrors with the starting iterate.
    for (std::size_t m = 0; m < state_.factors.size(); ++m) {
      s_.broadcast_mode(m, 0);
    }
  }

  void begin_iteration() override {
    exchange_before_ = s_.exchange_->stats();
    iter_max_busy_ = 0;
    iter_sum_busy_ = 0;
  }

  detail::ModeSystem produce_k(unsigned outer, std::size_t m,
                               bool retry) override {
    (void)outer;
    if (!retry) {
      gram_product(m);
    }
    double max_busy = 0;
    double sum_busy = 0;
    s_.sweep_mode(m, ++epoch_, max_busy, sum_busy);
    iter_max_busy_ += max_busy;
    iter_sum_busy_ += sum_busy;
    // The sweep's critical path is the slowest shard of each step.
    return {&state_.ws.mttkrp_out, max_busy, false};
  }

  void finish_mode(std::size_t m) override {
    QuadraticStep::finish_mode(m);
    s_.broadcast_mode(m, epoch_);
  }

  detail::LoopFit fit(unsigned outer, CpdResult& result) override {
    const detail::LoopFit fit = QuadraticStep::fit(outer, result);
    // Shard imbalance over this iteration: 1 - mean/max of per-step worker
    // busy time, 0 = perfectly balanced (same shape as thread_imbalance).
    const auto order = static_cast<double>(state_.factors.size());
    const double mean_busy =
        iter_sum_busy_ /
        (static_cast<double>(s_.plan_.shard_count()) * order);
    shard_imbalance_ = iter_max_busy_ > 0
                           ? 1.0 - mean_busy / (iter_max_busy_ / order)
                           : 0.0;
    exchange_now_ = s_.exchange_->stats();
    const DistMetrics& metrics = DistMetrics::get();
    metrics.shard_imbalance.set(shard_imbalance_);
    metrics.exchange_bytes.set(static_cast<double>(exchange_now_.bytes));
    metrics.exchange_messages.set(
        static_cast<double>(exchange_now_.messages));
    if (s_.residency_) {
      const TileResidency::Stats rs = s_.residency_->stats();
      metrics.tile_loads.set(static_cast<double>(rs.loads));
      metrics.tile_evictions.set(static_cast<double>(rs.evictions));
      metrics.tile_resident_bytes.set(static_cast<double>(rs.resident_bytes));
    }
    return fit;
  }

  void fill_snapshot(obs::MetricsSnapshot& snap) const override {
    snap.shard_imbalance = shard_imbalance_;
    snap.exchange_bytes = exchange_now_.bytes - exchange_before_.bytes;
  }

 private:
  ShardedCpdSolver& s_;
  std::uint64_t epoch_ = 0;
  ExchangeStats exchange_before_;
  ExchangeStats exchange_now_;
  double iter_max_busy_ = 0;
  double iter_sum_busy_ = 0;
  double shard_imbalance_ = 0;
};

CpdResult ShardedCpdSolver::run(unsigned start_outer, real_t prev_error,
                                CpdResult result) {
  Step step(*this);
  return detail::OuterLoop(config_, DistMetrics::get().loop)
      .run(step, start_outer, prev_error, std::move(result));
}

}  // namespace aoadmm
