#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "core/cpd_impl.hpp"
#include "core/kruskal.hpp"
#include "core/solver.hpp"
#include "dist/sharded_solver.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"
#include "parallel/runtime.hpp"
#include "stream/replay.hpp"
#include "stream/streaming_solver.hpp"
#include "tensor/synthetic.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

using namespace aoadmm;

/// Solver seed of every workload.
constexpr std::uint64_t kSolverSeed = 123;
/// Set-ups per setup_s sample set (one in smoke mode).
constexpr unsigned kSetupReps = 3;
/// Timed solves always run at least this often, even past --seconds.
constexpr unsigned kMinReps = 3;
/// Every workload's tensor has order 3.
constexpr std::size_t kOrder = 3;
const std::array<const char*, kOrder> kModeMttkrp = {
    "mttkrp.mode0_s", "mttkrp.mode1_s", "mttkrp.mode2_s"};

/// The configuration every workload solves with: rank 16, non-negative
/// factors, blocked ADMM with 5 inner iterations at inner tolerance 1e-2,
/// outer tolerance 1e-4.
CpdConfig workload_config(unsigned max_outer) {
  AdmmOptions admm;
  admm.max_iterations = 5;
  admm.tolerance = 1e-2;
  ConstraintSpec nonneg;
  nonneg.kind = ConstraintKind::kNonNegative;
  return CpdConfig()
      .with_rank(16)
      .with_max_outer(max_outer)
      .with_tolerance(1e-4)
      .with_admm(admm)
      .with_variant(AdmmVariant::kBlocked)
      .with_constraints(ModeConstraints::broadcast(nonneg))
      .with_seed(kSolverSeed);
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

unsigned setup_reps(const Options& o) { return o.smoke ? 1 : kSetupReps; }

/// Run `body` at least kMinReps times and then until `budget_s` seconds
/// have passed; once in smoke mode.
template <class F>
void repeat_for(const Options& o, double budget_s, F&& body) {
  const auto t0 = Clock::now();
  for (unsigned reps = 0; (!o.smoke || reps < 1) &&
                          (reps < kMinReps || seconds_since(t0) < budget_s);
       ++reps) {
    body();
  }
}

template <class F>
double timed(F&& body) {
  const auto t0 = Clock::now();
  body();
  return seconds_since(t0);
}

/// ‖X − M‖/‖X‖ recomputed without the solver: a serial pass over the COO
/// for ⟨X, M⟩ and ‖X‖², and ‖M‖² from the factors' Gram matrices.
double independent_error(const CooTensor& x, const std::vector<Matrix>& f) {
  double x_sq = 0;
  double inner = 0;
  for (offset_t n = 0; n < x.nnz(); ++n) {
    const double v = x.value(n);
    x_sq += v * v;
    inner += v * kruskal_value_at(f, {}, x, n);
  }
  const std::size_t rank = f[0].cols();
  Matrix acc(rank, rank);
  acc.fill(1);
  Matrix g;
  for (const Matrix& a : f) {
    gram(a, g);
    hadamard_inplace(acc, g);
  }
  const double resid_sq = std::max(0.0, x_sq - 2 * inner + sum_all(acc));
  return std::sqrt(resid_sq / x_sq);
}

bool nonnegative(const std::vector<Matrix>& f) {
  for (const Matrix& a : f) {
    for (const real_t v : a.flat()) {
      if (!(v >= 0) || !std::isfinite(v)) {
        return false;
      }
    }
  }
  return true;
}

/// The gates every returned model passes: (optionally) converged, every
/// factor entry finite and >= 0, and the reported error matching the
/// independent recomputation within 1e-9 relative.
void check_model(const CooTensor& x, const std::vector<Matrix>& factors,
                 real_t reported_error, bool converged_required,
                 StopReason stop, const std::string& what, Checks& checks) {
  std::ostringstream why;
  if (converged_required && stop != StopReason::kConverged) {
    why << " stop_reason=" << to_string(stop);
  }
  if (!nonnegative(factors)) {
    why << " negative-or-non-finite-factor-entry";
  }
  const double e = independent_error(x, factors);
  if (!(std::abs(e - reported_error) <= 1e-9 * std::abs(reported_error))) {
    why.precision(17);
    why << " reported_error=" << reported_error << " recomputed=" << e;
  }
  checks.expect(why.str().empty(), what + ":" + why.str());
}

void check_solve(const CooTensor& x, const CpdResult& r,
                 const std::string& what, Checks& checks) {
  check_model(x, r.factors, r.relative_error, true, r.stop_reason, what,
              checks);
}

/// Per-solve samples of each metric; reported as their medians.
class Samples {
 public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  void report(Metrics& m, const std::string& name,
              const std::string& unit) const {
    const auto it = s_.find(name);
    m[name] = {it == s_.end() ? 0.0 : median(it->second), unit};
  }
  double median_of(const std::string& name) const {
    const auto it = s_.find(name);
    return it == s_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> s_;
};

struct NamedUnit {
  const char* name;
  const char* unit;
};

/// Layer metrics that exist only on some workloads' paths. A workload that
/// does not exercise the layer reports them as 0 (see README.md); none of
/// them is a time, so a 0 never poses as a measurement.
void not_on_this_path(Metrics& m, std::initializer_list<NamedUnit> names) {
  for (const NamedUnit& n : names) {
    m[n.name] = {0, n.unit};
  }
}

const std::initializer_list<NamedUnit> kStreamOnly = {
    {"stream.apply_frac", "ratio"},
    {"stream.compile_frac", "ratio"},
    {"stream.rebuilds_per_batch", "ratio"},
    {"stream.evicted_per_batch", "count"}};
const std::initializer_list<NamedUnit> kDistOnly = {
    {"dist.exchange_mb_per_iter", "MB"},
    {"dist.exchange_msgs_per_iter", "count"},
    {"dist.tile_loads_per_iter", "count"},
    {"dist.tile_hit_ratio", "ratio"},
    {"dist.tile_evictions_per_iter", "count"},
    {"dist.tile_load_mb_per_s", "MB/s"}};

/// Computed MTTKRP flops per call, from the COO definition: per non-zero and
/// column, N−2 multiplies form the Hadamard product of the other N−1 factor
/// rows, one multiplies by the value and one adds into K — N·F per non-zero.
double mttkrp_flops(std::size_t order, offset_t nnz, rank_t rank) {
  return static_cast<double>(order) * static_cast<double>(rank) *
         static_cast<double>(nnz);
}

void report_mttkrp_rate(Metrics& m, const Samples& s, offset_t nnz,
                        rank_t rank) {
  const double seconds = s.median_of("mttkrp.s");
  const double flops =
      s.median_of("mttkrp.calls") * mttkrp_flops(kOrder, nnz, rank);
  m["mttkrp.gflops"] = {seconds > 0 ? flops / seconds / 1e9 : 0, "GFLOP/s"};
}

/// Gram, fit and initialization cost of one solve. The solvers do not
/// report them apart from their other bookkeeping, so each call is timed
/// here on the final factors (same shapes, same thread count as inside the
/// solve) and scaled by the number of calls a solve of `iters` outer
/// iterations makes — order·(iters+1) Grams, order·iters Gram products,
/// iters fits, one initialization.
struct Unreported {
  double gram_s = 0;
  double fit_s = 0;
  double init_s = 0;
};
Unreported replay_unreported(const std::vector<Matrix>& factors,
                             double iters) {
  const std::size_t order = factors.size();
  const rank_t rank = factors[0].cols();
  std::vector<index_t> dims;
  for (const Matrix& a : factors) {
    dims.push_back(static_cast<index_t>(a.rows()));
  }
  std::vector<Matrix> grams(order);
  std::vector<Matrix> init;
  Matrix prod;
  Matrix acc;
  const Matrix k(factors[order - 1].rows(), rank);
  constexpr int kReps = 5;
  double gram_s = 0;
  double product_s = 0;
  double fit_s = 0;
  double init_s = 0;
  volatile real_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    init_s += timed([&] {
      Rng rng(kSolverSeed);
      detail::init_factors_into(dims, rank, rng, 1, init);
    });
    gram_s += timed([&] {
      for (std::size_t m = 0; m < order; ++m) {
        gram(factors[m], grams[m]);
      }
    });
    product_s += timed([&] {
      for (std::size_t m = 0; m < order; ++m) {
        detail::gram_product_excluding(grams, m, prod);
      }
    });
    fit_s += timed([&] {
      sink = detail::fit_relative_error(1, k, factors[order - 1], grams, acc);
    });
  }
  return {(gram_s * (iters + 1) + product_s * iters) / kReps,
          fit_s * iters / kReps, init_s / kReps};
}

/// The traced pass's view into a solve: the library's per-iteration
/// snapshot callback, which reports per-mode MTTKRP and ADMM seconds, inner
/// iterations and when each outer iteration ran on the solver's clock.
class SnapshotProbe {
 public:
  SnapshotProbe() = default;
  // The callback holds this object's address.
  SnapshotProbe(const SnapshotProbe&) = delete;
  SnapshotProbe& operator=(const SnapshotProbe&) = delete;

  /// `cfg` with the callback set; the solvers built from it must not solve
  /// after this probe is gone. Untraced solvers run without it, as
  /// assembling the snapshots has a cost of its own.
  CpdConfig attach(CpdConfig cfg) {
    cfg.on_iteration = [this](const obs::MetricsSnapshot& snap) {
      for (std::size_t i = 0; i < kOrder; ++i) {
        mode_mttkrp[i] += snap.mode_mttkrp_seconds[i];
      }
      admm_s += snap.admm_seconds;
      inner_iters += static_cast<double>(snap.admm_inner_iterations);
      outer_.push_back({snap.seconds - snap.iteration_seconds, snap.seconds});
    };
    return cfg;
  }
  void reset() {
    mode_mttkrp.fill(0);
    admm_s = 0;
    inner_iters = 0;
    outer_.clear();
  }
  void add_mode_mttkrp(Samples& s) const {
    for (std::size_t i = 0; i < kOrder; ++i) {
      s.add(kModeMttkrp[i], mode_mttkrp[i]);
    }
  }

  /// Call right after a solve that took `solver_total_s` on its own clock
  /// returns. Adds one "core.outer" span per outer iteration and one
  /// "obs.snapshot" span for the time after each (snapshot assembly, this
  /// callback, the convergence check) to the tracer, and returns the total
  /// of the latter.
  double close_solve(Tracer& tracer, double solver_total_s) const {
    const double offset = tracer.now() - solver_total_s;
    double between = 0;
    for (std::size_t k = 0; k < outer_.size(); ++k) {
      const double next =
          k + 1 < outer_.size() ? outer_[k + 1].first : solver_total_s;
      tracer.add("core.outer", offset + outer_[k].first,
                 offset + outer_[k].second);
      tracer.add("obs.snapshot", offset + outer_[k].second, offset + next);
      between += next - outer_[k].second;
    }
    return between;
  }

  std::array<double, kOrder> mode_mttkrp{};
  double admm_s = 0;
  double inner_iters = 0;

 private:
  std::vector<std::pair<double, double>> outer_;  // start, end
};

void write_trace(const Options& o, const Tracer& tracer) {
  if (!o.chrome_trace.empty()) {
    tracer.write_chrome(o.chrome_trace);
  }
}

/// Query phase length: 1 s, so that the lowest rate's phase holds 1000
/// requests and its p99 has ten beyond it.
double query_phase_s(const Options& o) { return o.smoke ? 0.1 : 1.0; }

/// Top-k serving of the solved model (traced runs of the batch workloads):
/// publish it and run two cycles of the query sweep against it on this
/// thread, with no refresh running.
void serve_model(const Options& o, const std::vector<Matrix>& factors,
                 Metrics& m, Checks& checks) {
  ModelServer server;
  server.publish(KruskalTensor(factors));
  const std::atomic<bool> stop{false};
  report_queries(run_query_sweep(server, o.seed, query_phase_s(o), 2, stop,
                                 factors[0].rows()),
                 m, checks);
}

/// The timed phase of an untraced batch workload run: checked cold solves
/// for the run's time budget. Reports solve_s, setup_s and rel_error.
template <class Solve>
void timed_solves(const Options& o, const CooTensor& x, Solve&& solve,
                  Samples& s, Metrics& m, Checks& checks) {
  repeat_for(o, o.seconds, [&] {
    CpdResult r;
    s.add("solve_s", timed([&] { r = solve(); }));
    s.add("rel_error", r.relative_error);
    check_solve(x, r, "timed solve", checks);
  });
  s.report(m, "solve_s", "s");
  s.report(m, "setup_s", "s");
  s.report(m, "rel_error", "ratio");
}

/// The timed phase of a traced batch workload run: a second solver of the
/// same kind, which `make_warmed` builds from the workload's configuration
/// with the snapshot probe attached and warms by one solve (as set-up
/// warmed the untraced one), times checked cold solves for the run's
/// budget. Layer times are what the library reports: per-mode MTTKRP
/// seconds from the snapshots, MTTKRP and ADMM totals from
/// CpdResult.times, the time between iterations from the snapshots' clock
/// readings; Gram, fit and initialization are replayed. Finally calls
/// `finish(solver, iters)` with the timed solves' total outer iterations,
/// while the solver and the probe its callback points to are alive.
template <class Make, class Finish>
void traced_solves(const Options& o, const CooTensor& x, const CpdConfig& cfg,
                   Make&& make_warmed, const CpdResult& reference,
                   Finish&& finish, Samples& s, Metrics& m, Checks& checks) {
  Tracer tracer(o.workload);
  SnapshotProbe probe;
  auto solver = make_warmed(probe.attach(cfg));
  double iters = 0;
  std::uint64_t solve_id = 0;
  bool noted = false;
  repeat_for(o, o.seconds, [&] {
    tracer.set_solve(++solve_id);
    probe.reset();
    CpdResult r;
    double snapshot_s = 0;
    const double wall = timed([&] {
      const Tracer::Scope span(&tracer, "core.solve");
      r = solver->solve();
      snapshot_s = probe.close_solve(tracer, r.times.total_seconds);
    });
    check_solve(x, r, "traced solve", checks);
    // The callback must not change the solve. Reductions whose order
    // follows thread timing may move the last bits, so this is a note.
    if (!noted && (r.outer_iterations != reference.outer_iterations ||
                   std::abs(r.relative_error - reference.relative_error) >
                       1e-10 * reference.relative_error)) {
      noted = true;
      std::cerr.precision(17);
      std::cerr << "e2e: note: traced solve differs from the untraced one: "
                << r.outer_iterations << " vs " << reference.outer_iterations
                << " iterations, error " << r.relative_error << " vs "
                << reference.relative_error << "\n";
    }
    iters += r.outer_iterations;
    probe.add_mode_mttkrp(s);
    s.add("mttkrp.s", r.times.mttkrp_seconds);
    s.add("mttkrp.calls", static_cast<double>(r.mttkrp_count));
    s.add("core.admm_s", r.times.admm_seconds);
    s.add("core.admm_inner_iters",
          static_cast<double>(r.total_inner_iterations));
    s.add("core.admm_row_iters", static_cast<double>(r.total_row_iterations));
    s.add("core.outer_iters", r.outer_iterations);
    s.add("core.recoveries", static_cast<double>(r.recovery.size()));
    const Unreported u = replay_unreported(r.factors, r.outer_iterations);
    s.add("la.gram_s", u.gram_s);
    s.add("core.fit_s", u.fit_s);
    s.add("core.init_s", u.init_s);
    s.add("obs.snapshot_s", snapshot_s);
    s.add("core.unaccounted_frac",
          1.0 - (r.times.mttkrp_seconds + r.times.admm_seconds + u.gram_s +
                 u.fit_s + u.init_s + snapshot_s) /
                    wall);
    s.add("trace.overhead_frac", snapshot_s / (wall - snapshot_s));
  });
  write_trace(o, tracer);

  for (const char* name : {"mttkrp.mode0_s", "mttkrp.mode1_s",
                           "mttkrp.mode2_s", "mttkrp.s", "core.admm_s",
                           "la.gram_s", "core.fit_s", "core.init_s",
                           "obs.snapshot_s"}) {
    s.report(m, name, "s");
  }
  for (const char* name :
       {"mttkrp.calls", "core.admm_inner_iters", "core.admm_row_iters",
        "core.outer_iters", "core.recoveries"}) {
    s.report(m, name, "count");
  }
  s.report(m, "core.unaccounted_frac", "ratio");
  s.report(m, "trace.overhead_frac", "ratio");
  report_mttkrp_rate(m, s, x.nnz(), cfg.rank);
  finish(*solver, iters);
}

// ---------------------------------------------------------------------------
// nell-admm / amazon-mttkrp: one CpdSolver session, cold solves.

struct SessionWorkload {
  const char* dataset;
  CsfStrategy strategy;
  int threads;
};

void run_session(const Options& o, const SessionWorkload& w, Metrics& m,
                 Checks& checks, Context& ctx) {
  const int threads = std::min(w.threads, online_cpus());
  set_num_threads(threads);
  ctx["threads"] = std::to_string(threads);

  // The FROSTT stand-in is a fixed dataset, as its original is a fixed
  // file: --seed does not change it (README.md, "Seeds", says why).
  const NamedDataset d = frostt_standin(w.dataset, o.scale());
  CooTensor x;
  ctx["input_gen_s"] =
      std::to_string(timed([&] { x = make_synthetic(d.spec); }));
  ctx["nnz"] = std::to_string(x.nnz());
  ctx["rss_reset"] = reset_peak_rss() ? "true" : "false";

  const CpdConfig cfg = workload_config(200);
  std::unique_ptr<CsfSet> csf;
  std::unique_ptr<CpdSolver> solver;
  CpdResult reference;
  Samples s;
  for (unsigned rep = 0; rep < setup_reps(o); ++rep) {
    solver.reset();
    csf.reset();
    const auto t0 = Clock::now();
    csf = std::make_unique<CsfSet>(x, w.strategy);
    s.add("tensor.build_s", seconds_since(t0));
    solver = std::make_unique<CpdSolver>(*csf, cfg);
    reference = solver->solve();
    s.add("setup_s", seconds_since(t0));
    check_solve(x, reference, "setup solve", checks);
  }
  ctx["kernel"] = to_string(resolve_auto_kernel(
      cfg.mttkrp_kernel, csf->strategy(), csf->tiled(), true, csf->order(),
      csf->dims(), csf->nnz(), cfg.rank));
  ctx["outer_iterations"] = std::to_string(reference.outer_iterations);

  if (!o.trace) {
    timed_solves(o, x, [&] { return solver->solve(); }, s, m, checks);
  } else {
    traced_solves(
        o, x, cfg,
        [&](const CpdConfig& c) {
          auto made = std::make_unique<CpdSolver>(*csf, c);
          made->solve();
          return made;
        },
        reference, [](const CpdSolver&, double) {}, s, m, checks);
    s.report(m, "tensor.build_s", "s");
    m["tensor.csf_mb"] = {
        static_cast<double>(csf->storage_bytes()) / (1 << 20), "MiB"};
    // One untraced solve at the workload's threads and one at 1 thread,
    // back to back so that the host's drift moves both alike.
    CpdResult r;
    const double parallel_s = timed([&] { r = solver->solve(); });
    check_solve(x, r, "untraced solve", checks);
    set_num_threads(1);
    const double serial_s = timed([&] { r = solver->solve(); });
    set_num_threads(threads);
    check_solve(x, r, "1-thread solve", checks);
    m["parallel.speedup_vs_1t"] = {serial_s / parallel_s, "ratio"};
    not_on_this_path(m, kStreamOnly);
    not_on_this_path(m, kDistOnly);
    serve_model(o, reference.factors, m, checks);
  }
  m["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
}

void nell_admm(const Options& o, Metrics& m, Checks& c, Context& ctx) {
  run_session(o, {"nell-s", CsfStrategy::kAllMode, 4}, m, c, ctx);
}

void amazon_mttkrp(const Options& o, Metrics& m, Checks& c, Context& ctx) {
  run_session(o, {"amazon-s", CsfStrategy::kOneMode, 4}, m, c, ctx);
}

// ---------------------------------------------------------------------------
// stream-serve: replayed ingest with refresh and publish; in the traced run
// also the query sweep, concurrently.

/// Runs the query sweep on its own thread until stopped; joins it on every
/// exit path.
class QueryThread {
 public:
  QueryThread() = default;
  QueryThread(const QueryThread&) = delete;
  QueryThread& operator=(const QueryThread&) = delete;
  ~QueryThread() { join(); }

  void start(const ModelServer& server, std::uint64_t seed, double phase_s,
             std::size_t anchor_rows) {
    thread_ = std::thread([this, &server, seed, phase_s, anchor_rows] {
      try {
        sweep_ = run_query_sweep(server, seed, phase_s, ~0U, stop_,
                                 anchor_rows);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  bool started() const { return thread_.joinable(); }
  /// Stops the sweep and returns what it measured; throws what the query
  /// thread threw.
  const QuerySweep& stop_and_join() {
    join();
    if (!error_.empty()) {
      throw std::runtime_error("query thread: " + error_);
    }
    return sweep_;
  }

 private:
  void join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  std::atomic<bool> stop_{false};
  QuerySweep sweep_;
  std::string error_;
  std::thread thread_;
};

void stream_serve(const Options& o, Metrics& m, Checks& checks,
                  Context& ctx) {
  // Refresh threads; the traced run adds the query thread, still within
  // the CPUs the process may use.
  const int threads = std::clamp(online_cpus() - 1, 1, 2);
  set_num_threads(threads);
  ctx["threads"] = std::to_string(threads) + " refresh" +
                   (o.trace ? " + 1 query" : "");

  // 1M events over 96 ticks in 24 batches of 4 ticks; the 32-tick window
  // fills after 8 batches, and from then on every batch evicts as much as
  // it adds. Only those steady-state batches are timed, so the freshness
  // median compares refreshes of one size. A fixed event file, like the
  // batch workloads' datasets.
  constexpr index_t kTicks = 96;
  SyntheticSpec spec;
  spec.dims = {20000, 4000, kTicks};
  spec.nnz = static_cast<offset_t>(1000000 * o.scale());
  spec.zipf_alpha = {1.0, 1.0, 0.0};
  spec.seed = 20261016;
  std::vector<CooTensor> batches;
  ctx["input_gen_s"] = std::to_string(timed(
      [&] { batches = make_replay_batches(make_synthetic(spec), 2, 24); }));
  ctx["batches"] = std::to_string(batches.size());
  ctx["rss_reset"] = reset_peak_rss() ? "true" : "false";

  StreamingOptions so;
  so.time_mode = 2;
  so.window = 32;
  const CpdConfig cfg = workload_config(10);

  Samples s;
  for (unsigned rep = 0; rep < setup_reps(o); ++rep) {
    const auto t0 = Clock::now();
    StreamingTensor st(std::vector<index_t>(kOrder, 1), so);
    ModelServer server;
    StreamingSolver solver(st, cfg, &server);
    st.apply(batches[0]);
    const RefreshReport r = solver.refresh();
    s.add("setup_s", seconds_since(t0));
    checks.expect(r.epoch == 1 && server.epoch() == 1,
                  "setup refresh did not publish epoch 1");
  }

  const auto& reg = obs::MetricsRegistry::global();
  const auto recoveries = [&reg] {
    double n = 0;
    for (const char* c :
         {"robust/cholesky_jitter", "robust/admm_restarts",
          "robust/admm_abandoned", "robust/mttkrp_retries",
          "robust/factor_rollbacks", "robust/rho_rebalances"}) {
      n += reg.counter_value(c);
    }
    return n;
  };

  Tracer tracer(o.workload);
  Tracer* const traced = o.trace ? &tracer : nullptr;
  SnapshotProbe probe;
  const CpdConfig run_cfg = o.trace ? probe.attach(cfg) : cfg;
  ModelServer server;
  QueryThread queries;
  unsigned replays = 0;
  double measured_s = 0;  // steady-state batch time so far
  double loop_wall = 0;
  double busy = 0;
  double steady = 0;
  double rebuilds = 0;
  double evicted = 0;
  const double recoveries0 = recoveries();
  std::vector<Matrix> final_factors;
  double final_csf_bytes = 0;
  offset_t final_nnz = 0;
  // Replays from an empty tensor until --seconds of steady-state batches
  // have been timed; the first replay always runs to its end and gives
  // rel_error.
  while ((replays == 0 || measured_s < o.seconds) &&
         !(o.smoke && replays > 0)) {
    tracer.set_solve(++replays);
    StreamingTensor st(std::vector<index_t>(kOrder, 1), so);
    StreamingSolver solver(st, run_cfg, &server);
    const auto loop0 = Clock::now();
    RefreshReport last;
    for (const CooTensor& batch : batches) {
      const bool full_window = st.watermark() >= so.window;
      const StreamingStats before = st.stats();
      probe.reset();
      const auto t0 = Clock::now();
      {
        const Tracer::Scope span(traced, "stream.apply");
        st.apply(batch);
      }
      const double apply_s = seconds_since(t0);
      const std::uint64_t epoch = server.epoch();
      double snapshot_s = 0;
      {
        const Tracer::Scope span(traced, "stream.refresh");
        last = solver.refresh();
        if (o.trace) {
          snapshot_s = probe.close_solve(tracer, last.solve_seconds);
        }
      }
      const double fresh_s = seconds_since(t0);
      busy += fresh_s;
      checks.expect(server.epoch() == epoch + 1 && last.epoch == epoch + 1,
                    "refresh did not advance the served epoch");
      if (o.trace && !queries.started()) {
        queries.start(server, o.seed, query_phase_s(o),
                      server.snapshot()->model.factors()[0].rows());
      }
      if (!full_window) {
        continue;
      }
      measured_s += fresh_s;
      ++steady;
      rebuilds += static_cast<double>(st.stats().full_rebuilds -
                                      before.full_rebuilds);
      evicted += static_cast<double>(st.stats().evicted - before.evicted);
      s.add("solve_s", fresh_s);
      s.add("apply_s", apply_s);
      s.add("tensor.build_s", last.compile_seconds);
      s.add("core.outer_iters", last.outer_iterations);
      probe.add_mode_mttkrp(s);
      s.add("mttkrp.s", probe.mode_mttkrp[0] + probe.mode_mttkrp[1] +
                            probe.mode_mttkrp[2]);
      s.add("mttkrp.calls", static_cast<double>(kOrder) * last.outer_iterations);
      s.add("core.admm_s", probe.admm_s);
      s.add("core.admm_inner_iters", probe.inner_iters);
      s.add("obs.snapshot_s", snapshot_s);
      s.add("trace.overhead_frac", snapshot_s / (fresh_s - snapshot_s));
      if (replays > 1 && measured_s >= o.seconds) {
        break;
      }
    }
    loop_wall += seconds_since(loop0);
    if (replays == 1) {
      s.add("rel_error", last.relative_error);
    }
    final_csf_bytes = static_cast<double>(st.csf().storage_bytes());
    final_nnz = st.nnz();
    final_factors = solver.model().factors();
    check_model(st.coo(), final_factors, last.relative_error, false,
                last.stop_reason, "final streamed model", checks);
  }
  if (o.trace) {
    report_queries(queries.stop_and_join(), m, checks);
    write_trace(o, tracer);
  }
  ctx["replays"] = std::to_string(replays);
  ctx["steady_batches"] = std::to_string(static_cast<int>(steady));

  s.report(m, "solve_s", "s");
  s.report(m, "setup_s", "s");
  s.report(m, "rel_error", "ratio");
  m["peak_rss_mb"] = {peak_rss_mib(), "MiB"};

  if (o.trace) {
    for (const char* name : {"mttkrp.mode0_s", "mttkrp.mode1_s",
                             "mttkrp.mode2_s", "mttkrp.s", "core.admm_s",
                             "tensor.build_s", "obs.snapshot_s"}) {
      s.report(m, name, "s");
    }
    for (const char* name :
         {"mttkrp.calls", "core.admm_inner_iters", "core.outer_iters"}) {
      s.report(m, name, "count");
    }
    const Unreported u =
        replay_unreported(final_factors, s.median_of("core.outer_iters"));
    s.add("la.gram_s", u.gram_s);
    s.add("core.fit_s", u.fit_s);
    // Paid by the first, cold refresh only; warm refreshes start from the
    // previous model.
    s.add("core.init_s", u.init_s);
    for (const char* name : {"la.gram_s", "core.fit_s", "core.init_s"}) {
      s.report(m, name, "s");
    }
    report_mttkrp_rate(m, s, final_nnz, cfg.rank);
    m["tensor.csf_mb"] = {final_csf_bytes / (1 << 20), "MiB"};
    m["core.recoveries"] = {(recoveries() - recoveries0) / steady, "count"};
    m["core.unaccounted_frac"] = {1.0 - busy / loop_wall, "ratio"};
    const double fresh = s.median_of("solve_s");
    m["stream.apply_frac"] = {s.median_of("apply_s") / fresh, "ratio"};
    m["stream.compile_frac"] = {s.median_of("tensor.build_s") / fresh,
                                "ratio"};
    m["stream.rebuilds_per_batch"] = {rebuilds / steady, "ratio"};
    m["stream.evicted_per_batch"] = {evicted / steady, "count"};
    s.report(m, "trace.overhead_frac", "ratio");
    // Not reported by the refresh path, or not applicable to it.
    not_on_this_path(m, {{"core.admm_row_iters", "count"},
                         {"parallel.speedup_vs_1t", "ratio"}});
    not_on_this_path(m, kDistOnly);
  }
}

// ---------------------------------------------------------------------------
// shard-spill: ShardedCpdSolver over spilled, memory-budgeted tiles.

void shard_spill(const Options& o, Metrics& m, Checks& checks, Context& ctx) {
  // Workers run their tile's MTTKRP single-threaded (the process runs
  // under OMP_NUM_THREADS=1); with the coordinator that is shards + 1
  // threads, kept within the CPUs the process may use.
  set_num_threads(1);
  const std::size_t shards =
      static_cast<std::size_t>(std::clamp(online_cpus() - 1, 1, 3));
  ctx["threads"] = std::to_string(shards) + " workers x 1 + coordinator";
  ctx["grid"] = std::to_string(shards) + "x1x1";

  // The bench_shard tensor, a fixed dataset like the FROSTT stand-ins.
  SyntheticSpec spec;
  spec.dims = {4000, 2000, 1500};
  spec.nnz = static_cast<offset_t>(2000000 * o.scale());
  spec.zipf_alpha = {1.1};
  spec.true_rank = 8;
  spec.seed = 20260809;
  CooTensor x;
  ctx["input_gen_s"] = std::to_string(timed([&] { x = make_synthetic(spec); }));
  ctx["nnz"] = std::to_string(x.nnz());
  ctx["rss_reset"] = reset_peak_rss() ? "true" : "false";

  const std::string spill =
      o.work_dir + "/shard-spill-" + std::to_string(::getpid());
  CpdConfig cfg = workload_config(200);
  ShardOptions so;
  so.grid = {shards, 1, 1};
  so.spill_dir = spill;
  // About one decoded tile: every sweep step streams its tile back in.
  so.max_resident_bytes = static_cast<std::size_t>(x.nnz()) * sizeof(real_t) *
                          2 / shards;
  cfg.with_shards(so);

  struct SpillDir {
    std::string path;
    ~SpillDir() { std::filesystem::remove_all(path); }
  } spill_guard{spill};

  const auto fresh_solver = [&](const CpdConfig& c) {
    std::filesystem::remove_all(spill);
    std::filesystem::create_directories(spill);
    return std::make_unique<ShardedCpdSolver>(x, c);
  };
  Samples s;
  std::unique_ptr<ShardedCpdSolver> solver;
  CpdResult reference;
  for (unsigned rep = 0; rep < setup_reps(o); ++rep) {
    solver.reset();
    const auto t0 = Clock::now();
    solver = fresh_solver(cfg);
    s.add("tensor.build_s", seconds_since(t0));
    reference = solver->solve();
    s.add("setup_s", seconds_since(t0));
    check_solve(x, reference, "setup solve", checks);
  }
  ctx["outer_iterations"] = std::to_string(reference.outer_iterations);

  if (!o.trace) {
    timed_solves(o, x, [&] { return solver->solve(); }, s, m, checks);
  } else {
    // The traced solver respills into the same directory. Its exchange and
    // tile counters are read from after its warm-up solve.
    solver.reset();
    ExchangeStats ex0;
    TileResidency::Stats rs0;
    const auto make_warmed = [&](const CpdConfig& c) {
      auto made = fresh_solver(c);
      made->solve();
      ex0 = made->exchange_stats();
      rs0 = made->residency_stats();
      return made;
    };
    // Exchange and tile counters over the timed solves; then tile decode
    // from outside: TileStore::load_tile on the solver's own spill
    // directory, every tile a few times.
    const auto finish = [&](const ShardedCpdSolver& traced, double iters) {
      const ExchangeStats ex1 = traced.exchange_stats();
      const TileResidency::Stats rs1 = traced.residency_stats();
      m["dist.exchange_mb_per_iter"] = {
          static_cast<double>(ex1.bytes - ex0.bytes) / 1e6 / iters, "MB"};
      m["dist.exchange_msgs_per_iter"] = {
          static_cast<double>(ex1.messages - ex0.messages) / iters, "count"};
      const double loads = static_cast<double>(rs1.loads - rs0.loads);
      const double hits = static_cast<double>(rs1.hits - rs0.hits);
      m["dist.tile_loads_per_iter"] = {loads / iters, "count"};
      m["dist.tile_hit_ratio"] = {
          hits + loads > 0 ? hits / (hits + loads) : 0, "ratio"};
      m["dist.tile_evictions_per_iter"] = {
          static_cast<double>(rs1.evictions - rs0.evictions) / iters,
          "count"};

      const TileStore store(spill, traced.plan().signature);
      std::vector<double> mb_per_s;
      double tile_bytes = 0;
      for (std::size_t shard = 0; shard < shards; ++shard) {
        const offset_t planned = traced.plan().shards[shard].nnz;
        if (planned == 0) {
          continue;
        }
        const double bytes = static_cast<double>(store.tile_bytes(shard));
        tile_bytes += bytes;
        for (int rep = 0; rep < 3; ++rep) {
          offset_t nnz = 0;
          const double t = timed([&] { nnz = store.load_tile(shard).nnz(); });
          checks.expect(nnz == planned, "decoded tile lost non-zeros");
          mb_per_s.push_back(bytes / 1e6 / t);
        }
      }
      m["dist.tile_load_mb_per_s"] = {median(mb_per_s), "MB/s"};
      m["tensor.csf_mb"] = {tile_bytes / (1 << 20), "MiB"};
    };
    traced_solves(o, x, cfg, make_warmed, reference, finish, s, m, checks);
    s.report(m, "tensor.build_s", "s");
    not_on_this_path(m, {{"parallel.speedup_vs_1t", "ratio"}});
    not_on_this_path(m, kStreamOnly);
    serve_model(o, reference.factors, m, checks);
  }
  m["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
}

}  // namespace

WorkloadFn find_workload(const std::string& name) {
  if (name == "nell-admm") return nell_admm;
  if (name == "amazon-mttkrp") return amazon_mttkrp;
  if (name == "stream-serve") return stream_serve;
  if (name == "shard-spill") return shard_spill;
  return nullptr;
}

}  // namespace e2e
