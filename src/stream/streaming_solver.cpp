#include "stream/streaming_solver.hpp"

#include <utility>

#include "core/solver.hpp"
#include "testing/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "obs/telemetry/window_quantiles.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace aoadmm {
namespace {

struct RefreshMetrics {
  obs::Counter refreshes;
  obs::Counter warm_refreshes;
  obs::Counter outer_iterations;
  obs::Counter grown_rows;
  obs::Histogram refresh_seconds;
  obs::Gauge last_error;
  obs::Gauge last_outer;
  obs::Gauge last_converged;

  static const RefreshMetrics& get() {
    static const RefreshMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      RefreshMetrics out;
      out.refreshes = reg.counter("stream/refreshes");
      out.warm_refreshes = reg.counter("stream/warm_refreshes");
      out.outer_iterations = reg.counter("stream/refresh_outer_iterations");
      out.grown_rows = reg.counter("stream/grown_rows");
      out.refresh_seconds = reg.histogram("stream/refresh_seconds");
      out.last_error = reg.gauge("stream/last_refresh_error");
      out.last_outer = reg.gauge("stream/last_refresh_outer_iterations");
      out.last_converged = reg.gauge("stream/last_refresh_converged");
      return out;
    }();
    return m;
  }
};

}  // namespace

StreamingSolver::StreamingSolver(StreamingTensor& tensor, CpdConfig config,
                                 ModelServer* server)
    : tensor_(tensor), config_(std::move(config)), server_(server) {}

std::size_t StreamingSolver::grow_model() {
  std::size_t grown = 0;
  std::vector<Matrix>& factors = model_.factors();
  const std::vector<index_t>& dims = tensor_.dims();
  for (std::size_t m = 0; m < factors.size(); ++m) {
    Matrix& old = factors[m];
    const std::size_t rows = dims[m];
    if (old.rows() >= rows) {
      continue;
    }
    const std::size_t rank = old.cols();
    Matrix grown_factor(rows, rank);
    std::vector<real_t> mean(rank, 0);
    for (std::size_t i = 0; i < old.rows(); ++i) {
      for (std::size_t f = 0; f < rank; ++f) {
        grown_factor(i, f) = old(i, f);
        mean[f] += old(i, f);
      }
    }
    if (old.rows() > 0) {
      for (std::size_t f = 0; f < rank; ++f) {
        mean[f] /= static_cast<real_t>(old.rows());
      }
    }
    for (std::size_t i = old.rows(); i < rows; ++i) {
      for (std::size_t f = 0; f < rank; ++f) {
        grown_factor(i, f) = mean[f];
      }
    }
    grown += rows - old.rows();
    old = std::move(grown_factor);
  }
  return grown;
}

RefreshReport StreamingSolver::refresh() {
  const RefreshMetrics& metrics = RefreshMetrics::get();
  Timer timer;
  timer.start();

  RefreshReport report;
  report.refresh = reports_.size() + 1;

  // Mint this refresh's trace context and install it thread-locally for the
  // duration of the solve, so recovery events and journal lines recorded
  // underneath carry the linkage automatically.
  report.trace.solve_id = obs::next_solve_id();
  report.trace.batch_id = tensor_.last_batch_id();
  const obs::ScopedTraceContext scoped(report.trace);
  obs::journal_event(obs::EventKind::kRefreshStarted, report.trace,
                     obs::EventJournal::Fields{}
                         .num("refresh", report.refresh)
                         .num("nnz",
                              static_cast<std::uint64_t>(tensor_.nnz())));

  // Injected failure modes for the supervisor tests: a refresh that throws
  // (contained by RefreshSupervisor::try_refresh) and a refresh that hangs
  // past its deadline, played by expiring an armed deadline on the spot so
  // no test waits on the wall clock (with no deadline armed, it is a no-op).
  if (testing::maybe_throw_refresh()) {
    throw NumericalError("injected refresh failure (kRefreshThrow)");
  }
  if (testing::maybe_hang_refresh()) {
    const CancelTokenPtr& cancel = config_.cancel;
    if (cancel && cancel->has_deadline()) {
      cancel->set_deadline_after(0);
    }
  }

  // Compile (amortized) first; the compile share is whatever the tensor
  // spent inside this call — zero when the cached compilation was reused.
  const StreamingStats& st = tensor_.stats();
  const std::uint64_t compiles_before = st.full_rebuilds + st.value_patches;
  const CsfSet& csf = tensor_.csf();
  if (st.full_rebuilds + st.value_patches > compiles_before) {
    report.compile_seconds = st.last_compile_seconds;
  }

  // The session caches the tensor norm at construction, so each refresh
  // gets a fresh solver; warm state travels in the model.
  CpdSolver solver(csf, config_);

  CpdResult result;
  const bool can_warm =
      has_model_ && model_.rank() == config_.rank &&
      model_.order() == tensor_.order();
  if (can_warm) {
    report.grown_rows = grow_model();
    result = solver.solve_warm(model_);
    report.warm = true;
  } else {
    result = solver.solve();
  }

  model_ = KruskalTensor(std::move(result.factors));
  has_model_ = true;

  report.outer_iterations = result.outer_iterations;
  report.relative_error = result.relative_error;
  report.converged = result.converged;
  report.stop_reason = result.stop_reason;

  if (server_ != nullptr) {
    report.epoch = server_->publish(model_, report.trace);
    report.trace.epoch = report.epoch;
  }

  timer.stop();
  report.solve_seconds = timer.seconds() - report.compile_seconds;

  metrics.refreshes.add(1);
  if (report.warm) {
    metrics.warm_refreshes.add(1);
  }
  metrics.outer_iterations.add(static_cast<double>(report.outer_iterations));
  metrics.grown_rows.add(static_cast<double>(report.grown_rows));
  metrics.refresh_seconds.observe(timer.seconds());
  metrics.last_error.set(static_cast<double>(report.relative_error));
  metrics.last_outer.set(static_cast<double>(report.outer_iterations));
  metrics.last_converged.set(report.converged ? 1 : 0);
  static obs::WindowedHistogram& refresh_window =
      obs::windowed_histogram(obs::kWindowRefreshSeconds);
  refresh_window.observe(timer.seconds());

  obs::journal_event(
      obs::EventKind::kRefreshFinished, report.trace,
      obs::EventJournal::Fields{}
          .num("refresh", report.refresh)
          .boolean("warm", report.warm)
          .boolean("converged", report.converged)
          .str("stop_reason", to_string(report.stop_reason))
          .num("outer_iterations",
               static_cast<std::uint64_t>(report.outer_iterations))
          .num("relative_error",
               static_cast<double>(report.relative_error))
          .num("recoveries",
               static_cast<std::uint64_t>(result.recovery.events.size()))
          .num("solve_seconds", report.solve_seconds));

  reports_.push_back(report);
  return report;
}

}  // namespace aoadmm
