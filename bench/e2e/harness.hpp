// Shared pieces of the end-to-end benchmark: command-line options, the
// metric sink every workload reports into, order statistics, process
// memory, the open-loop query sweep, and the correctness ledger.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream/model_server.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Quick self-check: 5% inputs, one set-up and one timed repetition,
  /// short query phases.
  bool smoke = false;
  /// Chrome trace output path for the traced run ("" = none).
  std::string chrome_trace;
  /// Scratch directory inside the checkout (tile spill).
  std::string work_dir = "build-e2e/work";

  /// Multiplier on every input size.
  double scale() const { return smoke ? 0.05 : 1.0; }
};

/// Median and nearest-rank quantiles of a sample; NaN when empty.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Pass/fail ledger of every checked operation (solves, refreshes,
/// queries). A failed check is logged to stderr with its reason.
class Checks {
 public:
  void pass() { ++attempted_; }
  void fail(const std::string& what);
  /// Record one operation that passes iff `ok`.
  void expect(bool ok, const std::string& what) {
    ok ? pass() : fail(what);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};
/// The metrics a workload reports, by name.
using Metrics = std::map<std::string, Metric>;

/// VmHWM tracking: reset_peak_rss() restarts the high-water mark from the
/// current resident set (so input generation does not count), peak_rss_mib()
/// reads it. Both use the process's own /proc/self entries.
bool reset_peak_rss();
double peak_rss_mib();

/// The query every workload serves: top_k(0, row, 1, kQueryK), the top-16
/// recommendation bench/bench_stream.cpp measures (BM_StreamQueryTopK).
inline constexpr std::size_t kQueryK = 16;
/// Latency limit on the p99, the `--slo-p99 0.001` that
/// docs/observability.md configures for the serving plane.
inline constexpr double kQueryP99LimitS = 1e-3;
/// The fixed offered rates of the sweep, requests per second. A top-16 over
/// the workloads' 2000-30000 target rows takes 0.05-0.55 ms on the
/// reference host, so the sweep spans one reader's light load to its
/// saturation.
inline constexpr std::array<double, 3> kQueryRates = {1000, 4000, 16000};

/// What one rate of the sweep measured, over all its phases.
struct QueryStats {
  std::vector<double> latency_s;   // due -> done
  std::vector<double> service_s;   // start -> done
  std::vector<double> wait_s;      // due -> start
  std::vector<double> phase_p99_s; // p99 of each whole phase, missed counted
  std::uint64_t bad = 0;           // requests that broke the top-k contract
};

struct QuerySweep {
  std::array<QueryStats, kQueryRates.size()> at_rate;
  std::uint64_t snapshot_swaps = 0;
};

/// Open-loop top-k load against a ModelServer, on the calling thread, which
/// spins between requests and so occupies one CPU. It
/// offers each rate of kQueryRates in turn for `phase_s` seconds, and
/// cycles until `stop` reads true (checked between requests) or
/// `max_cycles` cycles have run. Each request is timed from its due time,
/// so a stall also delays the requests queued behind it. A phase starts
/// with an empty queue; requests of the phase not started within the
/// latency limit after its end count as missing the limit, so a growing
/// backlog fails it. Anchor rows are drawn from [0, anchor_rows) by an Rng
/// seeded with `seed`.
QuerySweep run_query_sweep(const aoadmm::ModelServer& server,
                           std::uint64_t seed, double phase_s,
                           unsigned max_cycles, const std::atomic<bool>& stop,
                           std::size_t anchor_rows);

/// Adds the query metrics every workload's traced run reports, and one
/// checked operation per request.
void report_queries(const QuerySweep& q, Metrics& m, Checks& checks);

}  // namespace e2e
