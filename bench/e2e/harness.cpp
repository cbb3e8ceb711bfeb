#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>

#include "util/rng.hpp"

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Checks::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  // Only the first few failures are spelled out; the count says the rest.
  if (failed_ <= 20) {
    std::cerr << "e2e: check failed: " << what << "\n";
  }
}

bool reset_peak_rss() {
  // "5" resets the peak resident set size to the current one (proc(5)).
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      f >> kib;
      return kib / 1024.0;
    }
    std::getline(f, key);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

/// One phase of the sweep at `rate_per_s`; returns false once `stop` reads
/// true.
bool run_phase(aoadmm::ModelServer::Reader& reader, aoadmm::Rng& rng,
               double rate_per_s, double phase_s,
               const std::atomic<bool>& stop, std::size_t anchor_rows,
               QueryStats& q, std::uint64_t& swaps,
               std::uint64_t& last_epoch) {
  using std::chrono::duration;
  using std::chrono::duration_cast;
  const auto period =
      duration_cast<Clock::duration>(duration<double>(1.0 / rate_per_s));
  const auto due_count =
      static_cast<std::uint64_t>(std::ceil(phase_s * rate_per_s));
  const auto t0 = Clock::now();
  const auto give_up =
      t0 + duration_cast<Clock::duration>(
               duration<double>(phase_s + kQueryP99LimitS));
  std::vector<double> phase_latency;
  phase_latency.reserve(due_count);
  std::uint64_t missed = 0;
  bool stopped = false;
  for (std::uint64_t i = 0; i < due_count; ++i) {
    if (stop.load(std::memory_order_acquire)) {
      stopped = true;
      break;
    }
    const auto due = t0 + period * static_cast<std::int64_t>(i);
    // Spin rather than sleep: on a virtual machine a sleeping thread can
    // wake milliseconds late, and the p99 would measure that wake-up.
    auto start = Clock::now();
    while (start < due) {
      start = Clock::now();
    }
    if (start > give_up) {
      missed = due_count - i;
      break;
    }
    const auto row =
        static_cast<aoadmm::index_t>(rng.uniform_index(anchor_rows));
    const std::vector<aoadmm::ScoredIndex> best =
        reader.top_k(0, row, 1, kQueryK);
    const auto done = Clock::now();

    bool ok = best.size() == kQueryK;
    for (const aoadmm::ScoredIndex& s : best) {
      ok = ok && std::isfinite(s.score);
    }
    q.bad += ok ? 0 : 1;
    if (reader.cached_epoch() != last_epoch) {
      swaps += last_epoch != 0 ? 1 : 0;
      last_epoch = reader.cached_epoch();
    }
    phase_latency.push_back(duration<double>(done - due).count());
    q.service_s.push_back(duration<double>(done - start).count());
    q.wait_s.push_back(duration<double>(start - due).count());
  }
  q.latency_s.insert(q.latency_s.end(), phase_latency.begin(),
                     phase_latency.end());
  if (!stopped) {
    // Only whole phases give a p99; a missed request is slower than any.
    phase_latency.insert(phase_latency.end(), missed,
                         std::numeric_limits<double>::infinity());
    q.phase_p99_s.push_back(quantile(std::move(phase_latency), 0.99));
  }
  return !stopped;
}

}  // namespace

QuerySweep run_query_sweep(const aoadmm::ModelServer& server,
                           std::uint64_t seed, double phase_s,
                           unsigned max_cycles, const std::atomic<bool>& stop,
                           std::size_t anchor_rows) {
  QuerySweep sweep;
  aoadmm::ModelServer::Reader reader = server.reader();
  aoadmm::Rng rng(seed);
  std::uint64_t last_epoch = 0;
  for (unsigned cycle = 0; cycle < max_cycles; ++cycle) {
    for (std::size_t r = 0; r < kQueryRates.size(); ++r) {
      if (!run_phase(reader, rng, kQueryRates[r], phase_s, stop, anchor_rows,
                     sweep.at_rate[r], sweep.snapshot_swaps, last_epoch)) {
        return sweep;
      }
    }
  }
  return sweep;
}

void report_queries(const QuerySweep& sweep, Metrics& m, Checks& checks) {
  std::uint64_t issued = 0;
  double max_rate = 0;
  for (std::size_t r = 0; r < kQueryRates.size(); ++r) {
    const QueryStats& q = sweep.at_rate[r];
    const std::size_t n = q.latency_s.size();
    issued += n;
    for (std::size_t i = q.bad; i < n; ++i) {
      checks.pass();
    }
    for (std::uint64_t i = 0; i < q.bad; ++i) {
      checks.fail("top_k returned fewer than k finite scores");
    }
    // A rate is sustained when the median phase meets the p99 limit.
    if (!q.phase_p99_s.empty() && median(q.phase_p99_s) <= kQueryP99LimitS) {
      max_rate = kQueryRates[r];
    }
  }
  checks.expect(issued > 0, "the query generator issued no request");

  // Latency is reported at the lowest rate, below every workload's
  // saturation, so that it measures the query rather than a queue. Each of its
  // phases holds 1000 requests, ten of them beyond the p99; the median over
  // phases keeps one stalled second on a shared host from moving it more
  // than any other second does.
  const QueryStats& low = sweep.at_rate[0];
  m["stream.query_p99_ms"] = {median(low.phase_p99_s) * 1e3, "ms"};
  m["stream.query_p50_ms"] = {median(low.latency_s) * 1e3, "ms"};
  m["stream.query_service_p50_ms"] = {median(low.service_s) * 1e3, "ms"};
  m["stream.query_wait_p99_ms"] = {quantile(low.wait_s, 0.99) * 1e3, "ms"};
  m["stream.generator_late_max_ms"] = {quantile(low.wait_s, 1.0) * 1e3, "ms"};
  m["stream.query_max_rate"] = {max_rate, "1/s"};
  m["stream.snapshot_swaps"] = {static_cast<double>(sweep.snapshot_swaps),
                                "count"};
}

}  // namespace e2e
