#include "obs/parallel_stats.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"

namespace aoadmm::obs {
namespace {

// Cumulative totals; relaxed read-modify-write under the recorders' data
// race is acceptable only because records are serialized — a region is
// recorded once, by the thread that owns the BusyTimes (regions never
// overlap in this library's call graph). CAS keeps it correct anyway if
// two independent regions ever finish concurrently.
std::atomic<double> g_max_busy{0};
std::atomic<double> g_mean_busy{0};
std::atomic<std::uint64_t> g_regions{0};

// Dedicated MTTKRP-domain channel (in addition to the totals above).
std::atomic<double> g_mttkrp_max_busy{0};
std::atomic<double> g_mttkrp_mean_busy{0};
std::atomic<std::uint64_t> g_mttkrp_regions{0};

void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

ParallelTotals parallel_totals() noexcept {
  ParallelTotals t;
  t.max_busy_seconds = g_max_busy.load(std::memory_order_relaxed);
  t.mean_busy_seconds = g_mean_busy.load(std::memory_order_relaxed);
  t.regions = g_regions.load(std::memory_order_relaxed);
  return t;
}

void reset_parallel_totals() noexcept {
  g_max_busy.store(0, std::memory_order_relaxed);
  g_mean_busy.store(0, std::memory_order_relaxed);
  g_regions.store(0, std::memory_order_relaxed);
}

ParallelTotals mttkrp_totals() noexcept {
  ParallelTotals t;
  t.max_busy_seconds = g_mttkrp_max_busy.load(std::memory_order_relaxed);
  t.mean_busy_seconds = g_mttkrp_mean_busy.load(std::memory_order_relaxed);
  t.regions = g_mttkrp_regions.load(std::memory_order_relaxed);
  return t;
}

namespace {

double imbalance_delta(const ParallelTotals& before,
                       const ParallelTotals& now) noexcept {
  const double dmax = now.max_busy_seconds - before.max_busy_seconds;
  const double dmean = now.mean_busy_seconds - before.mean_busy_seconds;
  if (dmax <= 0) {
    return 0;
  }
  return std::clamp(1.0 - dmean / dmax, 0.0, 1.0);
}

}  // namespace

double imbalance_since(const ParallelTotals& before) noexcept {
  return imbalance_delta(before, parallel_totals());
}

double mttkrp_imbalance_since(const ParallelTotals& before) noexcept {
  return imbalance_delta(before, mttkrp_totals());
}

void record_parallel_region(const double* busy_seconds, int nthreads,
                            RegionDomain domain) {
  if (nthreads <= 0) {
    return;
  }
  double mx = 0;
  double sum = 0;
  for (int t = 0; t < nthreads; ++t) {
    mx = std::max(mx, busy_seconds[t]);
    sum += busy_seconds[t];
  }
  if (mx <= 0) {
    return;  // region did no measurable work
  }
  const double mean = sum / nthreads;
  atomic_add(g_max_busy, mx);
  atomic_add(g_mean_busy, mean);
  g_regions.fetch_add(1, std::memory_order_relaxed);

  const double imbalance = 1.0 - mean / mx;
  static const Histogram h =
      MetricsRegistry::global().histogram("parallel/region_imbalance");
  h.observe(imbalance);

  if (domain == RegionDomain::kMttkrp) {
    atomic_add(g_mttkrp_max_busy, mx);
    atomic_add(g_mttkrp_mean_busy, mean);
    g_mttkrp_regions.fetch_add(1, std::memory_order_relaxed);

    struct MttkrpChannel {
      Histogram imbalance_hist;
      Gauge last_imbalance;
      Gauge last_max_busy;
      Gauge last_mean_busy;
    };
    static const MttkrpChannel ch = [] {
      auto& reg = MetricsRegistry::global();
      MttkrpChannel c;
      c.imbalance_hist = reg.histogram("mttkrp/region_imbalance");
      c.last_imbalance = reg.gauge("mttkrp/last_imbalance");
      c.last_max_busy = reg.gauge("mttkrp/last_max_busy_seconds");
      c.last_mean_busy = reg.gauge("mttkrp/last_mean_busy_seconds");
      return c;
    }();
    ch.imbalance_hist.observe(imbalance);
    ch.last_imbalance.set(imbalance);
    ch.last_max_busy.set(mx);
    ch.last_mean_busy.set(mean);
  }
}

BusyTimes::BusyTimes(int nthreads, RegionDomain domain)
    : nthreads_(nthreads), domain_(domain) {
  if (nthreads_ > kInlineThreads) {
    cells_ = new Cell[static_cast<std::size_t>(nthreads_)];
  }
}

BusyTimes::~BusyTimes() {
  double stack[kInlineThreads] = {};
  double* busy = stack;
  if (nthreads_ > kInlineThreads) {
    busy = new double[static_cast<std::size_t>(nthreads_)];
  }
  for (int t = 0; t < nthreads_; ++t) {
    busy[t] = cells_[t].v;
  }
  record_parallel_region(busy, nthreads_, domain_);
  if (busy != stack) {
    delete[] busy;
  }
  if (cells_ != inline_cells_) {
    delete[] cells_;
  }
}

}  // namespace aoadmm::obs
