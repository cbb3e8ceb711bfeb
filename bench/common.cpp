#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "parallel/runtime.hpp"
#include "util/error.hpp"

namespace aoadmm::bench {
namespace {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const double out = std::strtod(v, &end);
  return end != v ? out : fallback;
}

long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long out = std::strtol(v, &end, 10);
  return end != v ? out : fallback;
}

}  // namespace

real_t bench_scale() {
  return static_cast<real_t>(env_double("AOADMM_BENCH_SCALE", 0.25));
}

rank_t bench_rank() {
  return static_cast<rank_t>(env_long("AOADMM_BENCH_RANK", 16));
}

unsigned bench_max_outer(unsigned fallback) {
  return static_cast<unsigned>(
      env_long("AOADMM_BENCH_MAX_OUTER", static_cast<long>(fallback)));
}

std::vector<int> bench_thread_sweep() {
  const long max_env = env_long("AOADMM_BENCH_MAX_THREADS", 0);
  int max_t = max_env > 0 ? static_cast<int>(max_env)
                          : static_cast<int>(std::thread::hardware_concurrency());
  if (max_t < 1) {
    max_t = 1;
  }
  std::vector<int> sweep;
  for (int t = 1; t <= max_t; t *= 2) {
    sweep.push_back(t);
  }
  if (sweep.back() != max_t) {
    sweep.push_back(max_t);
  }
  return sweep;
}

void install_metrics_sidecar() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("AOADMM_BENCH_METRICS_JSON");
    if (path == nullptr || *path == '\0') {
      return;
    }
    // atexit handlers take no arguments; park the path in static storage.
    static std::string sidecar_path;
    sidecar_path = path;
    std::atexit([] {
      std::ofstream out(sidecar_path);
      if (out) {
        obs::MetricsRegistry::global().write_json(out);
      }
    });
  });
}

DatasetCache& DatasetCache::instance() {
  static DatasetCache cache;
  install_metrics_sidecar();
  return cache;
}

const CooTensor& DatasetCache::coo(const std::string& name) {
  auto it = coo_.find(name);
  if (it == coo_.end()) {
    const NamedDataset d = frostt_standin(name, bench_scale());
    std::fprintf(stderr, "[bench] generating %s (nnz=%llu)...\n", name.c_str(),
                 static_cast<unsigned long long>(d.spec.nnz));
    it = coo_.emplace(name, make_synthetic(d.spec)).first;
  }
  return it->second;
}

const CsfSet& DatasetCache::csf(const std::string& name) {
  auto it = csf_.find(name);
  if (it == csf_.end()) {
    it = csf_.emplace(name, CsfSet(coo(name))).first;
  }
  return it->second;
}

std::vector<NamedDataset> DatasetCache::descriptors() const {
  return frostt_standins(bench_scale());
}

CpdConfig default_cpd_config() {
  CpdConfig cfg;
  cfg.rank = bench_rank();
  cfg.tolerance = 1e-6;  // paper §V.A
  cfg.max_outer_iterations = bench_max_outer(200);
  cfg.admm.tolerance = 1e-2;
  // AO-ADMM runs few inner iterations per update (warm starts make the
  // subproblems easy; cf. Huang et al. and bench_ablation_inner_iters).
  cfg.admm.max_iterations = 5;
  cfg.admm.block_size = 50;  // paper §IV.B
  cfg.seed = 4242;
  cfg.with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  return cfg;
}

SyntheticSpec zipf_workload(std::size_t order, real_t alpha) {
  SyntheticSpec spec;
  switch (order) {
    case 3:
      // Strong mode-length skew + low density: the resolve_auto_kernel
      // regime that routes order-3 ONEMODE sets to kAlto (fiber splitting
      // degenerates; the linearized stream stays evenly partitionable).
      spec.dims = {30000, 400, 300};
      spec.nnz = 400000;
      break;
    case 4:
      spec.dims = {800, 700, 600, 500};
      spec.nnz = 300000;
      break;
    case 5:
      spec.dims = {220, 190, 160, 140, 120};
      spec.nnz = 250000;
      break;
    default:
      throw InvalidArgument("zipf_workload: order must be 3, 4 or 5");
  }
  spec.nnz = static_cast<offset_t>(static_cast<real_t>(spec.nnz) *
                                   bench_scale());
  spec.zipf_alpha = {alpha};
  spec.true_rank = 8;
  spec.seed = 20260809 + static_cast<std::uint64_t>(order);
  return spec;
}

TablePrinter::TablePrinter(std::vector<std::string> headers,
                           std::vector<int> widths)
    : headers_(std::move(headers)), widths_(std::move(widths)) {}

void TablePrinter::print_header() const {
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    std::printf("%-*s", widths_[i], headers_[i].c_str());
  }
  std::printf("\n");
  int total = 0;
  for (const int w : widths_) {
    total += w;
  }
  for (int i = 0; i < total; ++i) {
    std::printf("-");
  }
  std::printf("\n");
}

void TablePrinter::print_row(const std::vector<std::string>& cells) const {
  for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
    std::printf("%-*s", widths_[i], cells[i].c_str());
  }
  std::printf("\n");
}

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::pct(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
  return buf;
}

void print_banner(const std::string& experiment, const std::string& summary) {
  install_metrics_sidecar();
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", summary.c_str());
  std::printf("workloads: synthetic FROSTT stand-ins (scale=%.3g, rank=%u, "
              "threads<=%d)\n",
              static_cast<double>(bench_scale()),
              static_cast<unsigned>(bench_rank()), max_threads());
  std::printf("shape (who wins / crossovers) is the reproduction target, not "
              "absolute seconds.\n");
  std::printf("================================================================\n");
}

}  // namespace aoadmm::bench
