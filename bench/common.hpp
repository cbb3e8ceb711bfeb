// Shared infrastructure for the paper-reproduction benchmarks: the dataset
// registry (FROSTT stand-ins, cached per process), environment-variable
// scaling knobs, and fixed-width table printing that mirrors the paper's
// tables.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "tensor/coo.hpp"
#include "tensor/csf.hpp"
#include "tensor/synthetic.hpp"

namespace aoadmm::bench {

/// Workload-size multiplier, env AOADMM_BENCH_SCALE (default 0.25 — sized
/// for a single-core container; raise toward 1.0 on a real workstation).
real_t bench_scale();

/// Rank used by the headline benchmarks, env AOADMM_BENCH_RANK (default 16,
/// the scaled analogue of the paper's rank 50).
rank_t bench_rank();

/// Outer-iteration cap, env AOADMM_BENCH_MAX_OUTER (default varies per
/// harness; this returns the override or `fallback`).
unsigned bench_max_outer(unsigned fallback);

/// Thread counts to sweep for the scaling figures: {1, 2, 4, ...} up to
/// env AOADMM_BENCH_MAX_THREADS (default: hardware concurrency).
std::vector<int> bench_thread_sweep();

/// Lazily generated, process-cached dataset instances.
class DatasetCache {
 public:
  /// The tensor for a named stand-in at bench_scale().
  const CooTensor& coo(const std::string& name);
  /// Its CSF compilation (built once).
  const CsfSet& csf(const std::string& name);
  /// All four stand-in descriptors at bench_scale().
  std::vector<NamedDataset> descriptors() const;

  static DatasetCache& instance();

 private:
  std::map<std::string, CooTensor> coo_;
  std::map<std::string, CsfSet> csf_;
};

/// Default CPD configuration shared by the harnesses: non-negativity on
/// every mode, rank/tolerances per paper, iteration caps scaled for the
/// container.
CpdConfig default_cpd_config();

/// Power-law MTTKRP workload for the kernel head-to-head suite
/// (bench_mttkrp_kernels): `order` in {3, 4, 5} with per-mode Zipf
/// exponent `alpha` (default 1.3 — strong popularity skew, the regime
/// where linearized/cached kernels separate from the plain tree walk).
/// Non-zero counts scale with bench_scale(); deterministic per
/// (order, alpha). Dims stay within the 64-bit ALTO code budget.
SyntheticSpec zipf_workload(std::size_t order, real_t alpha = 1.3);

/// Fixed-width table printing.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::vector<int> widths);
  void print_header() const;
  void print_row(const std::vector<std::string>& cells) const;
  static std::string fmt(double v, int precision = 2);
  static std::string pct(double v, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// Banner with the experiment id and the substitution notice.
void print_banner(const std::string& experiment, const std::string& summary);

/// If env AOADMM_BENCH_METRICS_JSON names a path, registers (once per
/// process) an atexit hook that dumps the global metric registry there as
/// JSON — a machine-readable sidecar next to every harness's table output.
/// print_banner() and DatasetCache::instance() call this, so every bench
/// binary gets the hook without touching its main().
void install_metrics_sidecar();

}  // namespace aoadmm::bench
