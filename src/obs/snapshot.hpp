// Per-outer-iteration metrics delivered to CpdConfig::on_iteration. One
// snapshot is produced at the end of every outer iteration, covering that
// iteration (plus a few cumulative run totals, marked below).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/types.hpp"

namespace aoadmm::obs {

struct MetricsSnapshot {
  unsigned outer_iteration = 0;
  /// Wall-clock seconds since the run started.
  double seconds = 0;
  /// Wall-clock seconds of this outer iteration alone.
  double iteration_seconds = 0;
  real_t relative_error = 0;

  /// MTTKRP seconds per mode, this iteration (size = tensor order).
  std::vector<double> mode_mttkrp_seconds;
  /// ADMM (or ALS-solve) seconds, this iteration.
  double admm_seconds = 0;
  /// ADMM inner iterations summed over modes, this iteration.
  std::uint64_t admm_inner_iterations = 0;

  /// Final ADMM residuals across this iteration's mode updates: the worst
  /// (max) and mean over modes. Zero for cpd_als (no ADMM ran).
  real_t worst_primal_residual = 0;
  real_t mean_primal_residual = 0;
  real_t worst_dual_residual = 0;
  real_t mean_dual_residual = 0;

  /// Thread busy-time imbalance of the parallel regions that ran in this
  /// iteration: 1 - mean/max in [0, 1]; 0 = perfectly balanced or serial.
  double thread_imbalance = 0;

  /// Same imbalance measure restricted to the MTTKRP kernels' parallel
  /// regions this iteration (the load-balance signal the nnz-weighted
  /// schedules exist to drive down), plus the raw busy-time extremes
  /// behind it.
  double mttkrp_imbalance = 0;
  double mttkrp_max_busy_seconds = 0;
  double mttkrp_mean_busy_seconds = 0;

  /// Factor density (nnz / (I*F)) per mode at the end of this iteration.
  std::vector<real_t> factor_density;

  /// Cumulative over the run so far.
  std::uint64_t mttkrp_count = 0;
  std::uint64_t sparse_mttkrp_count = 0;

  /// Sharded solves only (dist/sharded_solver.hpp): per-shard busy-time
  /// imbalance this iteration (1 - mean/max, like thread_imbalance) and
  /// exchange wire bytes moved this iteration. Zero for unsharded runs.
  double shard_imbalance = 0;
  std::uint64_t exchange_bytes = 0;

  /// Single-line JSON object (suitable for JSON-lines progress streams).
  void write_json(std::ostream& out) const;
};

}  // namespace aoadmm::obs
