// Sharded AO-ADMM driver: the medium-grained grid decomposition of Liavas
// & Sidiropoulos layered over this library's constrained inner solves.
//
// The tensor is split into an N-D grid of CSF tiles (dist/shard_plan.hpp).
// One worker thread per shard computes that tile's MTTKRP partial against
// its local factor blocks; a transport-shaped Exchange (dist/exchange.hpp)
// carries the partials to the coordinator, which reduces them in fixed
// shard-id order into the global K, runs the exact same per-mode ADMM
// update the unsharded CpdSolver runs (core/mode_update.hpp), and
// broadcasts the updated factor rows back to the shards that intersect
// them. The AO-ADMM structure is untouched — constraints, robustness,
// adaptive rho, checkpointing, and convergence all compose per mode
// exactly as in the single-tensor solver; only the MTTKRP is distributed.
//
// Out-of-core mode (ShardOptions::spill_dir): tiles are serialized to the
// spill directory at construction and mmap-streamed back per sweep step
// under a TileResidency byte budget, so the tensor's compiled form never
// has to fit in RAM at once.
//
// Determinism: the plan's fixed reduction order makes repeated runs
// bitwise identical, and a 1x1x1 grid reproduces the unsharded
// kOneTree/kOneMode solve bitwise (same tree, same kernels, same sum
// order). Multi-shard grids change the floating-point reduction order of
// K, so factors agree with the unsharded run only to roundoff.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/cpd.hpp"
#include "core/outer_loop.hpp"
#include "dist/exchange.hpp"
#include "dist/shard_plan.hpp"
#include "dist/tile_store.hpp"

namespace aoadmm {

class ShardedCpdSolver {
 public:
  /// Partition `coo` per config.shards, compile (and in out-of-core mode
  /// spill) the tiles, and start one worker thread per shard. The COO
  /// tensor is only read during construction and need not outlive the
  /// solver. Throws InvalidArgument on validation errors.
  ShardedCpdSolver(const CooTensor& coo, CpdConfig config);
  ~ShardedCpdSolver();

  ShardedCpdSolver(const ShardedCpdSolver&) = delete;
  ShardedCpdSolver& operator=(const ShardedCpdSolver&) = delete;

  const CpdConfig& config() const noexcept { return config_; }
  const ValidationReport& validation() const noexcept { return validation_; }
  const ShardPlan& plan() const noexcept { return plan_; }

  /// Cold solve from config.seed — same init draw order as CpdSolver.
  CpdResult solve();

  /// Continue a checkpointed run (same file format as CpdSolver — a
  /// checkpoint written by either solver resumes on any grid).
  CpdResult resume(const std::string& checkpoint_path);

  /// Cumulative exchange traffic (wire bytes/messages).
  ExchangeStats exchange_stats() const { return exchange_->stats(); }
  /// Out-of-core residency counters; zeros when running in-RAM.
  TileResidency::Stats residency_stats() const;

 private:
  struct Worker;
  class Step;

  /// Run the shared outer loop (core/outer_loop.hpp) with the sharded step.
  CpdResult run(unsigned start_outer, real_t prev_error, CpdResult result);
  void broadcast_mode(std::size_t mode, std::uint64_t epoch);
  /// Issue kTask to every worker for `mode` and reduce their partials in
  /// shard-id order into state_.ws.mttkrp_out. Returns the worst worker busy
  /// time minus the mean (imbalance inputs).
  void sweep_mode(std::size_t mode, std::uint64_t epoch, double& max_busy,
                  double& sum_busy);
  void worker_main(std::size_t shard);
  void stop_workers();

  CpdConfig config_;
  ValidationReport validation_;
  ShardPlan plan_;
  real_t x_norm_sq_ = 0;

  std::unique_ptr<TileStore> store_;          // out-of-core only
  std::unique_ptr<TileResidency> residency_;  // out-of-core only
  std::vector<std::shared_ptr<const CsfTensor>> tiles_;  // in-RAM only

  std::unique_ptr<InProcExchange> exchange_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  bool workers_stopped_ = false;

  detail::SolverState state_;  // factors, duals, prox, workspaces
};

}  // namespace aoadmm
