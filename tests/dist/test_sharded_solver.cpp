// Equivalence and durability tests for the sharded AO-ADMM driver.
//
// The contract under test (dist/sharded_solver.hpp): a 1x1x1 grid
// reproduces the unsharded kOneTree/kOneMode solve bitwise; multi-shard
// grids agree with the unsharded fit to roundoff (the reduction order of
// the MTTKRP partials changes, nothing else); repeated runs of any fixed
// grid are bitwise identical; and out-of-core mode is bitwise identical to
// the same grid in RAM.
#include "dist/sharded_solver.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

/// Exception used to simulate a mid-run kill from the iteration callback.
struct KillSignal {};

CooTensor shard_tensor(std::uint64_t seed = 13) {
  return testing::dense_lowrank_tensor({14, 11, 9}, 3, 0.02, seed);
}

CpdConfig shard_config(ConstraintKind kind = ConstraintKind::kNonNegative) {
  CpdConfig cfg;
  cfg.with_rank(5).with_max_outer(12).with_tolerance(1e-12).with_seed(123);
  cfg.admm.max_iterations = 25;
  cfg.admm.tolerance = 1e-2;
  cfg.admm.block_size = 16;
  ConstraintSpec spec;
  spec.kind = kind;
  cfg.with_constraints(ModeConstraints::broadcast(spec));
  return cfg;
}

/// The unsharded reference the grids are compared against: the same
/// configuration solved by CpdSolver on the single-tree compilation (the
/// kernels the shard workers run).
CpdResult unsharded_reference(const CooTensor& x, CpdConfig cfg) {
  cfg.mttkrp_kernel = MttkrpKernel::kOneTree;
  const CsfSet csf(x, CsfStrategy::kOneMode);
  CpdSolver solver(csf, cfg);
  return solver.solve();
}

CpdResult sharded_solve(const CooTensor& x, CpdConfig cfg,
                        std::vector<std::size_t> grid,
                        const std::string& spill_dir = "",
                        std::size_t max_resident = 0) {
  ShardOptions so;
  so.grid = std::move(grid);
  so.spill_dir = spill_dir;
  so.max_resident_bytes = max_resident;
  cfg.with_shards(so);
  ShardedCpdSolver solver(x, cfg);
  return solver.solve();
}

void expect_factors_bitwise(const CpdResult& a, const CpdResult& b) {
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    const auto fa = a.factors[m].flat();
    const auto fb = b.factors[m].flat();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      ASSERT_EQ(fa[i], fb[i]) << "factor " << m << " entry " << i;
    }
  }
}

TEST(ShardedSolver, SingleCellGridMatchesUnshardedSolveBitwise) {
  const CooTensor x = shard_tensor();
  const CpdResult ref = unsharded_reference(x, shard_config());
  const CpdResult sh = sharded_solve(x, shard_config(), {1, 1, 1});
  EXPECT_EQ(sh.outer_iterations, ref.outer_iterations);
  EXPECT_EQ(sh.total_inner_iterations, ref.total_inner_iterations);
  ASSERT_EQ(sh.trace.size(), ref.trace.size());
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    EXPECT_EQ(sh.trace.points()[i].relative_error,
              ref.trace.points()[i].relative_error)
        << "trace diverges at point " << i;
  }
  expect_factors_bitwise(sh, ref);
}

TEST(ShardedSolver, GridsMatchUnshardedFitToRoundoff) {
  const CooTensor x = shard_tensor();
  for (const ConstraintKind kind :
       {ConstraintKind::kNonNegative, ConstraintKind::kNone}) {
    const CpdResult ref = unsharded_reference(x, shard_config(kind));
    for (const std::vector<std::size_t>& grid :
         {std::vector<std::size_t>{1, 1, 1}, {2, 2, 1}, {2, 2, 2}}) {
      const CpdResult sh = sharded_solve(x, shard_config(kind), grid);
      EXPECT_EQ(sh.outer_iterations, ref.outer_iterations);
      EXPECT_NEAR(static_cast<double>(sh.relative_error),
                  static_cast<double>(ref.relative_error), 1e-8)
          << "grid " << grid_to_string(grid) << " constraint "
          << static_cast<int>(kind);
    }
  }
}

TEST(ShardedSolver, Order4GridsMatchUnshardedFitToRoundoff) {
  const CooTensor x = testing::dense_lowrank_tensor({10, 8, 7, 6}, 3, 0.02);
  const CpdResult ref = unsharded_reference(x, shard_config());
  for (const std::vector<std::size_t>& grid :
       {std::vector<std::size_t>{1, 1, 1, 1}, {2, 2, 1, 1}, {2, 2, 2, 1}}) {
    const CpdResult sh = sharded_solve(x, shard_config(), grid);
    EXPECT_NEAR(static_cast<double>(sh.relative_error),
                static_cast<double>(ref.relative_error), 1e-8)
        << "grid " << grid_to_string(grid);
  }
}

TEST(ShardedSolver, RepeatedRunsAreBitwiseIdentical) {
  // The fixed shard-id reduction order must make multi-shard runs exactly
  // reproducible, not just statistically close.
  const CooTensor x = shard_tensor(17);
  const CpdResult a = sharded_solve(x, shard_config(), {2, 2, 2});
  const CpdResult b = sharded_solve(x, shard_config(), {2, 2, 2});
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.points()[i].relative_error,
              b.trace.points()[i].relative_error);
  }
  expect_factors_bitwise(a, b);
}

TEST(ShardedSolver, OutOfCoreIsBitwiseIdenticalToInRam) {
  const CooTensor x = shard_tensor(19);
  const std::string dir = ::testing::TempDir() + "aoadmm_shard_ooc";
  const CpdResult in_ram = sharded_solve(x, shard_config(), {2, 2, 1});
  const CpdResult ooc = sharded_solve(x, shard_config(), {2, 2, 1}, dir);
  EXPECT_EQ(ooc.outer_iterations, in_ram.outer_iterations);
  expect_factors_bitwise(ooc, in_ram);
}

TEST(ShardedSolver, TightResidencyBudgetStreamsTilesAndStillMatches) {
  // A 1-byte budget forces every tile over budget: each sweep step decodes
  // its tile from the spill file and evicts it on release. The numeric
  // result must be unaffected — only loads/evictions change.
  const CooTensor x = shard_tensor(23);
  const std::string dir = ::testing::TempDir() + "aoadmm_shard_tight";
  const CpdResult in_ram = sharded_solve(x, shard_config(), {2, 2, 2});

  ShardOptions so;
  so.grid = {2, 2, 2};
  so.spill_dir = dir;
  so.max_resident_bytes = 1;
  CpdConfig cfg = shard_config();
  cfg.with_shards(so);
  ShardedCpdSolver solver(x, cfg);
  const CpdResult streamed = solver.solve();
  expect_factors_bitwise(streamed, in_ram);

  const TileResidency::Stats rs = solver.residency_stats();
  EXPECT_GT(rs.loads, 8u);  // re-decoded per sweep step, not once per tile
  EXPECT_GT(rs.evictions, 0u);
  // The working set the budget replaced is the whole tiling — at least the
  // 4x head room the out-of-core mode exists to provide.
  std::size_t tiling_bytes = 0;
  const ShardPlan& plan = solver.plan();
  for (std::size_t id = 0; id < plan.shard_count(); ++id) {
    tiling_bytes +=
        CsfTensor::build_for_mode(extract_tile(x, plan, id), 0)
            .storage_bytes();
  }
  EXPECT_GE(tiling_bytes, 4 * so.max_resident_bytes);
}

TEST(ShardedSolver, ResumeAfterKillReproducesUninterruptedTraceExactly) {
  const CooTensor x = shard_tensor();
  const std::string path = ::testing::TempDir() + "aoadmm_shard_kill.ckpt";

  CpdConfig ref_cfg = shard_config();
  ref_cfg.with_max_outer(14);
  ShardOptions so;
  so.grid = {2, 2, 1};

  // Reference: the uninterrupted sharded run.
  CpdConfig cfg = ref_cfg;
  cfg.with_shards(so);
  ShardedCpdSolver ref_solver(x, cfg);
  const CpdResult ref = ref_solver.solve();
  ASSERT_EQ(ref.outer_iterations, 14u) << "tolerance should not trigger";

  // Killed run: checkpoint every 4 sweeps, die at iteration 10 (newest
  // surviving checkpoint is from iteration 8).
  CpdConfig killed_cfg = ref_cfg;
  killed_cfg.with_shards(so).with_checkpoint(path, 4);
  killed_cfg.on_iteration = [](const obs::MetricsSnapshot& s) {
    if (s.outer_iteration == 10) {
      throw KillSignal{};
    }
  };
  {
    ShardedCpdSolver killed(x, killed_cfg);
    EXPECT_THROW(killed.solve(), KillSignal);
  }

  // Resume in a brand-new solver, as a restarted process would.
  CpdConfig resume_cfg = ref_cfg;
  resume_cfg.with_shards(so).with_checkpoint(path, 4);
  ShardedCpdSolver resumed_solver(x, resume_cfg);
  const CpdResult resumed = resumed_solver.resume(path);

  EXPECT_EQ(resumed.outer_iterations, ref.outer_iterations);
  EXPECT_EQ(resumed.total_inner_iterations, ref.total_inner_iterations);
  ASSERT_EQ(resumed.trace.size(), ref.trace.size());
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    EXPECT_EQ(resumed.trace.points()[i].relative_error,
              ref.trace.points()[i].relative_error)
        << "trace diverges at point " << i;
  }
  expect_factors_bitwise(resumed, ref);
  std::remove(path.c_str());
}

TEST(ShardedSolver, CheckpointsCrossBetweenShardedAndUnshardedSolvers) {
  // The checkpoint format carries no grid: a file written by the unsharded
  // solver resumes on any grid (and vice versa).
  const CooTensor x = shard_tensor();
  const std::string path = ::testing::TempDir() + "aoadmm_shard_cross.ckpt";

  CpdConfig cfg = shard_config();
  cfg.mttkrp_kernel = MttkrpKernel::kOneTree;
  cfg.with_checkpoint(path, 5);  // last surviving checkpoint: iteration 10
  const CsfSet csf(x, CsfStrategy::kOneMode);
  CpdSolver unsharded(csf, cfg);
  const CpdResult ref = unsharded.solve();

  CpdConfig scfg = shard_config();
  ShardOptions so;
  so.grid = {1, 1, 1};
  scfg.with_shards(so);
  ShardedCpdSolver sharded(x, scfg);
  const CpdResult resumed = sharded.resume(path);
  EXPECT_EQ(resumed.outer_iterations, ref.outer_iterations);
  // 1x1x1 runs the same kernels in the same order: bitwise continuation.
  EXPECT_EQ(resumed.relative_error, ref.relative_error);
  expect_factors_bitwise(resumed, ref);
  std::remove(path.c_str());
}

TEST(ShardedSolver, ReportsExchangeTrafficAndSnapshotFields) {
  const CooTensor x = shard_tensor();
  CpdConfig cfg = shard_config();
  ShardOptions so;
  so.grid = {2, 2, 1};
  cfg.with_shards(so);
  bool saw_snapshot = false;
  cfg.on_iteration = [&](const obs::MetricsSnapshot& s) {
    saw_snapshot = true;
    EXPECT_GE(s.shard_imbalance, 0.0);
    EXPECT_LE(s.shard_imbalance, 1.0);
    EXPECT_GT(s.exchange_bytes, 0u);
  };
  ShardedCpdSolver solver(x, cfg);
  const CpdResult r = solver.solve();
  EXPECT_TRUE(saw_snapshot);
  EXPECT_GT(r.mttkrp_count, 0u);
  const ExchangeStats es = solver.exchange_stats();
  // Per sweep step: 4 tasks + 4 partials + 4 broadcasts, 3 modes per outer.
  EXPECT_GE(es.messages, static_cast<std::uint64_t>(r.outer_iterations) * 36);
  EXPECT_GT(es.bytes, 0u);
  // In-RAM runs have no residency activity.
  const TileResidency::Stats rs = solver.residency_stats();
  EXPECT_EQ(rs.loads, 0u);
  EXPECT_EQ(rs.evictions, 0u);
}

TEST(ShardedSolver, ConstructorRejectsInvalidShardConfig) {
  const CooTensor x = shard_tensor();
  {
    CpdConfig cfg = shard_config();
    ShardOptions so;
    so.grid = {2, 2};  // wrong arity for an order-3 tensor
    cfg.with_shards(so);
    try {
      ShardedCpdSolver solver(x, cfg);
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("shards.grid"), std::string::npos);
    }
  }
  {
    CpdConfig cfg = shard_config();
    ShardOptions so;
    so.grid = {2, 2, 1};
    so.max_resident_bytes = 1 << 20;  // budget without a spill dir
    cfg.with_shards(so);
    EXPECT_THROW(ShardedCpdSolver(x, cfg), InvalidArgument);
  }
  {
    CpdConfig cfg = shard_config();
    cfg.with_shards(ShardOptions{});  // not enabled
    EXPECT_THROW(ShardedCpdSolver(x, cfg), InvalidArgument);
  }
}

}  // namespace
}  // namespace aoadmm
