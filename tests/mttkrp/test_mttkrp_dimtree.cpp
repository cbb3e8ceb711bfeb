// Tests for the dimension-tree MTTKRP engine: COO-oracle agreement for
// every target mode across orders / ranks / thread counts, correctness of
// the per-mode cache invalidation under cyclic factor updates, the reuse
// counters, bitwise determinism, the kAuto kernel-selection heuristic, and
// end-to-end solver agreement with the one-tree baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/cpd.hpp"
#include "core/solver.hpp"
#include "la/blas.hpp"
#include "mttkrp/dimtree.hpp"
#include "mttkrp/mttkrp.hpp"
#include "parallel/runtime.hpp"
#include "tensor/csf.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

/// Restore the global thread count on scope exit.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(max_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  int saved_;
};

using SweepParam = std::tuple<int, int>;

class MttkrpDimTreeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MttkrpDimTreeSweep, MatchesOracleEveryTargetSerialAndOversubscribed) {
  const auto [order, rank] = GetParam();
  std::vector<index_t> dims;
  for (int m = 0; m < order; ++m) {
    dims.push_back(static_cast<index_t>(6 + 3 * m));
  }
  const auto seed = static_cast<std::uint64_t>(order * 389 + rank);
  const CooTensor x =
      testing::random_coo(dims, 100 * static_cast<offset_t>(order), seed);
  const auto factors =
      testing::random_factors(dims, static_cast<rank_t>(rank), seed + 1);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);

  ThreadGuard guard;
  for (const int threads : {1, 2 * max_threads() + 3}) {
    set_num_threads(threads);
    detail::DimTreeEngine engine;
    for (std::size_t target = 0; target < dims.size(); ++target) {
      Matrix k;
      engine.mttkrp(csf, factors, target, k);
      Matrix k_oracle;
      mttkrp_coo(x, factors, target, k_oracle);
      EXPECT_LT(max_abs_diff(k, k_oracle), 1e-12)
          << "order " << order << " rank " << rank << " threads " << threads
          << " target " << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersRanks, MttkrpDimTreeSweep,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Values(1, 7, 8, 32, 33)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "order" + std::to_string(std::get<0>(info.param)) + "_rank" +
             std::to_string(std::get<1>(info.param));
    });

TEST(MttkrpDimTree, InvalidationTracksCyclicFactorUpdates) {
  // Simulate the solver's sweep: MTTKRP for mode m, update factor m,
  // invalidate_mode(m), next mode — twice around. Every call must match a
  // from-scratch oracle on the *current* factors, which fails if any stale
  // partial survives its input's update.
  const std::vector<index_t> dims{11, 8, 13, 7};
  const CooTensor x = testing::random_coo(dims, 500, 977);
  auto factors = testing::random_factors(dims, 9, 978);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);

  detail::DimTreeEngine engine;
  Rng rng(979);
  for (int iter = 0; iter < 2; ++iter) {
    for (std::size_t m = 0; m < dims.size(); ++m) {
      Matrix k;
      engine.mttkrp(csf, factors, m, k);
      Matrix k_oracle;
      mttkrp_coo(x, factors, m, k_oracle);
      ASSERT_LT(max_abs_diff(k, k_oracle), 1e-12)
          << "iter " << iter << " mode " << m;
      factors[m] = Matrix::random_uniform(dims[m], 9, rng, 0.0, 1.0);
      engine.invalidate_mode(m);
    }
  }
}

TEST(MttkrpDimTree, ReusesCachedLevelsAcrossTheSweep) {
  const std::vector<index_t> dims{10, 9, 8, 7, 6};
  const CooTensor x = testing::random_coo(dims, 600, 980);
  const auto factors = testing::random_factors(dims, 8, 981);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);

  detail::DimTreeEngine engine;
  Matrix k;
  for (std::size_t m = 0; m < dims.size(); ++m) {
    engine.mttkrp(csf, factors, m, k);
  }
  const detail::DimTreeStats after_first = engine.stats();
  EXPECT_GT(after_first.levels_computed, 0u);
  // Factors unchanged between targets, so the later targets of the sweep
  // must have served some levels from cache.
  EXPECT_GT(after_first.levels_reused, 0u);

  // A second identical sweep reuses everything it needs.
  for (std::size_t m = 0; m < dims.size(); ++m) {
    engine.mttkrp(csf, factors, m, k);
  }
  const detail::DimTreeStats after_second = engine.stats();
  EXPECT_EQ(after_second.levels_computed, after_first.levels_computed);
  EXPECT_GT(after_second.levels_reused, after_first.levels_reused);

  engine.invalidate_all();
  engine.mttkrp(csf, factors, 0, k);
  EXPECT_GT(engine.stats().levels_computed, after_second.levels_computed);
}

TEST(MttkrpDimTree, BitwiseDeterministicWhenOversubscribed) {
  const std::vector<index_t> dims{30, 24, 18, 12};
  const CooTensor x = testing::random_coo(dims, 2000, 982);
  const auto factors = testing::random_factors(dims, 10, 983);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);

  ThreadGuard guard;
  set_num_threads(2 * max_threads() + 5);
  for (std::size_t target = 0; target < dims.size(); ++target) {
    detail::DimTreeEngine engine;
    Matrix first;
    engine.mttkrp(csf, factors, target, first);
    for (int rep = 0; rep < 3; ++rep) {
      detail::DimTreeEngine fresh;  // cold cache: recompute everything
      Matrix again;
      fresh.mttkrp(csf, factors, target, again);
      ASSERT_EQ(first.rows(), again.rows());
      ASSERT_EQ(first.cols(), again.cols());
      for (std::size_t i = 0; i < first.rows() * first.cols(); ++i) {
        ASSERT_EQ(first.data()[i], again.data()[i])
            << "target " << target << " rep " << rep << " element " << i;
      }
    }
  }
}

TEST(MttkrpDimTree, DispatchRoutesThroughTheEngine) {
  const std::vector<index_t> dims{12, 15, 9, 8};
  const CooTensor x = testing::random_coo(dims, 400, 984);
  const auto factors = testing::random_factors(dims, 6, 985);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 1);

  detail::DimTreeEngine engine;
  for (std::size_t target = 0; target < dims.size(); ++target) {
    Matrix k;
    mttkrp_dispatch(csf, factors, target, k, MttkrpKernel::kDimTree, &engine);
    Matrix k_oracle;
    mttkrp_coo(x, factors, target, k_oracle);
    EXPECT_LT(max_abs_diff(k, k_oracle), 1e-12) << "target " << target;
  }
  // The engine is mandatory for this kernel.
  Matrix k;
  EXPECT_THROW(mttkrp_dispatch(csf, factors, 0, k,
                               MttkrpKernel::kDimTree, nullptr),
               Error);
}

TEST(MttkrpDimTree, AutoKernelSelectionHeuristic) {
  const std::vector<index_t> cube{32, 30, 28};
  const std::vector<index_t> skewed{4000, 50, 40};
  const std::vector<index_t> order4{20, 18, 16, 14};

  // Explicit requests pass through untouched.
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kOneTree,
                                CsfStrategy::kOneMode, false, true, 3, cube,
                                900),
            MttkrpKernel::kOneTree);
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kAlto, CsfStrategy::kOneMode,
                                false, true, 3, cube, 900),
            MttkrpKernel::kAlto);
  // ALLMODE sets keep the per-mode root kernels.
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kAuto, CsfStrategy::kAllMode,
                                false, true, 4, order4, 900),
            MttkrpKernel::kAllMode);
  // Compressed leaf mirrors rule out the cached-intermediate kernels.
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kAuto, CsfStrategy::kOneMode,
                                false, false, 4, order4, 900),
            MttkrpKernel::kOneTree);
  // Deep trees amortize cached partials: order >= 4 picks the dimension
  // tree while the rank keeps the O(nnz x rank) caches affordable.
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kAuto, CsfStrategy::kOneMode,
                                false, true, 4, order4, 900),
            MttkrpKernel::kDimTree);
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kAuto, CsfStrategy::kOneMode,
                                false, true, 4, order4, 900,
                                kDimTreeMaxRank - 1),
            MttkrpKernel::kDimTree);
  // At kDimTreeMaxRank and beyond the cache traffic outweighs the saved
  // flops; kAuto falls back to the one-tree walk.
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kAuto, CsfStrategy::kOneMode,
                                false, true, 4, order4, 900, kDimTreeMaxRank),
            MttkrpKernel::kOneTree);
  // An explicit kDimTree request at high rank still passes through.
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kDimTree, CsfStrategy::kOneMode,
                                false, true, 4, order4, 900,
                                2 * kDimTreeMaxRank),
            MttkrpKernel::kDimTree);
  // Order 3, balanced and dense-ish: stay on the one-tree walk.
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kAuto, CsfStrategy::kOneMode,
                                false, true, 3, cube, 9000),
            MttkrpKernel::kOneTree);
  // Order 3, heavy mode-length skew at low density: linearize.
  EXPECT_EQ(resolve_auto_kernel(MttkrpKernel::kAuto, CsfStrategy::kOneMode,
                                false, true, 3, skewed, 500),
            MttkrpKernel::kAlto);
}

TEST(MttkrpDimTree, SolverRejectsIncoherentDimTreeRequests) {
  const std::vector<index_t> dims{12, 10, 14};
  const CooTensor x = testing::random_coo(dims, 300, 986);
  CpdConfig cfg;
  cfg.with_rank(4).with_max_outer(2);

  // dimtree needs the one-mode (single shared tree) compilation.
  {
    const CsfSet all(x);  // kAllMode
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kDimTree);
    EXPECT_THROW(CpdSolver(all, bad), InvalidArgument);
  }
  // config-level: dimtree + compressed leaf format is an error.
  {
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kDimTree)
        .with_leaf_format(LeafFormat::kCsr);
    EXPECT_FALSE(bad.validate(3).ok());
  }
  // config-level: generalized loss + dimtree is an error (the per-row solve
  // needs mode-rooted ALLMODE trees).
  {
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kDimTree);
    bad.loss.kind = LossKind::kKL;
    EXPECT_FALSE(bad.validate(3).ok());
  }
}

TEST(MttkrpDimTree, SolverEndToEndMatchesOneTree) {
  const std::vector<index_t> dims{22, 17, 14, 11};
  const CooTensor x = testing::random_coo(dims, 1200, 987);
  const CsfSet one(x, CsfStrategy::kOneMode);

  CpdConfig base;
  base.with_rank(6).with_max_outer(6).with_tolerance(0);

  CpdConfig onetree_cfg = base;
  onetree_cfg.with_mttkrp_kernel(MttkrpKernel::kOneTree);
  CpdSolver onetree_solver(one, onetree_cfg);
  const CpdResult r_onetree = onetree_solver.solve();

  CpdConfig dimtree_cfg = base;
  dimtree_cfg.with_mttkrp_kernel(MttkrpKernel::kDimTree);
  std::uint64_t computed = 0;
  std::uint64_t reused = 0;
  dimtree_cfg.on_iteration = [&](const obs::MetricsSnapshot& snap) {
    computed += snap.dimtree_levels_computed;
    reused += snap.dimtree_levels_reused;
  };
  CpdSolver dimtree_solver(one, dimtree_cfg);
  const CpdResult r_dimtree = dimtree_solver.solve();

  EXPECT_EQ(r_onetree.outer_iterations, r_dimtree.outer_iterations);
  EXPECT_NEAR(r_onetree.relative_error, r_dimtree.relative_error, 1e-7);
  EXPECT_GT(computed, 0u);
  EXPECT_GT(reused, 0u);
}

TEST(MttkrpDimTree, AlsEndToEndMatchesOneTree) {
  const std::vector<index_t> dims{18, 15, 12, 9};
  const CooTensor x = testing::random_coo(dims, 900, 988);
  const CsfSet one(x, CsfStrategy::kOneMode);

  CpdConfig cfg;
  cfg.with_rank(5).with_max_outer(5).with_tolerance(0);

  CpdConfig onetree_opts = cfg;
  onetree_opts.mttkrp_kernel = MttkrpKernel::kOneTree;
  const CpdResult r_onetree = cpd_als(one, onetree_opts);

  CpdConfig dimtree_opts = cfg;
  dimtree_opts.mttkrp_kernel = MttkrpKernel::kDimTree;
  const CpdResult r_dimtree = cpd_als(one, dimtree_opts);

  EXPECT_EQ(r_onetree.outer_iterations, r_dimtree.outer_iterations);
  EXPECT_NEAR(r_onetree.relative_error, r_dimtree.relative_error, 1e-7);

  // dimtree on an ALLMODE set is rejected up front.
  const CsfSet all(x);
  EXPECT_THROW(cpd_als(all, dimtree_opts), InvalidArgument);
}

}  // namespace
}  // namespace aoadmm
