// Tests for the atomic-free MTTKRP scheduling policies: every explicit
// schedule (dynamic / weighted / owner) against the COO oracle across
// orders, ranks straddling the fixed-rank microkernel dispatch points, and
// thread counts (serial + oversubscribed), plus the structural invariants
// of the cached scheduling plans and the determinism the atomic-free
// kernels guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/solver.hpp"
#include "la/blas.hpp"
#include "mttkrp/mttkrp.hpp"
#include "parallel/runtime.hpp"
#include "tensor/csf.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

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

// Order x rank x schedule; ranks straddle the fixed-rank dispatch points
// (8 and 32) from both sides plus rank 1.
using SweepParam = std::tuple<int, int, MttkrpSchedule>;

class MttkrpScheduleSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MttkrpScheduleSweep, NonRootMatchesOracleSerialAndOversubscribed) {
  const auto [order, rank, schedule] = GetParam();
  std::vector<index_t> dims;
  for (int m = 0; m < order; ++m) {
    dims.push_back(static_cast<index_t>(5 + 3 * m));
  }
  const auto seed = static_cast<std::uint64_t>(order * 131 + rank);
  const CooTensor x =
      testing::random_coo(dims, 90 * static_cast<offset_t>(order), seed);
  const auto factors =
      testing::random_factors(dims, static_cast<rank_t>(rank), seed + 1);

  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);
  ThreadGuard guard;
  for (const int threads : {1, 2 * max_threads() + 3}) {
    set_num_threads(threads);
    for (std::size_t target = 1; target < dims.size(); ++target) {
      Matrix k;
      mttkrp_csf_nonroot(csf, factors, target, k, schedule);
      Matrix k_oracle;
      mttkrp_coo(x, factors, target, k_oracle);
      EXPECT_LT(max_abs_diff(k, k_oracle), 1e-12)
          << "order " << order << " rank " << rank << " schedule "
          << to_string(schedule) << " threads " << threads << " target "
          << target;
    }
  }
}

TEST_P(MttkrpScheduleSweep, RootKernelMatchesOracle) {
  const auto [order, rank, schedule] = GetParam();
  std::vector<index_t> dims;
  for (int m = 0; m < order; ++m) {
    dims.push_back(static_cast<index_t>(6 + 2 * m));
  }
  const auto seed = static_cast<std::uint64_t>(order * 257 + rank);
  const CooTensor x =
      testing::random_coo(dims, 80 * static_cast<offset_t>(order), seed);
  const auto factors =
      testing::random_factors(dims, static_cast<rank_t>(rank), seed + 1);

  ThreadGuard guard;
  for (const int threads : {1, 2 * max_threads() + 3}) {
    set_num_threads(threads);
    for (std::size_t root = 0; root < dims.size(); ++root) {
      const CsfTensor csf = CsfTensor::build_for_mode(x, root);
      Matrix k;
      mttkrp_csf(csf, factors, k, /*accumulate=*/false, schedule);
      Matrix k_oracle;
      mttkrp_coo(x, factors, root, k_oracle);
      EXPECT_LT(max_abs_diff(k, k_oracle), 1e-12)
          << "order " << order << " rank " << rank << " schedule "
          << to_string(schedule) << " threads " << threads << " root "
          << root;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersRanksSchedules, MttkrpScheduleSweep,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Values(1, 7, 8, 32, 33),
                       ::testing::Values(MttkrpSchedule::kDynamic,
                                         MttkrpSchedule::kWeighted,
                                         MttkrpSchedule::kOwner)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "order" + std::to_string(std::get<0>(info.param)) + "_rank" +
             std::to_string(std::get<1>(info.param)) + "_" +
             to_string(std::get<2>(info.param));
    });

TEST(MttkrpSchedule, AutoMatchesOracleEverywhere) {
  const std::vector<index_t> dims{14, 9, 17, 6};
  const CooTensor x = testing::random_coo(dims, 400, 901);
  const auto factors = testing::random_factors(dims, 16, 902);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 2);
  for (std::size_t target = 0; target < dims.size(); ++target) {
    Matrix k;
    mttkrp_dispatch(csf, factors, target, k, MttkrpSchedule::kAuto);
    Matrix k_oracle;
    mttkrp_coo(x, factors, target, k_oracle);
    EXPECT_LT(max_abs_diff(k, k_oracle), 1e-12) << "target " << target;
  }
}

TEST(MttkrpSchedule, WeightedAndOwnerAreBitwiseDeterministic) {
  // The atomic kernel's scatter order depends on thread interleaving; the
  // whole point of the privatized/owner kernels is a fixed summation order,
  // so repeated runs must agree to the last bit.
  const std::vector<index_t> dims{40, 25, 30};
  const CooTensor x = testing::random_coo(dims, 2500, 903);
  const auto factors = testing::random_factors(dims, 9, 904);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);

  ThreadGuard guard;
  set_num_threads(2 * max_threads() + 5);
  for (const MttkrpSchedule s :
       {MttkrpSchedule::kWeighted, MttkrpSchedule::kOwner}) {
    Matrix first;
    mttkrp_csf_nonroot(csf, factors, 1, first, s);
    for (int rep = 0; rep < 3; ++rep) {
      Matrix again;
      mttkrp_csf_nonroot(csf, factors, 1, again, s);
      ASSERT_EQ(first.rows(), again.rows());
      ASSERT_EQ(first.cols(), again.cols());
      for (std::size_t i = 0; i < first.rows() * first.cols(); ++i) {
        ASSERT_EQ(first.data()[i], again.data()[i])
            << to_string(s) << " rep " << rep << " element " << i;
      }
    }
  }
}

TEST(MttkrpSchedule, RootPartitionCoversAllRootsAndIsCached) {
  const std::vector<index_t> dims{50, 12, 18};
  const CooTensor x = testing::random_coo(dims, 1200, 905);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);

  const std::vector<std::size_t>& bounds = csf.root_partition(4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), csf.num_nodes(0));
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    EXPECT_LE(bounds[c], bounds[c + 1]);
  }
  // Same geometry -> the exact same cached object.
  EXPECT_EQ(&bounds, &csf.root_partition(4));
  EXPECT_NE(&bounds, &csf.root_partition(3));
}

TEST(MttkrpSchedule, OwnerPlanInvariants) {
  const std::vector<index_t> dims{30, 22, 26, 9};
  const CooTensor x = testing::random_coo(dims, 900, 906);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 1);

  for (std::size_t level = 1; level < csf.order(); ++level) {
    const MttkrpOwnerPlan& plan = csf.owner_plan(level, 4);
    EXPECT_EQ(plan.level, level);
    ASSERT_EQ(plan.root_bounds.size(), plan.parts + 1);
    ASSERT_EQ(plan.node_bounds.size(), plan.parts + 1);
    EXPECT_EQ(plan.root_bounds.front(), 0u);
    EXPECT_EQ(plan.root_bounds.back(), csf.num_nodes(0));
    EXPECT_EQ(plan.node_bounds.front(), 0u);
    EXPECT_EQ(plan.node_bounds.back(), csf.num_nodes(level));
    EXPECT_EQ(plan.row_slot.size(), csf.level_dim(level));

    // Every row listed as shared must actually be hit from >= 2 chunks;
    // every private row from <= 1. Recount from the raw structure.
    const auto fids = csf.fids(level);
    std::vector<int> chunks_touching(csf.level_dim(level), 0);
    std::vector<int> last_chunk(csf.level_dim(level), -1);
    for (std::size_t c = 0; c < plan.parts; ++c) {
      for (offset_t n = plan.node_bounds[c]; n < plan.node_bounds[c + 1];
           ++n) {
        const index_t row = fids[n];
        if (last_chunk[row] != static_cast<int>(c)) {
          last_chunk[row] = static_cast<int>(c);
          ++chunks_touching[row];
        }
      }
    }
    for (std::size_t row = 0; row < chunks_touching.size(); ++row) {
      const std::int32_t slot = plan.row_slot[row];
      if (chunks_touching[row] >= 2) {
        ASSERT_GE(slot, 0) << "level " << level << " row " << row;
        ASSERT_LT(static_cast<std::size_t>(slot), plan.shared_rows.size());
        EXPECT_EQ(plan.shared_rows[static_cast<std::size_t>(slot)],
                  static_cast<index_t>(row));
      } else {
        EXPECT_EQ(slot, -1) << "level " << level << " row " << row;
      }
    }
    // Cached per (level, parts).
    EXPECT_EQ(&plan, &csf.owner_plan(level, 4));
  }
  EXPECT_THROW(csf.owner_plan(0, 4), Error);
}

TEST(MttkrpSchedule, ScheduleAndKernelNames) {
  EXPECT_STREQ(to_string(MttkrpSchedule::kAuto), "auto");
  EXPECT_STREQ(to_string(MttkrpSchedule::kDynamic), "dynamic");
  EXPECT_STREQ(to_string(MttkrpSchedule::kWeighted), "weighted");
  EXPECT_STREQ(to_string(MttkrpSchedule::kOwner), "owner");
  EXPECT_STREQ(to_string(MttkrpKernel::kAuto), "auto");
  EXPECT_STREQ(to_string(MttkrpKernel::kAllMode), "allmode");
  EXPECT_STREQ(to_string(MttkrpKernel::kOneTree), "onetree");
  EXPECT_STREQ(to_string(MttkrpKernel::kTiled), "tiled");
  EXPECT_STREQ(to_string(MttkrpKernel::kDimTree), "dimtree");
  EXPECT_STREQ(to_string(MttkrpKernel::kAlto), "alto");
}

TEST(MttkrpSchedule, TiledSetSolvesLikeUntiled) {
  const std::vector<index_t> dims{24, 18, 40};  // leaf mode long enough to tile
  const CooTensor x = testing::random_coo(dims, 1400, 907);
  CpdConfig cfg;
  cfg.with_rank(6).with_max_outer(6).with_tolerance(0);

  const CsfSet plain(x);
  CpdSolver plain_solver(plain, cfg);
  const CpdResult r_plain = plain_solver.solve();

  const CsfSet tiled(x, CsfStrategy::kAllMode, /*tile_rows=*/7);
  ASSERT_TRUE(tiled.tiled());
  EXPECT_EQ(tiled.nnz(), plain.nnz());
  EXPECT_DOUBLE_EQ(tiled.norm_sq(), plain.norm_sq());
  CpdConfig tiled_cfg = cfg;
  tiled_cfg.with_mttkrp_kernel(MttkrpKernel::kTiled);
  CpdSolver tiled_solver(tiled, tiled_cfg);
  const CpdResult r_tiled = tiled_solver.solve();

  EXPECT_EQ(r_plain.outer_iterations, r_tiled.outer_iterations);
  EXPECT_NEAR(r_plain.relative_error, r_tiled.relative_error, 1e-9);
}

TEST(MttkrpSchedule, TiledKernelMatchesOracleDirectly) {
  const std::vector<index_t> dims{15, 11, 33};
  const CooTensor x = testing::random_coo(dims, 700, 908);
  const auto factors = testing::random_factors(dims, 8, 909);
  for (std::size_t root = 0; root < dims.size(); ++root) {
    const TiledCsf tiled(x, root, /*tile_rows=*/5);
    EXPECT_GT(tiled.num_tiles(), 1u) << "root " << root;
    Matrix k;
    mttkrp_tiled(tiled, factors, k);
    Matrix k_oracle;
    mttkrp_coo(x, factors, root, k_oracle);
    EXPECT_LT(max_abs_diff(k, k_oracle), 1e-12) << "root " << root;
  }
}

TEST(MttkrpSchedule, SolverRejectsIncoherentKernelAndSet) {
  const std::vector<index_t> dims{12, 10, 14};
  const CooTensor x = testing::random_coo(dims, 300, 910);
  CpdConfig cfg;
  cfg.with_rank(4).with_max_outer(2);

  // Tiled kernel without a tiled set.
  {
    const CsfSet plain(x);
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kTiled);
    EXPECT_THROW(CpdSolver(plain, bad), InvalidArgument);
  }
  // Non-tiled kernel on a tiled set.
  {
    const CsfSet tiled(x, CsfStrategy::kAllMode, 4);
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kAllMode);
    EXPECT_THROW(CpdSolver(tiled, bad), InvalidArgument);
  }
  // Strategy mismatches.
  {
    const CsfSet one(x, CsfStrategy::kOneMode);
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kAllMode);
    EXPECT_THROW(CpdSolver(one, bad), InvalidArgument);
  }
  {
    const CsfSet all(x);
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kOneTree);
    EXPECT_THROW(CpdSolver(all, bad), InvalidArgument);
  }
  // Coherent combinations construct fine.
  {
    const CsfSet one(x, CsfStrategy::kOneMode);
    CpdConfig good = cfg;
    good.with_mttkrp_kernel(MttkrpKernel::kOneTree)
        .with_mttkrp_schedule(MttkrpSchedule::kOwner);
    EXPECT_NO_THROW(CpdSolver(one, good).solve());
  }
}

TEST(MttkrpSchedule, ConfigValidationFlagsBadCombinations) {
  CpdConfig cfg;
  cfg.with_rank(4);

  // Tiled kernel + compressed leaf is an error.
  CpdConfig bad = cfg;
  bad.with_mttkrp_kernel(MttkrpKernel::kTiled)
      .with_leaf_format(LeafFormat::kCsr);
  const ValidationReport r1 = bad.validate(3);
  EXPECT_FALSE(r1.ok());

  // onetree + dynamic re-enables the atomic path: warning.
  CpdConfig warn = cfg;
  warn.with_mttkrp_kernel(MttkrpKernel::kOneTree)
      .with_mttkrp_schedule(MttkrpSchedule::kDynamic);
  const ValidationReport r2 = warn.validate(3);
  EXPECT_TRUE(r2.ok());
  EXPECT_GE(r2.warning_count(), 1u);

  // The headline combination is clean.
  CpdConfig good = cfg;
  good.with_mttkrp_kernel(MttkrpKernel::kAuto)
      .with_mttkrp_schedule(MttkrpSchedule::kWeighted);
  EXPECT_TRUE(good.validate(3).ok());
  EXPECT_EQ(good.validate(3).warning_count(), 0u);
}

TEST(MttkrpSchedule, SolvesAgreeAcrossSchedules) {
  // End-to-end: the schedule changes only the parallel decomposition, so
  // full factorizations agree to floating-point accumulation tolerance.
  const std::vector<index_t> dims{26, 21, 17};
  const CooTensor x = testing::random_coo(dims, 800, 911);
  const CsfSet one(x, CsfStrategy::kOneMode);

  ThreadGuard guard;
  set_num_threads(2 * max_threads() + 3);
  real_t reference = -1;
  for (const MttkrpSchedule s :
       {MttkrpSchedule::kDynamic, MttkrpSchedule::kWeighted,
        MttkrpSchedule::kOwner}) {
    CpdConfig cfg;
    cfg.with_rank(5).with_max_outer(6).with_tolerance(0)
        .with_mttkrp_schedule(s);
    CpdSolver solver(one, cfg);
    const CpdResult r = solver.solve();
    if (reference < 0) {
      reference = r.relative_error;
    } else {
      EXPECT_NEAR(r.relative_error, reference, 1e-7) << to_string(s);
    }
  }
}

}  // namespace
}  // namespace aoadmm
