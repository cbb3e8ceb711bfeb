// Tests for the one-tree (non-root / atomic) MTTKRP kernels and the
// dispatcher, validated against the COO oracle for every (order, root,
// target) combination.
#include <gtest/gtest.h>

#include <tuple>

#include "core/solver.hpp"
#include "la/blas.hpp"
#include "mttkrp/mttkrp.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

TEST(MttkrpNonRoot, ThreeModeAllRootTargetPairs) {
  const std::vector<index_t> dims{9, 7, 11};
  const CooTensor x = testing::random_coo(dims, 120, 81);
  const auto factors = testing::random_factors(dims, 5, 82);

  for (std::size_t root = 0; root < 3; ++root) {
    const CsfTensor csf = CsfTensor::build_for_mode(x, root);
    for (std::size_t target = 0; target < 3; ++target) {
      if (target == root) {
        continue;
      }
      Matrix k_nonroot;
      mttkrp_csf_nonroot(csf, factors, target, k_nonroot);
      Matrix k_oracle;
      mttkrp_coo(x, factors, target, k_oracle);
      EXPECT_LT(max_abs_diff(k_nonroot, k_oracle), 1e-10)
          << "root " << root << " target " << target;
    }
  }
}

using NonRootParam = std::tuple<int /*order*/, int /*rank*/>;

class NonRootSweep : public ::testing::TestWithParam<NonRootParam> {};

TEST_P(NonRootSweep, MatchesOracleForEveryTarget) {
  const auto [order, rank] = GetParam();
  std::vector<index_t> dims;
  for (int m = 0; m < order; ++m) {
    dims.push_back(static_cast<index_t>(4 + 2 * m));
  }
  const CooTensor x = testing::random_coo(
      dims, 60 * static_cast<offset_t>(order),
      static_cast<std::uint64_t>(order * 31 + rank));
  const auto factors = testing::random_factors(
      dims, static_cast<rank_t>(rank),
      static_cast<std::uint64_t>(order * 31 + rank + 1));

  // One tree rooted at mode 0 serves every target.
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);
  for (std::size_t target = 0; target < dims.size(); ++target) {
    Matrix k;
    mttkrp_dispatch(csf, factors, target, k);
    Matrix k_oracle;
    mttkrp_coo(x, factors, target, k_oracle);
    EXPECT_LT(max_abs_diff(k, k_oracle), 1e-10)
        << "order " << order << " rank " << rank << " target " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndRanks, NonRootSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(1, 3, 9)),
    [](const ::testing::TestParamInfo<NonRootParam>& info) {
      return "order" + std::to_string(std::get<0>(info.param)) + "_rank" +
             std::to_string(std::get<1>(info.param));
    });

TEST(MttkrpNonRoot, RejectsRootTarget) {
  const CooTensor x = testing::tiny_tensor();
  const auto factors = testing::random_factors({2, 3, 2}, 2, 83);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 1);
  Matrix k;
  EXPECT_THROW(mttkrp_csf_nonroot(csf, factors, 1, k), InvalidArgument);
}

TEST(MttkrpNonRoot, DispatchPicksRootKernelForRoot) {
  const std::vector<index_t> dims{6, 8, 5};
  const CooTensor x = testing::random_coo(dims, 50, 84);
  const auto factors = testing::random_factors(dims, 4, 85);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 2);

  Matrix via_dispatch;
  mttkrp_dispatch(csf, factors, 2, via_dispatch);
  Matrix via_root;
  mttkrp_csf(csf, factors, via_root);
  EXPECT_LT(max_abs_diff(via_dispatch, via_root), 1e-15);
}

TEST(CsfSetStrategy, OneModeKeepsSingleTree) {
  const std::vector<index_t> dims{10, 4, 8};  // shortest mode = 1
  const CooTensor x = testing::random_coo(dims, 70, 86);
  const CsfSet one(x, CsfStrategy::kOneMode);
  EXPECT_EQ(one.strategy(), CsfStrategy::kOneMode);
  // Root at the shortest mode.
  EXPECT_EQ(one.for_mode(0).level_mode(0), 1u);
  EXPECT_EQ(one.for_mode(2).level_mode(0), 1u);

  const CsfSet all(x, CsfStrategy::kAllMode);
  EXPECT_LT(one.storage_bytes(), all.storage_bytes());
  // ALLMODE stores ~order x the data.
  EXPECT_GT(all.storage_bytes(), 2 * one.storage_bytes());
}

TEST(CsfSetStrategy, StrategyNames) {
  EXPECT_STREQ(to_string(CsfStrategy::kAllMode), "ALLMODE");
  EXPECT_STREQ(to_string(CsfStrategy::kOneMode), "ONEMODE");
}

TEST(CsfSetStrategy, CpdResultsAgreeAcrossStrategies) {
  // The two strategies compute the same MTTKRPs (different summation
  // order); full factorizations must agree to floating-point tolerance.
  const std::vector<index_t> dims{30, 20, 25};
  const CooTensor x = testing::random_coo(dims, 900, 87);
  CpdConfig cfg;
  cfg.with_rank(5).with_max_outer(8).with_tolerance(0).with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));

  const CpdResult r_all =
      CpdSolver(CsfSet(x, CsfStrategy::kAllMode), cfg).solve();
  const CpdResult r_one =
      CpdSolver(CsfSet(x, CsfStrategy::kOneMode), cfg).solve();
  EXPECT_NEAR(r_all.relative_error, r_one.relative_error, 1e-6);
}

}  // namespace
}  // namespace aoadmm
