// Edge cases: degenerate shapes, extreme parameters, and pathological
// inputs the library must survive gracefully.
#include <gtest/gtest.h>

#include <cmath>

#include "core/solver.hpp"
#include "parallel/runtime.hpp"
#include "tensor/matricize.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

/// Non-negative CPD with short outer and inner loops.
CpdConfig tiny_config(rank_t rank = 2) {
  CpdConfig c;
  c.rank = rank;
  c.max_outer_iterations = 10;
  c.admm.max_iterations = 10;
  c.with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  return c;
}

TEST(EdgeCases, SingleNonzeroTensor) {
  CooTensor x({5, 4, 3});
  const index_t c[3] = {2, 1, 0};
  x.add({c, 3}, 7.0);
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, tiny_config()).solve();
  EXPECT_FALSE(std::isnan(r.relative_error));
  // A rank-2 model can represent a single spike exactly (or nearly so).
  EXPECT_LT(r.relative_error, 0.8);
}

TEST(EdgeCases, RankLargerThanSmallestMode) {
  const CooTensor x = testing::random_coo({3, 20, 15}, 100, 91);
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, tiny_config(8)).solve();
  EXPECT_FALSE(std::isnan(r.relative_error));
  EXPECT_EQ(r.factors[0].cols(), 8u);
}

TEST(EdgeCases, LengthOneMode) {
  // Degenerate but valid: one mode has a single slice (cf. Patents' tiny
  // year mode).
  const CooTensor x = testing::random_coo({1, 12, 9}, 40, 92);
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, tiny_config()).solve();
  EXPECT_FALSE(std::isnan(r.relative_error));
}

TEST(EdgeCases, ConstantValueTensor) {
  CooTensor x({6, 6, 6});
  std::vector<index_t> c(3);
  for (index_t i = 0; i < 6; ++i) {
    for (index_t j = 0; j < 6; ++j) {
      for (index_t k = 0; k < 6; ++k) {
        c[0] = i;
        c[1] = j;
        c[2] = k;
        x.add(c, 1.0);
      }
    }
  }
  // A fully observed all-ones tensor IS rank one; the fit must be
  // essentially exact.
  const CsfSet csf(x);
  CpdConfig opts = tiny_config(1);
  opts.max_outer_iterations = 50;
  opts.tolerance = 1e-10;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_LT(r.relative_error, 1e-3);
}

TEST(EdgeCases, SingleOuterIteration) {
  const CooTensor x = testing::random_coo({10, 10, 10}, 80, 93);
  const CsfSet csf(x);
  CpdConfig opts = tiny_config();
  opts.max_outer_iterations = 1;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_EQ(r.outer_iterations, 1u);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.trace.size(), 1u);
}

TEST(EdgeCases, VeryTallSkinnyTensor) {
  const CooTensor x = testing::random_coo({2000, 3, 3}, 400, 94);
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, tiny_config()).solve();
  EXPECT_FALSE(std::isnan(r.relative_error));
  EXPECT_EQ(r.factors[0].rows(), 2000u);
}

TEST(EdgeCases, RankOneFactorization) {
  const CooTensor x = testing::random_coo({8, 8, 8}, 60, 95);
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, tiny_config(1)).solve();
  EXPECT_EQ(r.factors[0].cols(), 1u);
  EXPECT_FALSE(std::isnan(r.relative_error));
}

TEST(EdgeCases, AlsWithRidgeRuns) {
  const CooTensor x = testing::random_coo({12, 10, 8}, 100, 96);
  const CsfSet csf(x);
  const CpdResult r = cpd_als(csf, tiny_config(3), /*ridge=*/0.1);
  EXPECT_FALSE(std::isnan(r.relative_error));
}

TEST(EdgeCases, AlsRejectsNegativeRidge) {
  const CooTensor x = testing::random_coo({5, 5}, 10, 97);
  const CsfSet csf(x);
  EXPECT_THROW(cpd_als(csf, tiny_config(), -0.5), InvalidArgument);
}

TEST(EdgeCases, ZeroValuedNonzerosSurvive) {
  // Explicit zeros are legal COO entries; factorization must not divide by
  // the (zero) norm.
  CooTensor x({4, 4, 4});
  const index_t a[3] = {0, 0, 0};
  const index_t b[3] = {1, 2, 3};
  x.add({a, 3}, 0.0);
  x.add({b, 3}, 0.0);
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, tiny_config()).solve();
  EXPECT_FALSE(std::isnan(r.relative_error));
}

TEST(EdgeCases, ThreadCountDoesNotChangeResultMaterially) {
  const CooTensor x = testing::random_coo({30, 25, 20}, 600, 98);
  const CsfSet csf(x);
  CpdConfig opts = tiny_config(4);
  opts.tolerance = 0;

  const int before = max_threads();
  set_num_threads(1);
  const CpdResult r1 = CpdSolver(csf, opts).solve();
  set_num_threads(2);  // oversubscribed on a 1-core host: still valid
  const CpdResult r2 = CpdSolver(csf, opts).solve();
  set_num_threads(before);

  // Reduction orders differ across thread counts; results agree to
  // rounding-accumulation tolerance.
  EXPECT_NEAR(r1.relative_error, r2.relative_error, 1e-6);
}

TEST(EdgeCases, HugeRankSmallTensor) {
  const CooTensor x = testing::random_coo({4, 4, 4}, 20, 99);
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, tiny_config(32)).solve();
  EXPECT_FALSE(std::isnan(r.relative_error));
}

}  // namespace
}  // namespace aoadmm
