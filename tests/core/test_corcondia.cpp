#include "core/corcondia.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/solver.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

/// Fully observed tensor from planted rank-3 factors (noiseless).
struct Planted {
  CooTensor x;
  std::vector<Matrix> truth;
};

Planted planted_tensor(std::uint64_t seed = 71) {
  Planted p{CooTensor({10, 8, 6}), {}};
  Rng rng(seed);
  for (const index_t d : {10u, 8u, 6u}) {
    p.truth.push_back(Matrix::random_uniform(d, 3, rng, 0.1, 1.0));
  }
  std::vector<index_t> c(3);
  for (c[0] = 0; c[0] < 10; ++c[0]) {
    for (c[1] = 0; c[1] < 8; ++c[1]) {
      for (c[2] = 0; c[2] < 6; ++c[2]) {
        real_t v = 0;
        for (rank_t f = 0; f < 3; ++f) {
          v += p.truth[0](c[0], f) * p.truth[1](c[1], f) *
               p.truth[2](c[2], f);
        }
        p.x.add(c, v);
      }
    }
  }
  return p;
}

TEST(Corcondia, PerfectModelScoresNearHundred) {
  const Planted p = planted_tensor();
  EXPECT_NEAR(corcondia(p.x, p.truth), 100.0, 1e-6);
}

TEST(Corcondia, CoreIsSuperdiagonalForExactModel) {
  const Planted p = planted_tensor(72);
  const Matrix core = corcondia_core(p.x, p.truth);
  const std::size_t f = 3;
  for (std::size_t pp = 0; pp < f; ++pp) {
    for (std::size_t r = 0; r < f; ++r) {
      for (std::size_t q = 0; q < f; ++q) {
        const real_t want = (pp == q && q == r) ? 1.0 : 0.0;
        EXPECT_NEAR(core(pp, q + r * f), want, 1e-8);
      }
    }
  }
}

TEST(Corcondia, OverfactoredModelScoresLow) {
  // Fit rank 6 to rank-3 data: extra components break core consistency.
  const Planted p = planted_tensor(73);
  const CsfSet csf(p.x);
  CpdConfig cfg;
  cfg.with_rank(6).with_max_outer(80).with_tolerance(1e-8).with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNone}));
  const CpdResult over = CpdSolver(csf, cfg).solve();

  cfg.with_rank(3);
  const CpdResult right = CpdSolver(csf, cfg).solve();

  const real_t score_right = corcondia(p.x, right.factors);
  const real_t score_over = corcondia(p.x, over.factors);
  EXPECT_GT(score_right, 90.0);
  EXPECT_LT(score_over, score_right - 5.0)
      << "overfactoring must visibly degrade core consistency";
}

TEST(Corcondia, RejectsNonThreeMode) {
  const CooTensor x = testing::random_coo({4, 5}, 10, 74);
  const auto factors = testing::random_factors({4, 5}, 2, 75);
  EXPECT_THROW(corcondia(x, factors), InvalidArgument);
}

TEST(Corcondia, RankDeficientFactorsScoreTerribly) {
  // Duplicated columns make the model non-identifiable; the regularized
  // pseudoinverse still evaluates, and the diagnostic must collapse.
  const Planted p = planted_tensor(76);
  auto factors = p.truth;
  for (std::size_t i = 0; i < factors[0].rows(); ++i) {
    factors[0](i, 1) = factors[0](i, 0);
  }
  const real_t score = corcondia(p.x, factors);
  EXPECT_FALSE(std::isnan(score));
  EXPECT_LT(score, 80.0);
}

TEST(Corcondia, RejectsZeroFactor) {
  const Planted p = planted_tensor(78);
  auto factors = p.truth;
  factors[1].zero();
  EXPECT_THROW(corcondia(p.x, factors), InvalidArgument);
}

TEST(Corcondia, InvariantToComponentPermutation) {
  const Planted p = planted_tensor(77);
  auto factors = p.truth;
  for (Matrix& m : factors) {
    Matrix rev(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        rev(i, c) = m(i, m.cols() - 1 - c);
      }
    }
    m = std::move(rev);
  }
  EXPECT_NEAR(corcondia(p.x, factors), 100.0, 1e-6);
}

}  // namespace
}  // namespace aoadmm
