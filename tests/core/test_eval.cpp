#include "core/eval.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/solver.hpp"
#include "tensor/synthetic.hpp"
#include "tensor/transform.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

TEST(Eval, PerfectModelScoresZero) {
  // Store model values at a handful of coordinates; the same factors must
  // predict them exactly.
  const std::vector<index_t> dims{6, 5, 4};
  const auto factors = testing::random_factors(dims, 3, 51, 0.1, 1.0);
  CooTensor x(dims);
  for (index_t n = 0; n < 60; ++n) {
    // Distinct coordinates by construction (no dedup that would sum
    // values and break exactness).
    const index_t c[3] = {static_cast<index_t>(n % 6),
                          static_cast<index_t>((n / 6) % 5),
                          static_cast<index_t>(n / 30)};
    real_t v = 0;
    for (std::size_t f = 0; f < 3; ++f) {
      v += factors[0](c[0], f) * factors[1](c[1], f) * factors[2](c[2], f);
    }
    x.add({c, 3}, v);
  }

  const PredictionMetrics m = evaluate_predictions(x, factors);
  EXPECT_NEAR(m.rmse, 0.0, 1e-10);
  EXPECT_NEAR(m.mae, 0.0, 1e-10);
  EXPECT_EQ(m.count, x.nnz());
}

TEST(Eval, ZeroModelScoresValueNorm) {
  const CooTensor x = testing::tiny_tensor();
  std::vector<Matrix> zero;
  zero.emplace_back(2, 2);
  zero.emplace_back(3, 2);
  zero.emplace_back(2, 2);
  const PredictionMetrics m = evaluate_predictions(x, zero);
  // Values 1..5: RMSE = sqrt(55/5), MAE = 3, mean = 3.
  EXPECT_NEAR(m.rmse, std::sqrt(11.0), 1e-12);
  EXPECT_NEAR(m.mae, 3.0, 1e-12);
  EXPECT_NEAR(m.mean_value, 3.0, 1e-12);
}

TEST(Eval, EmptyTensorYieldsZeroCount) {
  CooTensor x({3, 3});
  std::vector<Matrix> factors;
  factors.emplace_back(3, 2);
  factors.emplace_back(3, 2);
  const PredictionMetrics m = evaluate_predictions(x, factors);
  EXPECT_EQ(m.count, 0u);
  EXPECT_DOUBLE_EQ(m.rmse, 0.0);
}

TEST(Eval, RejectsShapeMismatch) {
  const CooTensor x = testing::tiny_tensor();
  auto factors = testing::random_factors({2, 3, 2}, 2, 53);
  factors[1] = Matrix(4, 2);  // wrong rows
  EXPECT_THROW(evaluate_predictions(x, factors), InvalidArgument);
}

TEST(Eval, HoldoutPipelinePredictsBetterThanZeroBaseline) {
  // Train on 80%, evaluate on the held-out 20%: predictions must beat the
  // trivial all-zeros model (whose RMSE is the value RMS).
  SyntheticSpec spec;
  spec.dims = {50, 40, 30};
  spec.nnz = 12000;  // dense enough to generalize
  spec.true_rank = 3;
  spec.noise = 0.05;
  spec.seed = 54;
  const CooTensor x = make_synthetic(spec);
  Rng rng(55);
  const TrainTestSplit split = split_train_test(x, 0.2, rng);

  const CsfSet csf(split.train);
  CpdConfig cfg;
  cfg.with_rank(5).with_max_outer(40).with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  const CpdResult r = CpdSolver(csf, cfg).solve();

  const PredictionMetrics m = evaluate_predictions(split.test, r.factors);
  double value_rms = 0;
  for (const real_t v : split.test.values()) {
    value_rms += v * v;
  }
  value_rms = std::sqrt(value_rms / static_cast<double>(split.test.nnz()));
  EXPECT_LT(m.rmse, value_rms) << "model must beat the zero baseline";
}

}  // namespace
}  // namespace aoadmm
