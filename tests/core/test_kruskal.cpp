#include "core/kruskal.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/solver.hpp"
#include "la/blas.hpp"
#include "tensor/matricize.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

KruskalTensor sample_model(std::uint64_t seed = 3, rank_t rank = 3) {
  return KruskalTensor(testing::random_factors({8, 6, 7}, rank, seed,
                                               0.1, 1.0));
}

TEST(Kruskal, ConstructionDefaultsLambdaToOne) {
  const KruskalTensor k = sample_model();
  ASSERT_EQ(k.lambda().size(), 3u);
  for (const real_t l : k.lambda()) {
    EXPECT_DOUBLE_EQ(l, 1.0);
  }
  EXPECT_EQ(k.order(), 3u);
  EXPECT_EQ(k.rank(), 3u);
}

TEST(Kruskal, RejectsRankMismatch) {
  std::vector<Matrix> factors;
  factors.emplace_back(4, 2);
  factors.emplace_back(4, 3);
  EXPECT_THROW(KruskalTensor{std::move(factors)}, InvalidArgument);
}

TEST(Kruskal, ValueAtHelperMatchesNaiveSum) {
  const KruskalTensor k = sample_model(9);
  const index_t coord[3] = {3, 1, 5};
  real_t naive = 0;
  for (rank_t f = 0; f < k.rank(); ++f) {
    real_t prod = k.lambda()[f];
    for (std::size_t m = 0; m < k.order(); ++m) {
      prod *= k.factors()[m](coord[m], f);
    }
    naive += prod;
  }
  EXPECT_DOUBLE_EQ(kruskal_value_at(k.factors(), k.lambda(), {coord, 3}),
                   naive);
  EXPECT_DOUBLE_EQ(k.value_at({coord, 3}), naive);
}

TEST(Kruskal, ValueAtHelperTreatsEmptyLambdaAsOnes) {
  const KruskalTensor k = sample_model(9);  // lambda defaults to all-ones
  const index_t coord[3] = {7, 5, 6};
  EXPECT_DOUBLE_EQ(kruskal_value_at(k.factors(), {coord, 3}),
                   kruskal_value_at(k.factors(), k.lambda(), {coord, 3}));
}

TEST(Kruskal, ValueAtHelperCooOverloadMatchesCoordOverload) {
  const KruskalTensor k = sample_model(9);
  CooTensor x({8, 6, 7});
  const index_t c0[3] = {0, 0, 0};
  const index_t c1[3] = {7, 5, 6};
  x.add({c0, 3}, 1.0);
  x.add({c1, 3}, 2.0);
  for (offset_t n = 0; n < x.nnz(); ++n) {
    const index_t coord[3] = {x.index(0, n), x.index(1, n), x.index(2, n)};
    EXPECT_DOUBLE_EQ(kruskal_value_at(k.factors(), k.lambda(), x, n),
                     kruskal_value_at(k.factors(), k.lambda(), {coord, 3}));
  }
}

TEST(Kruskal, NormalizePreservesModelValues) {
  KruskalTensor k = sample_model(5);
  const index_t coord[3] = {2, 3, 4};
  const real_t before = k.value_at({coord, 3});
  k.normalize_columns();
  EXPECT_NEAR(k.value_at({coord, 3}), before, 1e-12);
}

TEST(Kruskal, NormalizeMakesColumnsUnit) {
  KruskalTensor k = sample_model(6);
  k.normalize_columns();
  for (const Matrix& a : k.factors()) {
    for (rank_t f = 0; f < k.rank(); ++f) {
      real_t norm_sq = 0;
      for (std::size_t i = 0; i < a.rows(); ++i) {
        norm_sq += a(i, f) * a(i, f);
      }
      EXPECT_NEAR(norm_sq, 1.0, 1e-12);
    }
  }
}

TEST(Kruskal, NormalizeHandlesZeroColumn) {
  std::vector<Matrix> factors = testing::random_factors({5, 4}, 2, 7, 0.5, 1);
  for (std::size_t i = 0; i < 5; ++i) {
    factors[0](i, 1) = 0;  // kill component 1 in mode 0
  }
  KruskalTensor k(std::move(factors));
  k.normalize_columns();
  EXPECT_DOUBLE_EQ(k.lambda()[1], 0.0);
  EXPECT_GT(k.lambda()[0], 0.0);
}

TEST(Kruskal, SortOrdersByLambdaDescending) {
  KruskalTensor k = sample_model(8, 4);
  k.normalize_columns();
  KruskalTensor sorted = k;
  sorted.sort_components();
  for (std::size_t f = 1; f < sorted.rank(); ++f) {
    EXPECT_GE(sorted.lambda()[f - 1], sorted.lambda()[f]);
  }
  // Sorting must not change model values.
  const index_t coord[3] = {1, 2, 3};
  EXPECT_NEAR(sorted.value_at({coord, 3}), k.value_at({coord, 3}), 1e-12);
}

TEST(Kruskal, NormSqMatchesModelNormSq) {
  const KruskalTensor k = sample_model(9);
  // lambda all ones: must equal model_norm_sq of the raw factors.
  EXPECT_NEAR(k.norm_sq(), model_norm_sq(k.factors()), 1e-9);
}

TEST(Kruskal, NormSqInvariantUnderNormalization) {
  KruskalTensor k = sample_model(10);
  const real_t before = k.norm_sq();
  k.normalize_columns();
  EXPECT_NEAR(k.norm_sq(), before, 1e-8 * before);
}

TEST(Kruskal, PruneRemovesDeadComponents) {
  KruskalTensor k = sample_model(11, 4);
  k.normalize_columns();
  // Manually kill component 2 by zeroing a factor column.
  for (std::size_t i = 0; i < k.factors()[1].rows(); ++i) {
    k.factors()[1](i, 2) = 0;
  }
  k.normalize_columns();  // recomputes lambda; component 2 -> 0
  const index_t coord[3] = {0, 0, 0};
  const real_t before = k.value_at({coord, 3});
  const rank_t removed = k.prune();
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(k.rank(), 3u);
  EXPECT_NEAR(k.value_at({coord, 3}), before, 1e-12);
}

TEST(Kruskal, PruneNoopWhenAllAlive) {
  KruskalTensor k = sample_model(12);
  k.normalize_columns();
  EXPECT_EQ(k.prune(), 0u);
  EXPECT_EQ(k.rank(), 3u);
}

TEST(Fms, IdenticalModelsScoreOne) {
  const KruskalTensor k = sample_model(13);
  EXPECT_NEAR(factor_match_score(k, k), 1.0, 1e-10);
}

TEST(Fms, PermutationInvariant) {
  KruskalTensor a = sample_model(14, 4);
  KruskalTensor b = a;
  // Permute b's components by reversing columns in every factor + lambda.
  for (Matrix& m : b.factors()) {
    Matrix rev(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t f = 0; f < m.cols(); ++f) {
        rev(i, f) = m(i, m.cols() - 1 - f);
      }
    }
    m = std::move(rev);
  }
  EXPECT_NEAR(factor_match_score(a, b), 1.0, 1e-10);
}

TEST(Fms, ScalingInvariant) {
  KruskalTensor a = sample_model(15);
  KruskalTensor b = a;
  // Rescale a component across modes (model unchanged up to lambda).
  for (std::size_t i = 0; i < b.factors()[0].rows(); ++i) {
    b.factors()[0](i, 0) *= 2.0;
  }
  for (std::size_t i = 0; i < b.factors()[1].rows(); ++i) {
    b.factors()[1](i, 0) *= 0.5;
  }
  EXPECT_NEAR(factor_match_score(a, b), 1.0, 1e-10);
}

TEST(Fms, RandomModelsScoreLow) {
  const KruskalTensor a = sample_model(16, 4);
  const KruskalTensor b = sample_model(99, 4);
  EXPECT_LT(factor_match_score(a, b), 0.99);
}

TEST(Fms, RejectsShapeMismatch) {
  const KruskalTensor a = sample_model(17);
  const KruskalTensor b(testing::random_factors({8, 6, 9}, 3, 18));
  EXPECT_THROW(factor_match_score(a, b), InvalidArgument);
}

TEST(Fms, CpdRecoversPlantedComponents) {
  // End-to-end recovery: factorize a fully observed low-noise rank-3
  // tensor and compare against the planted factors with FMS.
  Rng rng(21);
  std::vector<Matrix> truth;
  const std::vector<index_t> dims{15, 12, 10};
  for (const index_t d : dims) {
    truth.push_back(Matrix::random_uniform(d, 3, rng, 0.1, 1.0));
  }
  CooTensor x(dims);
  std::vector<index_t> coord(3);
  for (coord[0] = 0; coord[0] < dims[0]; ++coord[0]) {
    for (coord[1] = 0; coord[1] < dims[1]; ++coord[1]) {
      for (coord[2] = 0; coord[2] < dims[2]; ++coord[2]) {
        real_t v = 0;
        for (rank_t c = 0; c < 3; ++c) {
          v += truth[0](coord[0], c) * truth[1](coord[1], c) *
               truth[2](coord[2], c);
        }
        x.add(coord, v);
      }
    }
  }

  const CsfSet csf(x);
  CpdConfig cfg;
  cfg.with_rank(3).with_max_outer(200).with_tolerance(1e-9).with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  cfg.admm.max_iterations = 50;
  cfg.admm.tolerance = 1e-6;
  const CpdResult r = CpdSolver(csf, cfg).solve();

  const KruskalTensor recovered(r.factors);
  const KruskalTensor planted(truth);
  EXPECT_GT(factor_match_score(recovered, planted), 0.85)
      << "relative error was " << r.relative_error;
}

}  // namespace
}  // namespace aoadmm
