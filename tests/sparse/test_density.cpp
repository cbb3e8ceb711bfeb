#include "sparse/density.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace aoadmm {
namespace {

TEST(Density, AllZeroMatrix) {
  const Matrix a(10, 5);
  const DensityStats s = measure_density(a);
  EXPECT_EQ(s.nnz, 0u);
  EXPECT_DOUBLE_EQ(s.density, 0.0);
  EXPECT_EQ(s.dense_columns, 0u);
  for (const offset_t c : s.column_nnz) {
    EXPECT_EQ(c, 0u);
  }
}

TEST(Density, FullMatrix) {
  Rng rng(1);
  const Matrix a = Matrix::random_uniform(8, 3, rng, 0.1, 1.0);
  const DensityStats s = measure_density(a);
  EXPECT_EQ(s.nnz, 24u);
  EXPECT_DOUBLE_EQ(s.density, 1.0);
  // All columns equal the mean, so none is strictly above it.
  EXPECT_EQ(s.dense_columns, 0u);
}

TEST(Density, PerColumnCounts) {
  Matrix a(4, 3);
  a(0, 0) = 1;
  a(1, 0) = 1;
  a(2, 0) = 1;
  a(0, 1) = 1;
  const DensityStats s = measure_density(a);
  ASSERT_EQ(s.column_nnz.size(), 3u);
  EXPECT_EQ(s.column_nnz[0], 3u);
  EXPECT_EQ(s.column_nnz[1], 1u);
  EXPECT_EQ(s.column_nnz[2], 0u);
  EXPECT_EQ(s.nnz, 4u);
  EXPECT_DOUBLE_EQ(s.density, 4.0 / 12.0);
}

TEST(Density, DenseColumnsAboveMean) {
  // Mean column nnz = 4/3; only column 0 (3 nnz) exceeds it... and column 1
  // has 1 < 4/3, column 2 has 0.
  Matrix a(4, 3);
  a(0, 0) = 1;
  a(1, 0) = 1;
  a(2, 0) = 1;
  a(0, 1) = 1;
  EXPECT_EQ(measure_density(a).dense_columns, 1u);
}

TEST(Density, ToleranceTreatsSmallAsZero) {
  Matrix a(2, 2);
  a(0, 0) = 1e-8;
  a(1, 1) = 0.9;
  const DensityStats strict = measure_density(a, 0.0);
  const DensityStats loose = measure_density(a, 1e-6);
  EXPECT_EQ(strict.nnz, 2u);
  EXPECT_EQ(loose.nnz, 1u);
}

TEST(Density, NegativeEntriesCount) {
  Matrix a(2, 2);
  a(0, 0) = -0.5;
  EXPECT_EQ(measure_density(a).nnz, 1u);
}

TEST(Density, MatchesPlainReferenceOnSpecialValues) {
  // Zeros of both signs, exactly ±tol, just past tol, negatives, NaN and
  // ±inf, at column counts on and off a vector width.
  const real_t tol = 0.25;
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t values[] = {
      0.0, -0.0, tol, -tol, std::nextafter(tol, real_t{1}), -3.5, 2.0, 1e-300,
      std::numeric_limits<real_t>::quiet_NaN(), inf, -inf};
  Rng rng(3);
  for (const std::size_t cols : {1, 3, 16, 17}) {
    Matrix a(61, cols);
    for (real_t& v : a.flat()) {
      v = values[rng.uniform_index(std::size(values))];
    }
    for (const real_t t : {real_t{0}, tol}) {
      std::vector<offset_t> want(cols, 0);
      offset_t nnz = 0;
      for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          if (std::abs(a(i, j)) > t) {
            ++want[j];
            ++nnz;
          }
        }
      }
      std::size_t dense = 0;
      for (const offset_t c : want) {
        dense += static_cast<real_t>(c) >
                 static_cast<real_t>(nnz) / static_cast<real_t>(cols);
      }
      const DensityStats s = measure_density(a, t);
      EXPECT_EQ(s.column_nnz, want) << "cols=" << cols << " tol=" << t;
      EXPECT_EQ(s.nnz, nnz);
      EXPECT_EQ(s.dense_columns, dense);
    }
  }
}

}  // namespace
}  // namespace aoadmm
