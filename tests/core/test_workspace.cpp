#include "core/workspace.hpp"

#include <gtest/gtest.h>

#include "la/blas.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

Matrix sparse_factor(std::size_t rows, std::size_t cols, real_t zero_prob,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::random_uniform(rows, cols, rng, 0.1, 1.0);
  for (auto& v : m.flat()) {
    if (rng.uniform() < zero_prob) {
      v = 0;
    }
  }
  return m;
}

TEST(SparseCache, DenseFormatNeverMirrors) {
  SparseFactorCache cache(3);
  const Matrix f = sparse_factor(50, 8, 0.9, 1);
  const auto m = cache.refresh(0, f, LeafFormat::kDense, 0.5);
  EXPECT_EQ(m.csr, nullptr);
  EXPECT_EQ(m.hybrid, nullptr);
  EXPECT_FALSE(m.rebuilt);
}

TEST(SparseCache, BuildsCsrBelowThreshold) {
  SparseFactorCache cache(3);
  const Matrix f = sparse_factor(50, 8, 0.9, 2);
  const auto m = cache.refresh(1, f, LeafFormat::kCsr, 0.5);
  ASSERT_NE(m.csr, nullptr);
  EXPECT_TRUE(m.rebuilt);
  EXPECT_LT(m.density, 0.5);
  EXPECT_LT(max_abs_diff(m.csr->to_dense(), f), 1e-15);
}

TEST(SparseCache, SkipsAboveThreshold) {
  SparseFactorCache cache(3);
  const Matrix f = sparse_factor(50, 8, 0.1, 3);  // ~90% dense
  const auto m = cache.refresh(1, f, LeafFormat::kCsr, 0.2);
  EXPECT_EQ(m.csr, nullptr);
  EXPECT_GT(m.density, 0.2);
}

TEST(SparseCache, SecondRefreshUsesCache) {
  SparseFactorCache cache(2);
  const Matrix f = sparse_factor(40, 6, 0.85, 4);
  const auto first = cache.refresh(0, f, LeafFormat::kCsr, 0.5);
  ASSERT_NE(first.csr, nullptr);
  EXPECT_TRUE(first.rebuilt);
  const auto second = cache.refresh(0, f, LeafFormat::kCsr, 0.5);
  EXPECT_EQ(second.csr, first.csr);  // same object, no rebuild
  EXPECT_FALSE(second.rebuilt);
}

TEST(SparseCache, InvalidateForcesRebuild) {
  SparseFactorCache cache(2);
  Matrix f = sparse_factor(40, 6, 0.85, 5);
  cache.refresh(0, f, LeafFormat::kCsr, 0.5);
  f(0, 0) = 42.0;  // mutate the factor
  cache.invalidate(0);
  const auto m = cache.refresh(0, f, LeafFormat::kCsr, 0.5);
  ASSERT_NE(m.csr, nullptr);
  EXPECT_TRUE(m.rebuilt);
  EXPECT_DOUBLE_EQ(m.csr->to_dense()(0, 0), 42.0);
}

TEST(SparseCache, HybridFormat) {
  SparseFactorCache cache(1);
  const Matrix f = sparse_factor(60, 10, 0.8, 6);
  const auto m = cache.refresh(0, f, LeafFormat::kHybrid, 0.5);
  ASSERT_NE(m.hybrid, nullptr);
  EXPECT_EQ(m.csr, nullptr);
  EXPECT_LT(max_abs_diff(m.hybrid->to_dense(), f), 1e-15);
}

TEST(AdmmScratchTest, EnsureGrowsLazily) {
  AdmmScratch s;
  s.ensure(10, 4);
  EXPECT_GE(s.aux.rows(), 10u);
  EXPECT_EQ(s.aux.cols(), 4u);
  const real_t* before = s.aux.data();
  s.ensure(5, 4);  // smaller: no reallocation
  EXPECT_EQ(s.aux.data(), before);
  s.ensure(20, 4);  // larger: must grow
  EXPECT_GE(s.aux.rows(), 20u);
}

TEST(AdmmScratchTest, RankChangeResizes) {
  AdmmScratch s;
  s.ensure(10, 4);
  s.ensure(10, 8);
  EXPECT_EQ(s.aux.cols(), 8u);
  EXPECT_EQ(s.h_old.cols(), 8u);
}

TEST(CpdWorkspaceTest, GramsSizedPerOrder) {
  CpdWorkspace ws(4);
  EXPECT_EQ(ws.grams.size(), 4u);
}

}  // namespace
}  // namespace aoadmm
