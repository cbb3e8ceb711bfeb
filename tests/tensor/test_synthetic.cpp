#include "tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"

namespace aoadmm {
namespace {

SyntheticSpec small_spec() {
  SyntheticSpec s;
  s.dims = {50, 40, 60};
  s.nnz = 2000;
  s.true_rank = 4;
  s.noise = 0.1;
  s.seed = 77;
  return s;
}

TEST(Synthetic, HitsRequestedNnz) {
  const CooTensor x = make_synthetic(small_spec());
  EXPECT_EQ(x.nnz(), 2000u);
}

TEST(Synthetic, RespectsDims) {
  const SyntheticSpec s = small_spec();
  const CooTensor x = make_synthetic(s);
  ASSERT_EQ(x.order(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(x.dim(m), s.dims[m]);
    for (offset_t n = 0; n < x.nnz(); ++n) {
      ASSERT_LT(x.index(m, n), s.dims[m]);
    }
  }
}

TEST(Synthetic, DeterministicInSeed) {
  const CooTensor a = make_synthetic(small_spec());
  const CooTensor b = make_synthetic(small_spec());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (offset_t n = 0; n < a.nnz(); ++n) {
    EXPECT_DOUBLE_EQ(a.value(n), b.value(n));
    for (std::size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(a.index(m, n), b.index(m, n));
    }
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec s1 = small_spec();
  SyntheticSpec s2 = small_spec();
  s2.seed = 78;
  const CooTensor a = make_synthetic(s1);
  const CooTensor b = make_synthetic(s2);
  // Norms should differ (coordinates and values both change).
  EXPECT_NE(a.norm_sq(), b.norm_sq());
}

TEST(Synthetic, NoDuplicateCoordinates) {
  CooTensor x = make_synthetic(small_spec());
  const offset_t before = x.nnz();
  x.deduplicate();
  EXPECT_EQ(x.nnz(), before);
}

TEST(Synthetic, ValuesPositiveForLowRankModel) {
  const CooTensor x = make_synthetic(small_spec());
  for (offset_t n = 0; n < x.nnz(); ++n) {
    EXPECT_GT(x.value(n), 0.0);
  }
}

TEST(Synthetic, ZipfSkewCreatesHotSlices) {
  SyntheticSpec s = small_spec();
  s.dims = {200, 200, 200};
  s.nnz = 5000;
  s.zipf_alpha = {1.5};
  const CooTensor x = make_synthetic(s);
  auto counts = x.slice_nnz(0);
  std::sort(counts.begin(), counts.end(), std::greater<offset_t>());
  // With a strong skew the hottest slice must dwarf the median slice.
  EXPECT_GT(counts[0], 20u * std::max<offset_t>(counts[counts.size() / 2], 1));
}

TEST(Synthetic, UniformAlphaSpreadsSlices) {
  SyntheticSpec s = small_spec();
  s.dims = {100, 100, 100};
  s.nnz = 5000;
  s.zipf_alpha = {0.0};
  const CooTensor x = make_synthetic(s);
  auto counts = x.slice_nnz(0);
  std::sort(counts.begin(), counts.end(), std::greater<offset_t>());
  // Expected ~50 per slice; the max should stay within a small factor.
  EXPECT_LT(counts[0], 150u);
}

TEST(Synthetic, GroundTruthMatchesSeedAndShape) {
  const SyntheticSpec s = small_spec();
  const auto t1 = synthetic_ground_truth(s);
  const auto t2 = synthetic_ground_truth(s);
  ASSERT_EQ(t1.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(t1[m].rows(), s.dims[m]);
    EXPECT_EQ(t1[m].cols(), s.true_rank);
    for (std::size_t k = 0; k < t1[m].size(); ++k) {
      EXPECT_DOUBLE_EQ(t1[m].data()[k], t2[m].data()[k]);
    }
  }
}

TEST(Synthetic, FactorZeroProbCreatesSparsity) {
  SyntheticSpec s = small_spec();
  s.factor_zero_prob = 0.6;
  const auto truth = synthetic_ground_truth(s);
  std::size_t zeros = 0;
  std::size_t total = 0;
  for (const auto& f : truth) {
    for (const real_t v : f.flat()) {
      zeros += v == 0 ? 1 : 0;
      ++total;
    }
  }
  const double frac = static_cast<double>(zeros) / static_cast<double>(total);
  EXPECT_NEAR(frac, 0.6, 0.05);
}

TEST(Synthetic, RejectsImpossibleNnz) {
  SyntheticSpec s;
  s.dims = {2, 2};
  s.nnz = 100;
  EXPECT_THROW(make_synthetic(s), InvalidArgument);
}

TEST(Synthetic, RejectsZeroLengthMode) {
  SyntheticSpec s;
  s.dims = {10, 0, 10};
  s.nnz = 5;
  EXPECT_THROW(make_synthetic(s), InvalidArgument);
}

TEST(Synthetic, RejectsOrderOne) {
  SyntheticSpec s;
  s.dims = {10};
  s.nnz = 5;
  EXPECT_THROW(make_synthetic(s), InvalidArgument);
}

TEST(FrosttStandins, FourDatasetsWithExpectedNames) {
  const auto sets = frostt_standins();
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_EQ(sets[0].name, "reddit-s");
  EXPECT_EQ(sets[1].name, "nell-s");
  EXPECT_EQ(sets[2].name, "amazon-s");
  EXPECT_EQ(sets[3].name, "patents-s");
  for (const auto& d : sets) {
    EXPECT_EQ(d.spec.dims.size(), 3u);
    EXPECT_GT(d.spec.nnz, 0u);
    EXPECT_FALSE(d.paper_analogue.empty());
  }
}

TEST(FrosttStandins, ScaleControlsNnz) {
  const auto full = frostt_standin("reddit-s", 1.0);
  const auto tiny = frostt_standin("reddit-s", 0.01);
  EXPECT_NEAR(static_cast<double>(tiny.spec.nnz),
              static_cast<double>(full.spec.nnz) * 0.01,
              static_cast<double>(full.spec.nnz) * 0.001);
}

TEST(FrosttStandins, UnknownNameThrows) {
  EXPECT_THROW(frostt_standin("netflix"), InvalidArgument);
}

TEST(FrosttStandins, TinyScaleGenerates) {
  // Smoke: each stand-in generates at 1% scale.
  for (const auto& d : frostt_standins(0.01)) {
    const CooTensor x = make_synthetic(d.spec);
    EXPECT_EQ(x.nnz(), d.spec.nnz);
  }
}

}  // namespace
}  // namespace aoadmm
