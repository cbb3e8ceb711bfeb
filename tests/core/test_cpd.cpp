#include "core/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "tensor/matricize.hpp"
#include "tensor/synthetic.hpp"
#include "testing/helpers.hpp"

namespace aoadmm {
namespace {

/// Low-rank-plus-noise tensor the factorization should fit well.
CooTensor lowrank_tensor(std::uint64_t seed = 5, real_t factor_zero = 0.0) {
  SyntheticSpec spec;
  spec.dims = {40, 30, 35};
  spec.nnz = 4000;
  spec.true_rank = 4;
  spec.noise = 0.05;
  spec.zipf_alpha = {0.8};
  spec.factor_zero_prob = factor_zero;
  spec.seed = seed;
  return make_synthetic(spec);
}

/// Non-negative CPD settings the tests start from.
CpdConfig quick_config() {
  CpdConfig c;
  c.rank = 6;
  c.max_outer_iterations = 40;
  c.tolerance = 1e-6;
  c.admm.max_iterations = 25;
  c.admm.tolerance = 1e-2;
  c.admm.block_size = 16;
  c.with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  return c;
}

TEST(Cpd, NonNegativeFactorizationFitsDenseLowRankData) {
  // A fully observed low-rank tensor admits a tight fit (a *sparsely
  // sampled* low-rank tensor does not — its unobserved entries are zero, so
  // the best achievable relative error is large; cf. paper Fig. 6 where
  // real datasets converge to 0.54–0.89).
  const CooTensor x = testing::dense_lowrank_tensor({14, 11, 9}, 3, 0.02);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 80;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_LT(r.relative_error, 0.1);
  EXPECT_GT(r.outer_iterations, 1u);
}

TEST(Cpd, NonNegativeFactorizationImprovesOnSparseData) {
  // On sparse power-law data the absolute error plateaus high, but the
  // factorization must still make substantial progress from the random
  // initialization.
  const CooTensor x = lowrank_tensor();
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, quick_config()).solve();
  ASSERT_FALSE(r.trace.empty());
  const real_t first = r.trace.points().front().relative_error;
  EXPECT_LT(r.relative_error, 1.0);
  EXPECT_LT(r.relative_error, first);
  EXPECT_GT(r.outer_iterations, 1u);
}

TEST(Cpd, FactorsSatisfyNonNegativity) {
  const CooTensor x = lowrank_tensor(6);
  const CsfSet csf(x);
  const CpdResult r = CpdSolver(csf, quick_config()).solve();
  for (const Matrix& f : r.factors) {
    for (const real_t v : f.flat()) {
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(Cpd, ReportedErrorMatchesExactComputation) {
  const CooTensor x = lowrank_tensor(7);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 8;
  const CpdResult r = CpdSolver(csf, opts).solve();
  const real_t exact = relative_error(x, r.factors, x.norm_sq());
  EXPECT_NEAR(r.relative_error, exact, 1e-8);
}

TEST(Cpd, ErrorIsNonIncreasingUnderBaseline) {
  // AO guarantees a monotone objective for the *unconstrained* LS part when
  // ADMM solves each subproblem to high accuracy.
  const CooTensor x = lowrank_tensor(8);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.variant = AdmmVariant::kBaseline;
  opts.admm.max_iterations = 100;
  opts.admm.tolerance = 1e-6;
  opts.max_outer_iterations = 15;
  const CpdResult r = CpdSolver(csf, opts).solve();
  const auto& pts = r.trace.points();
  ASSERT_GE(pts.size(), 3u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i].relative_error,
              pts[i - 1].relative_error + 1e-6)
        << "error increased at outer " << i;
  }
}

TEST(Cpd, BlockedAndBaselineReachSimilarQuality) {
  const CooTensor x = lowrank_tensor(9);
  const CsfSet csf(x);

  CpdConfig base = quick_config();
  base.variant = AdmmVariant::kBaseline;
  const CpdResult rb = CpdSolver(csf, base).solve();

  CpdConfig blocked = quick_config();
  blocked.variant = AdmmVariant::kBlocked;
  const CpdResult rk = CpdSolver(csf, blocked).solve();

  EXPECT_NEAR(rb.relative_error, rk.relative_error, 0.05);
}

TEST(Cpd, TraceRecordsEveryOuterIteration) {
  const CooTensor x = lowrank_tensor(10);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 5;
  opts.tolerance = 0;  // never converge early
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_EQ(r.trace.size(), 5u);
  EXPECT_EQ(r.outer_iterations, 5u);
  EXPECT_FALSE(r.converged);
  // Timestamps monotone.
  for (std::size_t i = 1; i < r.trace.points().size(); ++i) {
    EXPECT_GE(r.trace.points()[i].seconds, r.trace.points()[i - 1].seconds);
  }
}

TEST(Cpd, ConvergenceFlagSetOnPlateau) {
  const CooTensor x = lowrank_tensor(11);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.tolerance = 1e-3;  // loose: should plateau quickly
  opts.max_outer_iterations = 100;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.outer_iterations, 100u);
}

TEST(Cpd, PerModeConstraintsApply) {
  const CooTensor x = lowrank_tensor(12);
  const CsfSet csf(x);
  std::vector<ConstraintSpec> specs(3);
  specs[0].kind = ConstraintKind::kNonNegative;
  specs[1].kind = ConstraintKind::kSimplex;
  specs[2].kind = ConstraintKind::kNone;
  CpdConfig cfg = quick_config();
  cfg.with_constraints(ModeConstraints::per_mode(specs));
  const CpdResult r = CpdSolver(csf, cfg).solve();
  // Mode 0: non-negative.
  for (const real_t v : r.factors[0].flat()) {
    EXPECT_GE(v, 0.0);
  }
  // Mode 1: rows on the simplex.
  for (std::size_t i = 0; i < r.factors[1].rows(); ++i) {
    real_t sum = 0;
    for (std::size_t j = 0; j < r.factors[1].cols(); ++j) {
      sum += r.factors[1](i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Cpd, L1RegularizationSparsifiesFactors) {
  const CooTensor x = lowrank_tensor(13, /*factor_zero=*/0.5);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 25;
  ConstraintSpec l1{ConstraintKind::kNonNegativeL1};
  l1.lambda = 0.1;  // the paper's Table II setting
  opts.with_constraints(ModeConstraints::broadcast(l1));
  const CpdResult r = CpdSolver(csf, opts).solve();
  // At least one factor should show real sparsity.
  real_t min_density = 1;
  for (const real_t d : r.factor_density) {
    min_density = std::min(min_density, d);
  }
  EXPECT_LT(min_density, 0.9);
}

TEST(Cpd, SparseLeafFormatsMatchDenseResult) {
  const CooTensor x = lowrank_tensor(14, /*factor_zero=*/0.5);
  const CsfSet csf(x);
  ConstraintSpec l1{ConstraintKind::kNonNegativeL1};
  l1.lambda = 0.1;

  CpdConfig dense_opts = quick_config();
  dense_opts.max_outer_iterations = 12;
  dense_opts.tolerance = 0;
  dense_opts.with_constraints(ModeConstraints::broadcast(l1));
  const CpdResult rd = CpdSolver(csf, dense_opts).solve();

  for (const LeafFormat fmt : {LeafFormat::kCsr, LeafFormat::kHybrid}) {
    CpdConfig opts = dense_opts;
    opts.leaf_format = fmt;
    const CpdResult rs = CpdSolver(csf, opts).solve();
    // Identical arithmetic path => identical trajectories (deterministic
    // seeds), regardless of the storage format.
    EXPECT_NEAR(rs.relative_error, rd.relative_error, 1e-8)
        << to_string(fmt);
  }
}

TEST(Cpd, SparseMttkrpCountedWhenFactorsSparse) {
  const CooTensor x = lowrank_tensor(15, /*factor_zero=*/0.6);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.leaf_format = LeafFormat::kCsr;
  opts.sparsity_threshold = 0.95;  // generous: trigger early
  opts.max_outer_iterations = 20;
  ConstraintSpec l1{ConstraintKind::kNonNegativeL1};
  l1.lambda = 0.15;
  opts.with_constraints(ModeConstraints::broadcast(l1));
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_GT(r.mttkrp_count, 0u);
  EXPECT_GT(r.sparse_mttkrp_count, 0u);
  EXPECT_LE(r.sparse_mttkrp_count, r.mttkrp_count);
}

TEST(Cpd, TimingBreakdownSumsToTotal) {
  const CooTensor x = lowrank_tensor(16);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 5;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_GT(r.times.total_seconds, 0.0);
  EXPECT_GE(r.times.mttkrp_seconds, 0.0);
  EXPECT_GE(r.times.admm_seconds, 0.0);
  EXPECT_NEAR(r.times.mttkrp_fraction() + r.times.admm_fraction() +
                  r.times.other_fraction(),
              1.0, 1e-9);
}

TEST(Cpd, DeterministicGivenSeed) {
  const CooTensor x = lowrank_tensor(17);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 6;
  const CpdResult a = CpdSolver(csf, opts).solve();
  const CpdResult b = CpdSolver(csf, opts).solve();
  EXPECT_DOUBLE_EQ(a.relative_error, b.relative_error);
}

TEST(Cpd, HigherRankFitsAtLeastAsWell) {
  const CooTensor x = lowrank_tensor(18);
  const CsfSet csf(x);
  CpdConfig lo = quick_config();
  lo.rank = 2;
  CpdConfig hi = quick_config();
  hi.rank = 8;
  const CpdResult rlo = CpdSolver(csf, lo).solve();
  const CpdResult rhi = CpdSolver(csf, hi).solve();
  EXPECT_LE(rhi.relative_error, rlo.relative_error + 0.02);
}

TEST(Cpd, RejectsBadConstraintCount) {
  const CooTensor x = lowrank_tensor(19);
  const CsfSet csf(x);
  CpdConfig cfg = quick_config();
  cfg.with_constraints(
      ModeConstraints::per_mode(std::vector<ConstraintSpec>(2)));
  EXPECT_THROW(CpdSolver(csf, cfg), InvalidArgument);
}

TEST(CpdAls, UnconstrainedAlsFitsDenseLowRankData) {
  const CooTensor x = testing::dense_lowrank_tensor({13, 10, 8}, 3, 0.02, 20);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 80;
  const CpdResult r = cpd_als(csf, opts);
  EXPECT_LT(r.relative_error, 0.1);
}

TEST(CpdAls, MatchesAoadmmUnconstrainedQuality) {
  // With no constraints AO-ADMM solves the same subproblems as ALS; final
  // quality must be comparable.
  const CooTensor x = lowrank_tensor(21);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 30;
  opts.admm.max_iterations = 60;
  opts.admm.tolerance = 1e-5;
  const CpdResult als = cpd_als(csf, opts);
  opts.with_constraints(ModeConstraints::broadcast({ConstraintKind::kNone}));
  const CpdResult admm = CpdSolver(csf, opts).solve();
  EXPECT_NEAR(als.relative_error, admm.relative_error, 0.05);
}

TEST(CpdAls, ErrorMonotoneNonIncreasing) {
  const CooTensor x = lowrank_tensor(22);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.max_outer_iterations = 12;
  opts.tolerance = 0;
  const CpdResult r = cpd_als(csf, opts);
  const auto& pts = r.trace.points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i].relative_error, pts[i - 1].relative_error + 1e-9);
  }
}

TEST(CpdAls, RejectsLossesOtherThanFrobenius) {
  // The least-squares update solves the Frobenius normal equations; any
  // other loss, masked Frobenius included, is a different problem.
  const CooTensor x = lowrank_tensor(23);
  const CsfSet csf(x);
  for (const char* loss : {"kl", "frobenius:masked"}) {
    CpdConfig cfg = quick_config();
    cfg.with_loss(parse_loss_spec(loss));
    EXPECT_THROW(cpd_als(csf, cfg), InvalidArgument) << loss;
  }
}

TEST(Cpd, FourModeTensorFactorizes) {
  SyntheticSpec spec;
  spec.dims = {12, 10, 8, 9};
  spec.nnz = 1500;
  spec.true_rank = 3;
  spec.noise = 0.05;
  spec.seed = 23;
  const CooTensor x = make_synthetic(spec);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.rank = 5;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_EQ(r.factors.size(), 4u);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_LT(r.relative_error, r.trace.points().front().relative_error);
  EXPECT_LT(r.relative_error, 1.0);
}

TEST(Cpd, FourModeDenseLowRankFitsTightly) {
  const CooTensor x = testing::dense_lowrank_tensor({7, 6, 5, 6}, 2, 0.02);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.rank = 4;
  opts.max_outer_iterations = 80;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_LT(r.relative_error, 0.1);
}

// ---------------------------------------------------------------------------
// Property sweep: every constraint kind yields a valid factorization whose
// factors satisfy the constraint, for both ADMM variants.
// ---------------------------------------------------------------------------

using ConstraintSweepParam = std::tuple<ConstraintKind, AdmmVariant>;

class CpdConstraintSweep
    : public ::testing::TestWithParam<ConstraintSweepParam> {};

TEST_P(CpdConstraintSweep, FactorizationValidUnderEveryConstraint) {
  const auto [kind, variant] = GetParam();
  const CooTensor x = lowrank_tensor(40);
  const CsfSet csf(x);

  ConstraintSpec spec;
  spec.kind = kind;
  spec.lambda = 0.05;
  spec.lo = 0.0;
  spec.hi = 2.0;
  CpdConfig opts = quick_config();
  opts.variant = variant;
  opts.max_outer_iterations = 10;
  opts.with_constraints(ModeConstraints::broadcast(spec));
  const CpdResult r = CpdSolver(csf, opts).solve();

  EXPECT_GE(r.relative_error, 0.0);
  EXPECT_LT(r.relative_error, 1.5);
  EXPECT_FALSE(std::isnan(r.relative_error));

  for (const Matrix& f : r.factors) {
    for (std::size_t i = 0; i < f.rows(); ++i) {
      real_t row_sum = 0;
      real_t row_norm_sq = 0;
      for (std::size_t c = 0; c < f.cols(); ++c) {
        const real_t v = f(i, c);
        EXPECT_FALSE(std::isnan(v));
        row_sum += v;
        row_norm_sq += v * v;
        switch (kind) {
          case ConstraintKind::kNonNegative:
          case ConstraintKind::kNonNegativeL1:
          case ConstraintKind::kSimplex:
            EXPECT_GE(v, 0.0);
            break;
          case ConstraintKind::kBox:
            EXPECT_GE(v, spec.lo - 1e-12);
            EXPECT_LE(v, spec.hi + 1e-12);
            break;
          default:
            break;
        }
      }
      if (kind == ConstraintKind::kSimplex) {
        EXPECT_NEAR(row_sum, 1.0, 1e-8);
      }
      if (kind == ConstraintKind::kL2Ball) {
        EXPECT_LE(row_norm_sq, spec.hi * spec.hi + 1e-8);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConstraintsBothVariants, CpdConstraintSweep,
    ::testing::Combine(
        ::testing::Values(ConstraintKind::kNone, ConstraintKind::kNonNegative,
                          ConstraintKind::kL1,
                          ConstraintKind::kNonNegativeL1,
                          ConstraintKind::kRidge, ConstraintKind::kSimplex,
                          ConstraintKind::kBox, ConstraintKind::kL2Ball),
        ::testing::Values(AdmmVariant::kBaseline, AdmmVariant::kBlocked)),
    [](const ::testing::TestParamInfo<ConstraintSweepParam>& info) {
      std::string name = to_string(std::get<0>(info.param));
      name += "_";
      name += to_string(std::get<1>(info.param));
      return name;
    });

TEST(Cpd, MatrixFactorizationWorks) {
  // Order-2 tensors are matrices; AO-ADMM must handle them (paper §II.A:
  // "equally applicable to matrices").
  const CooTensor x = testing::random_coo({30, 25}, 300, 24);
  const CsfSet csf(x);
  CpdConfig opts = quick_config();
  opts.rank = 4;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_EQ(r.factors.size(), 2u);
  EXPECT_LT(r.relative_error, 1.0);
}

}  // namespace
}  // namespace aoadmm
