// Unit tests for the numerical guard rails (core/robustness.hpp) and the
// seeded fault-injection harness (testing/fault_injection.hpp).
#include "core/robustness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/admm.hpp"
#include "core/prox.hpp"
#include "la/blas.hpp"
#include "testing/fault_injection.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

// --- RecoveryReport ------------------------------------------------------

TEST(Robustness, ReportCountsByKind) {
  RecoveryReport r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.summary(), "none");
  r.add({RecoveryKind::kCholeskyJitter, 1, 0, 2, 1e-6, "", {}});
  r.add({RecoveryKind::kCholeskyJitter, 2, 1, 1, 1e-8, "", {}});
  r.add({RecoveryKind::kAdmmRestart, 3, 2, 1, 42.0, "", {}});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.count(RecoveryKind::kCholeskyJitter), 2u);
  EXPECT_EQ(r.count(RecoveryKind::kAdmmRestart), 1u);
  EXPECT_EQ(r.count(RecoveryKind::kCheckpointWriteFailure), 0u);
}

TEST(Robustness, ReportToStringHasOneLinePerEvent) {
  RecoveryReport r;
  r.add({RecoveryKind::kMttkrpRetry, 4, 1, 1, 0, "", {}});
  r.add({RecoveryKind::kCheckpointWriteFailure, 6, 0, 0, 0, "short write", {}});
  const std::string s = r.to_string();
  std::size_t lines = 0;
  for (const char c : s) {
    lines += (c == '\n');
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(s.find("mttkrp_retry"), std::string::npos);
  EXPECT_NE(s.find("short write"), std::string::npos);
}

TEST(Robustness, ReportSummaryIsCompact) {
  RecoveryReport r;
  r.add({RecoveryKind::kAdmmRestart, 1, 0, 1, 0, "", {}});
  r.add({RecoveryKind::kAdmmRestart, 2, 0, 1, 0, "", {}});
  r.add({RecoveryKind::kFactorRollback, 2, 1, 0, 0, "", {}});
  const std::string s = r.summary();
  EXPECT_NE(s.find("3 recoveries"), std::string::npos);
  EXPECT_NE(s.find("admm_restart 2"), std::string::npos);
  EXPECT_NE(s.find("factor_rollback 1"), std::string::npos);
}

// --- ADMM guard rails ----------------------------------------------------

/// Same synthetic mode-update instance test_admm.cpp uses: K and G are the
/// exact normal equations a CPD mode update sees for a planted H*.
struct Instance {
  Matrix k;
  Matrix g;
  Matrix h_true;
};

Instance make_instance(std::size_t rows, std::size_t f, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  inst.h_true = Matrix::random_uniform(rows, f, rng, 0.0, 1.0);
  const Matrix w = Matrix::random_normal(rows * 2 + 3 * f, f, rng);
  gram(w, inst.g);
  inst.k = matmul(inst.h_true, inst.g);
  return inst;
}

/// Same corruption the kGramNonPd fault applies: an indefinite entry no
/// tr(G)/F-sized ridge can mask.
void make_non_pd(Matrix& g) {
  real_t trace = 0;
  for (std::size_t i = 0; i < g.rows(); ++i) {
    trace += g(i, i);
  }
  g(0, 0) = -(10.0 * std::abs(trace) / static_cast<real_t>(g.cols()) + 1.0);
}

AdmmOptions robust_options() {
  AdmmOptions o;
  o.tolerance = 1e-8;
  o.max_iterations = 200;
  o.block_size = 13;
  o.robustness.enabled = true;
  return o;
}

TEST(Robustness, AdmmNonPdGramThrowsWithoutGuard) {
  Instance inst = make_instance(30, 4, 1);
  make_non_pd(inst.g);
  Matrix h(30, 4);
  Matrix u(30, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmOptions opts = robust_options();
  opts.robustness.enabled = false;
  EXPECT_THROW(admm_update(h, u, inst.k, inst.g, *prox, opts, scratch),
               NumericalError);
}

TEST(Robustness, AdmmNonPdGramRecoversWithGuard) {
  Instance inst = make_instance(30, 4, 1);
  make_non_pd(inst.g);
  Matrix h(30, 4);
  Matrix u(30, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  const AdmmResult r =
      admm_update(h, u, inst.k, inst.g, *prox, robust_options(), scratch);
  EXPECT_GT(r.cholesky_attempts, 0u);
  EXPECT_GT(r.cholesky_jitter, 0.0);
  EXPECT_TRUE(all_finite(h));
  EXPECT_TRUE(all_finite(u));
}

TEST(Robustness, AdmmBlockedNonPdGramThrowsWithoutGuard) {
  Instance inst = make_instance(41, 4, 2);
  make_non_pd(inst.g);
  Matrix h(41, 4);
  Matrix u(41, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmOptions opts = robust_options();
  opts.robustness.enabled = false;
  EXPECT_THROW(
      admm_update_blocked(h, u, inst.k, inst.g, *prox, opts, scratch),
      NumericalError);
}

TEST(Robustness, AdmmBlockedNonPdGramRecoversWithGuard) {
  Instance inst = make_instance(41, 4, 2);
  make_non_pd(inst.g);
  Matrix h(41, 4);
  Matrix u(41, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  const AdmmResult r = admm_update_blocked(h, u, inst.k, inst.g, *prox,
                                           robust_options(), scratch);
  EXPECT_GT(r.cholesky_attempts, 0u);
  EXPECT_TRUE(all_finite(h));
  EXPECT_TRUE(all_finite(u));
}

TEST(Robustness, AdmmCleanRunReportsNoInterventions) {
  const Instance inst = make_instance(30, 4, 3);
  Matrix h(30, 4);
  Matrix u(30, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  const AdmmResult r =
      admm_update(h, u, inst.k, inst.g, *prox, robust_options(), scratch);
  EXPECT_EQ(r.cholesky_attempts, 0u);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_FALSE(r.abandoned);
  // And the guarded path solves the same problem the plain path does.
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-4);
}

TEST(Robustness, AdmmNanRhsAbandonsAfterBoundedRestarts) {
  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive rho" : "fixed rho");
    Instance inst = make_instance(25, 3, 4);
    inst.k(0, 0) = std::numeric_limits<real_t>::quiet_NaN();
    Rng rng(5);
    Matrix h = Matrix::random_uniform(25, 3, rng, 0.0, 1.0);
    const Matrix h_entry = h;
    Matrix u(25, 3);
    AdmmScratch scratch;
    const auto prox = make_prox({ConstraintKind::kNonNegative});
    AdmmOptions opts = robust_options();
    opts.robustness.max_recoveries = 2;
    opts.adaptive.enabled = adaptive;
    const AdmmResult r =
        admm_update(h, u, inst.k, inst.g, *prox, opts, scratch);
    // NaN in the rhs contaminates every iterate, so each restart diverges
    // again; the solve must give up after its budget and roll back.
    EXPECT_TRUE(r.abandoned);
    EXPECT_EQ(r.restarts, 2u);
    EXPECT_TRUE(all_finite(h));
    EXPECT_LT(max_abs_diff(h, h_entry), 1e-12);  // entry iterate restored
    EXPECT_TRUE(all_finite(u));
  }
}

TEST(Robustness, AdmmBlockedNanRhsAbandonsAfterBoundedRestarts) {
  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive rho" : "fixed rho");
    Instance inst = make_instance(37, 3, 6);
    inst.k(5, 1) = std::numeric_limits<real_t>::quiet_NaN();
    Rng rng(7);
    Matrix h = Matrix::random_uniform(37, 3, rng, 0.0, 1.0);
    const Matrix h_entry = h;
    Matrix u(37, 3);
    AdmmScratch scratch;
    const auto prox = make_prox({ConstraintKind::kNonNegative});
    AdmmOptions opts = robust_options();
    opts.robustness.max_recoveries = 1;
    opts.adaptive.enabled = adaptive;
    const AdmmResult r =
        admm_update_blocked(h, u, inst.k, inst.g, *prox, opts, scratch);
    EXPECT_TRUE(r.abandoned);
    EXPECT_EQ(r.restarts, 1u);
    EXPECT_TRUE(all_finite(h));
    EXPECT_LT(max_abs_diff(h, h_entry), 1e-12);  // entry iterate restored
    EXPECT_TRUE(all_finite(u));
  }
}

TEST(Robustness, RestartRescalesRho) {
  Instance inst = make_instance(25, 3, 7);
  inst.k(0, 0) = std::numeric_limits<real_t>::quiet_NaN();
  Matrix h(25, 3);
  Matrix u(25, 3);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNone});
  AdmmOptions opts = robust_options();
  opts.robustness.max_recoveries = 3;
  opts.robustness.rho_rescale = 10;
  real_t trace = 0;
  for (std::size_t i = 0; i < inst.g.rows(); ++i) {
    trace += inst.g(i, i);
  }
  const real_t rho0 = trace / static_cast<real_t>(inst.g.cols());
  const AdmmResult r =
      admm_update(h, u, inst.k, inst.g, *prox, opts, scratch);
  // Three restarts at x10 each: the final penalty is 1000x the entry one.
  EXPECT_NEAR(r.rho / rho0, 1000.0, 1e-6);
}

// --- Fault-injection harness ---------------------------------------------

class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override { testing::disarm_faults(); }
  void TearDown() override { testing::disarm_faults(); }
};

TEST_F(FaultInjection, ParseSpecRateOnly) {
  const testing::FaultSpec s = testing::parse_fault_spec("0.25", "test");
  EXPECT_DOUBLE_EQ(s.rate, 0.25);
  EXPECT_EQ(s.max_fires, ~std::uint64_t{0});
}

TEST_F(FaultInjection, ParseSpecRateAndMaxFires) {
  const testing::FaultSpec s = testing::parse_fault_spec("1.0:3", "test");
  EXPECT_DOUBLE_EQ(s.rate, 1.0);
  EXPECT_EQ(s.max_fires, 3u);
}

TEST_F(FaultInjection, ParseSpecRejectsMalformed) {
  EXPECT_THROW(testing::parse_fault_spec("", "t"), InvalidArgument);
  EXPECT_THROW(testing::parse_fault_spec("banana", "t"), InvalidArgument);
  EXPECT_THROW(testing::parse_fault_spec("1.5", "t"), InvalidArgument);
  EXPECT_THROW(testing::parse_fault_spec("-0.1", "t"), InvalidArgument);
  EXPECT_THROW(testing::parse_fault_spec("0.5:xyz", "t"), InvalidArgument);
}

TEST_F(FaultInjection, DisarmedHooksAreNoOps) {
  Matrix g = Matrix::identity(3);
  EXPECT_FALSE(testing::maybe_corrupt_gram(g));
  EXPECT_FALSE(testing::maybe_inject_nan(g));
  EXPECT_FALSE(testing::maybe_fail_checkpoint_write());
  EXPECT_TRUE(all_finite(g));
  EXPECT_EQ(testing::fault_counts().visits_at(testing::FaultSite::kGramNonPd),
            0u);
}

TEST_F(FaultInjection, MaxFiresCapsFiring) {
  testing::FaultConfig cfg;
  cfg.seed = 42;
  cfg.at(testing::FaultSite::kCheckpointWrite) = {1.0, 2};
  testing::arm_faults(cfg);
  unsigned fired = 0;
  for (int i = 0; i < 6; ++i) {
    fired += testing::maybe_fail_checkpoint_write();
  }
  EXPECT_EQ(fired, 2u);
  const testing::FaultCounts c = testing::fault_counts();
  EXPECT_EQ(c.visits_at(testing::FaultSite::kCheckpointWrite), 6u);
  EXPECT_EQ(c.fires_at(testing::FaultSite::kCheckpointWrite), 2u);
}

TEST_F(FaultInjection, SameSeedSameFiringSequence) {
  const auto pattern = [] {
    testing::FaultConfig cfg;
    cfg.seed = 1234;
    cfg.at(testing::FaultSite::kMttkrpNaN) = {0.5};
    testing::arm_faults(cfg);
    std::vector<bool> fires;
    for (int i = 0; i < 32; ++i) {
      Matrix k = Matrix::identity(4);
      fires.push_back(testing::maybe_inject_nan(k));
      EXPECT_EQ(all_finite(k), !fires.back());
    }
    return fires;
  };
  const std::vector<bool> a = pattern();
  const std::vector<bool> b = pattern();
  EXPECT_EQ(a, b);
  // A rate-0.5 site over 32 visits fires at least once and skips at least
  // once (P of an all-same run is 2^-31, and the draw is deterministic).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(FaultInjection, CorruptedGramIsIndefinite) {
  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kGramNonPd) = {1.0, 1};
  testing::arm_faults(cfg);
  Rng rng(9);
  const Matrix a = Matrix::random_normal(20, 4, rng);
  Matrix g;
  gram(a, g);
  ASSERT_TRUE(testing::maybe_corrupt_gram(g));
  EXPECT_LT(g(0, 0), 0.0);
}

TEST_F(FaultInjection, ArmsFromEnvironment) {
  ::setenv("AOADMM_FAULT_SEED", "7", 1);
  ::setenv("AOADMM_FAULT_MTTKRP_NAN", "1.0:1", 1);
  EXPECT_TRUE(testing::arm_faults_from_env());
  Matrix k = Matrix::identity(3);
  EXPECT_TRUE(testing::maybe_inject_nan(k));
  EXPECT_FALSE(all_finite(k));
  EXPECT_FALSE(testing::maybe_inject_nan(k));  // max_fires reached

  ::unsetenv("AOADMM_FAULT_SEED");
  ::unsetenv("AOADMM_FAULT_MTTKRP_NAN");
  EXPECT_FALSE(testing::arm_faults_from_env());  // nothing armed now
}

TEST_F(FaultInjection, MalformedEnvironmentThrowsNamingVariable) {
  ::setenv("AOADMM_FAULT_GRAM_NONPD", "banana", 1);
  try {
    testing::arm_faults_from_env();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("AOADMM_FAULT_GRAM_NONPD"),
              std::string::npos);
  }
  ::unsetenv("AOADMM_FAULT_GRAM_NONPD");
}

}  // namespace
}  // namespace aoadmm
