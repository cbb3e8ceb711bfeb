// End-to-end guard-rail tests: seeded fault-injected solves must complete
// with the same final fit as clean ones, and historically fatal numerical
// scenarios must converge under robustness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "tensor/csf.hpp"
#include "testing/fault_injection.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

class RobustnessIntegration : public ::testing::Test {
 protected:
  void SetUp() override { testing::disarm_faults(); }
  void TearDown() override { testing::disarm_faults(); }
};

/// Non-negative CPD, with or without the guard rails.
CpdConfig tight_config(rank_t rank, bool robust) {
  CpdConfig c;
  c.rank = rank;
  // Deep convergence: on the noise-free tensor below, both the clean and
  // the faulted solve stop on tolerance well before the outer cap (at
  // ~1e-7 relative error), which is what makes their fits comparable.
  c.max_outer_iterations = 800;
  c.tolerance = 1e-14;
  c.admm.tolerance = 1e-8;
  c.admm.max_iterations = 200;
  c.seed = 17;
  c.admm.robustness.enabled = robust;
  c.with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  return c;
}

/// A noise-free exactly-low-rank dense tensor: every solve that converges
/// reaches (numerically) the same global optimum, so fits are comparable
/// across faulted and clean runs.
CsfSet lowrank_csf() {
  static const CooTensor x =
      testing::dense_lowrank_tensor({12, 10, 8}, 3, 0.0, 99);
  return CsfSet(x);
}

TEST_F(RobustnessIntegration, FaultedRunMatchesCleanRunFit) {
  const CsfSet csf = lowrank_csf();

  const CpdResult clean =
      CpdSolver(csf, tight_config(3, /*robust=*/true)).solve();
  EXPECT_TRUE(clean.recovery.empty()) << clean.recovery.to_string();
  ASSERT_LT(clean.relative_error, 1e-5);

  testing::FaultConfig faults;
  faults.seed = 42;
  faults.at(testing::FaultSite::kGramNonPd) = {1.0, 1};
  faults.at(testing::FaultSite::kMttkrpNaN) = {0.5, 2};
  testing::arm_faults(faults);
  const CpdResult faulted =
      CpdSolver(csf, tight_config(3, /*robust=*/true)).solve();
  testing::disarm_faults();

  // Every injected fault was absorbed by a guard rail...
  EXPECT_FALSE(faulted.recovery.empty());
  EXPECT_GT(faulted.recovery.count(RecoveryKind::kCholeskyJitter) +
                faulted.recovery.count(RecoveryKind::kAdmmRestart) +
                faulted.recovery.count(RecoveryKind::kAdmmAbandoned),
            0u);
  EXPECT_GT(faulted.recovery.count(RecoveryKind::kMttkrpRetry), 0u);
  // ...and the solve still lands on the clean optimum.
  EXPECT_NEAR(faulted.relative_error, clean.relative_error, 1e-6);
}

TEST_F(RobustnessIntegration, GramFaultWithoutRobustnessThrows) {
  const CsfSet csf = lowrank_csf();
  testing::FaultConfig faults;
  faults.at(testing::FaultSite::kGramNonPd) = {1.0, 1};
  testing::arm_faults(faults);
  EXPECT_THROW(CpdSolver(csf, tight_config(3, /*robust=*/false)).solve(),
               NumericalError);
}

TEST_F(RobustnessIntegration, NanFaultWithoutRobustnessIsScrubbedByProx) {
  const CsfSet csf = lowrank_csf();
  CpdConfig cfg = tight_config(3, /*robust=*/false);
  cfg.with_constraints(ModeConstraints::broadcast({ConstraintKind::kNone}));
  testing::FaultConfig faults;
  faults.at(testing::FaultSite::kMttkrpNaN) = {1.0, 1};
  testing::arm_faults(faults);
  // Every prox operator sanitizes non-finite inputs to zero (core/prox.cpp),
  // so the injected NaN never reaches a Gram/Cholesky: the constrained
  // factor stays finite even with the guard rails off. The one poisoned
  // update costs accuracy, not the run.
  CpdResult result;
  EXPECT_NO_THROW(result = CpdSolver(csf, cfg).solve());
  testing::disarm_faults();
  for (const Matrix& factor : result.factors) {
    for (const real_t v : factor.flat()) {
      ASSERT_TRUE(std::isfinite(v));
    }
  }
}

/// All non-zeros on a single mode-0/mode-1 fiber: after one ALS sweep the
/// first two factors are (numerically) rank one, so the mode-2 normal
/// equations G = (H0ᵀH0) ∘ (H1ᵀH1) are exactly rank one. At a ~1e8 value
/// scale the Gram diagonal dwarfs ALS's fixed 1e-12 ridge, roundoff drives
/// a pivot negative, and the plain Cholesky throws. The guarded
/// factorization scales its jitter by the diagonal magnitude instead.
CsfSet rank_deficient_csf() {
  static const CooTensor x = [] {
    CooTensor t({6, 5, 40});
    for (index_t k = 0; k < 40; ++k) {
      const index_t c[3] = {2, 3, k};
      t.add({c, 3}, 1e8 * static_cast<real_t>(k + 1));
    }
    return t;
  }();
  return CsfSet(x);
}

TEST_F(RobustnessIntegration, RankDeficientAlsThrowsWithoutRobustness) {
  CpdConfig cfg = tight_config(4, /*robust=*/false);
  cfg.max_outer_iterations = 30;
  EXPECT_THROW(cpd_als(rank_deficient_csf(), cfg, /*ridge=*/0.0),
               NumericalError);
}

TEST_F(RobustnessIntegration, RankDeficientAlsConvergesUnderRobustness) {
  CpdConfig cfg = tight_config(4, /*robust=*/true);
  cfg.max_outer_iterations = 30;
  cfg.tolerance = 1e-8;
  const CpdResult r = cpd_als(rank_deficient_csf(), cfg, /*ridge=*/0.0);
  EXPECT_GT(r.recovery.count(RecoveryKind::kCholeskyJitter), 0u);
  ASSERT_TRUE(std::isfinite(r.relative_error));
  // The tensor is exactly rank one, so even the stabilized solves fit it.
  EXPECT_LT(r.relative_error, 1e-3);
}

TEST_F(RobustnessIntegration, CheckpointWriteFailureIsSurvivable) {
  const std::string path =
      ::testing::TempDir() + "aoadmm_robust_ckpt.ckpt";
  std::remove(path.c_str());
  const CooTensor x = testing::random_coo({10, 9, 8}, 150, 33);
  const CsfSet csf(x);

  CpdConfig cfg = CpdConfig()
                      .with_rank(3)
                      .with_max_outer(6)
                      .with_tolerance(0.0)
                      .with_robustness()
                      .with_checkpoint(path, 2);
  testing::FaultConfig faults;
  faults.at(testing::FaultSite::kCheckpointWrite) = {1.0, 1};
  testing::arm_faults(faults);
  CpdSolver solver(csf, cfg);
  const CpdResult r = solver.solve();
  testing::disarm_faults();

  // The first write (outer 2) failed and was recorded; the run continued.
  EXPECT_EQ(r.recovery.count(RecoveryKind::kCheckpointWriteFailure), 1u);
  EXPECT_GE(r.outer_iterations, 4u);

  // A later periodic write succeeded and left a valid, resumable file.
  const CpdCheckpoint ck = read_checkpoint_file(path);
  EXPECT_GT(ck.outer_iteration, 2u);
  const CpdResult resumed = solver.resume(path);
  EXPECT_EQ(resumed.outer_iterations, r.outer_iterations);
  std::remove(path.c_str());
}

TEST_F(RobustnessIntegration, CheckpointWriteFailureFatalWithoutRobustness) {
  const std::string path =
      ::testing::TempDir() + "aoadmm_robust_ckpt2.ckpt";
  std::remove(path.c_str());
  const CooTensor x = testing::random_coo({10, 9, 8}, 150, 33);
  const CsfSet csf(x);
  CpdConfig cfg = CpdConfig()
                      .with_rank(3)
                      .with_max_outer(6)
                      .with_tolerance(0.0)
                      .with_checkpoint(path, 2);
  testing::FaultConfig faults;
  faults.at(testing::FaultSite::kCheckpointWrite) = {1.0, 1};
  testing::arm_faults(faults);
  CpdSolver solver(csf, cfg);
  EXPECT_THROW(solver.solve(), CheckpointError);
}

}  // namespace
}  // namespace aoadmm
