// Residual-balancing adaptive rho (He/Yang/Wang-style): when the primal
// residual runs ahead of the dual by more than `ratio`, rho is scaled up
// (and vice versa), with the duals rescaled to keep the scaled iterates
// consistent. On ill-conditioned instances a fixed rho = tr(G)/F is far
// from the sweet spot and the inner loops crawl; balancing fixes the
// mismatch within a few inner iterations.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

/// Fully observed low-rank tensor whose true factor columns span several
/// orders of magnitude (column c scaled by colscale^c), making every
/// mode's Gram matrix badly conditioned — the regime where a single fixed
/// rho is wrong for most rows.
CooTensor ill_conditioned_tensor(std::uint64_t seed, real_t colscale) {
  const std::vector<index_t> dims = {25, 20, 15};
  const rank_t rank = 4;
  Rng rng(seed);
  std::vector<Matrix> truth;
  for (const index_t d : dims) {
    Matrix f = Matrix::random_uniform(d, rank, rng, 0.2, 1.0);
    for (rank_t c = 0; c < rank; ++c) {
      real_t s = 1;
      for (rank_t k = 0; k < c; ++k) {
        s *= colscale;
      }
      for (index_t i = 0; i < d; ++i) {
        f(i, c) *= s;
      }
    }
    truth.push_back(std::move(f));
  }
  CooTensor x(dims);
  std::vector<index_t> coord(dims.size(), 0);
  bool done = false;
  while (!done) {
    real_t v = 0;
    for (rank_t c = 0; c < rank; ++c) {
      real_t p = 1;
      for (std::size_t m = 0; m < dims.size(); ++m) {
        p *= truth[m](coord[m], c);
      }
      v += p;
    }
    v += 0.01 * v * rng.normal();
    x.add(coord, v);
    done = true;
    for (std::size_t m = 0; m < dims.size(); ++m) {
      if (++coord[m] < dims[m]) {
        done = false;
        break;
      }
      coord[m] = 0;
    }
  }
  return x;
}

CpdConfig base_config() {
  CpdConfig cfg;
  cfg.with_rank(4).with_seed(21).with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  cfg.max_outer_iterations = 200;
  cfg.tolerance = 1e-7;
  cfg.admm.tolerance = 1e-3;
  cfg.admm.max_iterations = 50;
  return cfg;
}

TEST(AdaptiveRho, ConvergesInStrictlyFewerOuterIterationsWhenIllConditioned) {
  const CooTensor x = ill_conditioned_tensor(77, 6.0);
  const CsfSet csf(x);

  CpdSolver fixed_solver(csf, base_config());
  const CpdResult fixed = fixed_solver.solve();

  CpdConfig adaptive_cfg = base_config();
  adaptive_cfg.with_adaptive_rho(true);
  CpdSolver adaptive_solver(csf, adaptive_cfg);
  const CpdResult adaptive = adaptive_solver.solve();

  // The balanced run must terminate strictly earlier AND do strictly less
  // inner work, at no accuracy cost.
  EXPECT_LT(adaptive.outer_iterations, fixed.outer_iterations);
  EXPECT_LT(adaptive.total_inner_iterations, fixed.total_inner_iterations);
  EXPECT_TRUE(adaptive.converged);
  EXPECT_LT(adaptive.relative_error, fixed.relative_error + 0.01);

  // Every rebalanced update surfaces as a structured RecoveryEvent, even
  // though the robustness master switch is off.
  EXPECT_GT(adaptive.recovery.count(RecoveryKind::kRhoRebalance), 0u);
  for (const RecoveryEvent& e : adaptive.recovery.events) {
    EXPECT_EQ(e.kind, RecoveryKind::kRhoRebalance);
    EXPECT_GT(e.attempts, 0u);
  }
  EXPECT_EQ(fixed.recovery.count(RecoveryKind::kRhoRebalance), 0u);
}

TEST(AdaptiveRho, WorksOnTheBaselineVariantToo) {
  const CooTensor x = ill_conditioned_tensor(77, 6.0);
  const CsfSet csf(x);
  CpdConfig fixed_cfg = base_config();
  fixed_cfg.variant = AdmmVariant::kBaseline;
  CpdConfig adaptive_cfg = fixed_cfg;
  adaptive_cfg.with_adaptive_rho(true);

  CpdSolver fixed_solver(csf, fixed_cfg);
  CpdSolver adaptive_solver(csf, adaptive_cfg);
  const CpdResult fixed = fixed_solver.solve();
  const CpdResult adaptive = adaptive_solver.solve();
  EXPECT_LT(adaptive.total_inner_iterations, fixed.total_inner_iterations);
  EXPECT_GT(adaptive.recovery.count(RecoveryKind::kRhoRebalance), 0u);
}

TEST(AdaptiveRho, RebalancesAreJournaledAsRecoveryEvents) {
  const std::string path = ::testing::TempDir() + "aoadmm_rho_journal.jsonl";
  std::remove(path.c_str());
  const CooTensor x = ill_conditioned_tensor(77, 6.0);
  const CsfSet csf(x);
  CpdConfig cfg = base_config();
  cfg.with_adaptive_rho(true);
  cfg.max_outer_iterations = 10;
  {
    obs::EventJournal journal(path);
    obs::EventJournal::install_global(&journal);
    CpdSolver solver(csf, cfg);
    const CpdResult r = solver.solve();
    obs::EventJournal::install_global(nullptr);
    ASSERT_GT(r.recovery.count(RecoveryKind::kRhoRebalance), 0u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string journal_text = ss.str();
  EXPECT_NE(journal_text.find("\"recovery\""), std::string::npos);
  EXPECT_NE(journal_text.find("rho_rebalance"), std::string::npos);
  std::remove(path.c_str());
}

TEST(AdaptiveRho, RepeatSolvesAreDeterministic) {
  const CooTensor x = ill_conditioned_tensor(91, 4.0);
  const CsfSet csf(x);
  CpdConfig cfg = base_config();
  cfg.with_adaptive_rho(true);
  cfg.max_outer_iterations = 20;
  CpdSolver solver(csf, cfg);
  const CpdResult a = solver.solve();
  const CpdResult b = solver.solve();
  EXPECT_EQ(a.outer_iterations, b.outer_iterations);
  EXPECT_EQ(a.total_inner_iterations, b.total_inner_iterations);
  EXPECT_DOUBLE_EQ(a.relative_error, b.relative_error);
  EXPECT_EQ(a.recovery.count(RecoveryKind::kRhoRebalance),
            b.recovery.count(RecoveryKind::kRhoRebalance));
}

TEST(AdaptiveRho, ValidateRejectsIncoherentKnobs) {
  CpdConfig cfg = base_config();
  cfg.with_adaptive_rho(true);
  cfg.admm.adaptive.ratio = 0.5;  // must exceed 1
  EXPECT_THROW(CpdSolver(CsfSet(testing::tiny_tensor()), cfg),
               InvalidArgument);
  cfg = base_config();
  cfg.with_adaptive_rho(true);
  cfg.admm.adaptive.rescale = 1.0;  // must exceed 1
  EXPECT_THROW(CpdSolver(CsfSet(testing::tiny_tensor()), cfg),
               InvalidArgument);
}

}  // namespace
}  // namespace aoadmm
