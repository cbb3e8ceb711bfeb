// End-to-end observability: a tiny constrained CPD must deliver exactly one
// well-formed MetricsSnapshot per outer iteration for both ADMM variants,
// populate the global registry, and export valid JSON everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/solver.hpp"
#include "testing/helpers.hpp"
#include "testing/json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"

namespace aoadmm {
namespace {

/// Non-negative CPD of a fixed six outer iterations.
CpdConfig small_config(AdmmVariant variant) {
  CpdConfig cfg;
  cfg.rank = 4;
  cfg.max_outer_iterations = 6;
  cfg.tolerance = 0;  // never converge early: iteration count is exact
  cfg.variant = variant;
  cfg.admm.block_size = 8;
  cfg.seed = 99;
  cfg.with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  return cfg;
}

void check_snapshots(AdmmVariant variant) {
  const CooTensor x = testing::random_coo({20, 16, 12}, 600);
  const CsfSet csf(x);
  CpdConfig opts = small_config(variant);

  std::vector<obs::MetricsSnapshot> snaps;
  opts.on_iteration = [&snaps](const obs::MetricsSnapshot& s) {
    snaps.push_back(s);
  };
  const CpdResult r = CpdSolver(csf, opts).solve();

  // Callback count == outer iterations, exactly.
  ASSERT_EQ(snaps.size(), static_cast<std::size_t>(r.outer_iterations));
  ASSERT_EQ(snaps.size(), 6u);

  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const obs::MetricsSnapshot& s = snaps[i];
    EXPECT_EQ(s.outer_iteration, static_cast<unsigned>(i + 1));
    // Residuals are present (ADMM always runs at least one inner
    // iteration, so worst >= mean >= 0 and worst > 0 is expected while
    // the factorization is still moving).
    EXPECT_GE(s.worst_primal_residual, s.mean_primal_residual);
    EXPECT_GE(s.worst_dual_residual, s.mean_dual_residual);
    EXPECT_GE(s.mean_primal_residual, 0.0);
    EXPECT_GE(s.mean_dual_residual, 0.0);
    EXPECT_GT(s.admm_inner_iterations, 0u);
    // Imbalance is a fraction of busy time.
    EXPECT_GE(s.thread_imbalance, 0.0);
    EXPECT_LE(s.thread_imbalance, 1.0);
    // Per-mode kernel times: one entry per mode, all finite and >= 0.
    ASSERT_EQ(s.mode_mttkrp_seconds.size(), csf.order());
    for (const double sec : s.mode_mttkrp_seconds) {
      EXPECT_GE(sec, 0.0);
    }
    ASSERT_EQ(s.factor_density.size(), csf.order());
    for (const real_t d : s.factor_density) {
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
    EXPECT_GE(s.relative_error, 0.0);
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_GE(s.iteration_seconds, 0.0);
    if (i > 0) {
      EXPECT_GE(s.seconds, snaps[i - 1].seconds);
      EXPECT_EQ(s.mttkrp_count, snaps[i - 1].mttkrp_count + csf.order());
    }
  }
}

TEST(Observability, BaselineVariantDeliversSnapshots) {
  check_snapshots(AdmmVariant::kBaseline);
}

TEST(Observability, BlockedVariantDeliversSnapshots) {
  check_snapshots(AdmmVariant::kBlocked);
}

TEST(Observability, AlsDeliversSnapshots) {
  const CooTensor x = testing::random_coo({15, 12, 10}, 400);
  const CsfSet csf(x);
  CpdConfig opts = small_config(AdmmVariant::kBlocked);
  unsigned calls = 0;
  opts.on_iteration = [&calls](const obs::MetricsSnapshot& s) {
    ++calls;
    EXPECT_EQ(s.mode_mttkrp_seconds.size(), 3u);
    EXPECT_GE(s.thread_imbalance, 0.0);
    EXPECT_LE(s.thread_imbalance, 1.0);
  };
  const CpdResult r = cpd_als(csf, opts);
  EXPECT_EQ(calls, r.outer_iterations);
}

TEST(Observability, EmptyCallbackCostsNothingAndStillWorks) {
  const CooTensor x = testing::random_coo({10, 8, 6}, 150);
  const CsfSet csf(x);
  CpdConfig opts = small_config(AdmmVariant::kBlocked);
  ASSERT_FALSE(opts.on_iteration);
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_EQ(r.outer_iterations, 6u);
}

TEST(Observability, SnapshotJsonIsOneValidObjectPerLine) {
  const CooTensor x = testing::random_coo({10, 8, 6}, 150);
  const CsfSet csf(x);
  CpdConfig opts = small_config(AdmmVariant::kBaseline);
  std::ostringstream os;
  opts.on_iteration = [&os](const obs::MetricsSnapshot& s) {
    s.write_json(os);
    os << "\n";
  };
  CpdSolver(csf, opts).solve();

  std::istringstream lines(os.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(aoadmm::testing::is_valid_json(line)) << line;
    EXPECT_NE(line.find("\"worst_primal_residual\""), std::string::npos);
    EXPECT_NE(line.find("\"thread_imbalance\""), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, 6u);
}

TEST(Observability, DriverPopulatesGlobalRegistry) {
  const CooTensor x = testing::random_coo({10, 8, 6}, 150);
  const CsfSet csf(x);
  CpdConfig opts = small_config(AdmmVariant::kBlocked);
  auto& reg = obs::MetricsRegistry::global();
  const double runs_before = reg.counter_value("cpd/runs");
  const double outer_before = reg.counter_value("cpd/outer_iterations");
  CpdSolver(csf, opts).solve();

  EXPECT_DOUBLE_EQ(reg.counter_value("cpd/runs"), runs_before + 1);
  EXPECT_DOUBLE_EQ(reg.counter_value("cpd/outer_iterations"),
                   outer_before + 6);
  EXPECT_GE(reg.histogram_snapshot("admm/inner_iterations").count, 18u);
  EXPECT_GT(reg.histogram_snapshot("mttkrp/seconds").count, 0u);
  EXPECT_GT(reg.counter_value("mttkrp/csf3_dense/calls"), 0.0);

  std::ostringstream os;
  reg.write_json(os);
  EXPECT_TRUE(aoadmm::testing::is_valid_json(os.str()));
}

TEST(Observability, ChromeTraceFromRealRunParsesAsJson) {
  obs::profiling_start();
  const CooTensor x = testing::random_coo({10, 8, 6}, 150);
  const CsfSet csf(x);
  CpdConfig opts = small_config(AdmmVariant::kBlocked);
  CpdSolver(csf, opts).solve();
  obs::profiling_stop();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(aoadmm::testing::is_valid_json(json)) << json;
#if defined(AOADMM_ENABLE_PROFILING)
  // With spans compiled in, the driver must produce >= 3 nesting levels:
  // cpd/aoadmm -> cpd/outer -> cpd/mode -> mttkrp/* | admm/*.
  unsigned max_depth = 0;
  for (const obs::SpanStats& s : obs::profile_report()) {
    max_depth = std::max(max_depth, s.depth + 1);
  }
  EXPECT_GE(max_depth, 3u);
  EXPECT_NE(json.find("cpd/aoadmm"), std::string::npos);
  EXPECT_NE(json.find("cpd/mode"), std::string::npos);
#endif
}

TEST(KernelBreakdownTest, FractionsAreZeroWhenTotalIsZero) {
  const KernelBreakdown kb;  // all zeros
  EXPECT_DOUBLE_EQ(kb.total_seconds, 0.0);
  EXPECT_DOUBLE_EQ(kb.mttkrp_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(kb.admm_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(kb.other_fraction(), 0.0);
}

TEST(KernelBreakdownTest, FractionsSumToOneWhenPositive) {
  KernelBreakdown kb;
  kb.mttkrp_seconds = 2.0;
  kb.admm_seconds = 1.0;
  kb.other_seconds = 1.0;
  kb.total_seconds = 4.0;
  EXPECT_DOUBLE_EQ(kb.mttkrp_fraction() + kb.admm_fraction() +
                       kb.other_fraction(),
                   1.0);
}

}  // namespace
}  // namespace aoadmm
