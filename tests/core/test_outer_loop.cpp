// The outer-loop contract every CPD driver inherits from core/outer_loop.hpp:
// the stop reason matches the convergence flag, a cancelled run does no
// work, on_iteration fires once per iteration with the trace point,
// checkpoint writes are journaled and survived under robustness, and the
// per-snapshot ADMM time telescopes to the run total. One parameterized
// suite runs it against all five drivers.
#include "core/outer_loop.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/coupled.hpp"
#include "core/solver.hpp"
#include "dist/sharded_solver.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "testing/fault_injection.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

enum class Driver { kQuadratic, kLoss, kSharded, kAls, kCoupled };

const char* driver_name(Driver d) {
  switch (d) {
    case Driver::kQuadratic:
      return "quadratic";
    case Driver::kLoss:
      return "loss";
    case Driver::kSharded:
      return "sharded";
    case Driver::kAls:
      return "als";
    case Driver::kCoupled:
      return "coupled";
  }
  return "?";
}

void PrintTo(Driver d, std::ostream* os) { *os << driver_name(d); }

const CooTensor& contract_tensor() {
  static const CooTensor x =
      testing::dense_lowrank_tensor({14, 11, 9}, 3, 0.02, 13);
  return x;
}

CpdConfig contract_config(Driver d) {
  CpdConfig cfg;
  cfg.with_rank(5).with_max_outer(12).with_tolerance(1e-12).with_seed(123);
  cfg.admm.max_iterations = 25;
  cfg.admm.tolerance = 1e-2;
  cfg.admm.block_size = 16;
  cfg.with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  if (d == Driver::kLoss) {
    cfg.with_loss(parse_loss_spec("kl"));
  }
  if (d == Driver::kSharded) {
    ShardOptions so;
    so.grid = {2, 2, 1};
    cfg.with_shards(so);
  }
  return cfg;
}

CpdResult run_driver(Driver d, const CpdConfig& cfg) {
  const CooTensor& x = contract_tensor();
  switch (d) {
    case Driver::kQuadratic:
    case Driver::kLoss: {
      const CsfSet csf(x);
      CpdSolver solver(csf, cfg);
      return solver.solve();
    }
    case Driver::kSharded: {
      ShardedCpdSolver solver(x, cfg);
      return solver.solve();
    }
    case Driver::kAls: {
      const CsfSet csf(x);
      return cpd_als(csf, cfg);
    }
    case Driver::kCoupled: {
      const CsfSet csf(x);
      CoupledMatrix cm;
      Rng rng(3);
      cm.y = Matrix::random_uniform(x.dim(0), 4, rng, 0.0, 1.0);
      cm.weight = 0.5;
      return coupled_factorize(csf, cfg, {cm}).cpd;
    }
  }
  return {};
}

class OuterLoopContract : public ::testing::TestWithParam<Driver> {};

TEST_P(OuterLoopContract, ConvergedIffStopReasonIsConverged) {
  CpdConfig cfg = contract_config(GetParam());
  cfg.with_max_outer(60).with_tolerance(1e-3);
  const CpdResult converged = run_driver(GetParam(), cfg);
  ASSERT_TRUE(converged.converged) << "the loose tolerance must be reached";
  EXPECT_EQ(converged.stop_reason, StopReason::kConverged);
  EXPECT_LT(converged.outer_iterations, 60u);

  cfg.with_max_outer(3).with_tolerance(0);
  const CpdResult capped = run_driver(GetParam(), cfg);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.stop_reason, StopReason::kMaxIterations);
  EXPECT_EQ(capped.outer_iterations, 3u);
}

TEST_P(OuterLoopContract, PreCancelledTokenRunsNoIteration) {
  CpdConfig cfg = contract_config(GetParam());
  cfg.cancel = make_cancel_token();
  cfg.cancel->cancel();
  unsigned callbacks = 0;
  cfg.on_iteration = [&](const obs::MetricsSnapshot&) { ++callbacks; };
  const CpdResult r = run_driver(GetParam(), cfg);
  EXPECT_EQ(r.outer_iterations, 0u);
  EXPECT_EQ(r.stop_reason, StopReason::kCancelled);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(callbacks, 0u);
  EXPECT_TRUE(r.trace.empty());
}

TEST_P(OuterLoopContract, OnIterationFiresOncePerIterationWithTheTracePoint) {
  CpdConfig cfg = contract_config(GetParam());
  cfg.with_max_outer(5);
  std::vector<obs::MetricsSnapshot> snaps;
  cfg.on_iteration = [&](const obs::MetricsSnapshot& s) {
    snaps.push_back(s);
  };
  const CpdResult r = run_driver(GetParam(), cfg);
  ASSERT_EQ(snaps.size(), r.outer_iterations);
  ASSERT_EQ(r.trace.size(), r.outer_iterations);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].outer_iteration, i + 1);
    EXPECT_EQ(snaps[i].relative_error, r.trace.points()[i].relative_error)
        << "iteration " << i + 1;
    EXPECT_EQ(snaps[i].mode_mttkrp_seconds.size(), 3u);
    EXPECT_EQ(snaps[i].factor_density.size(), 3u);
  }
}

TEST_P(OuterLoopContract, SnapshotAdmmSecondsSumToTheRunTotal) {
  // Each snapshot's admm_seconds is the ADMM bucket's advance over its
  // iteration, so the sum telescopes to the run total whatever the timings.
  CpdConfig cfg = contract_config(GetParam());
  double admm_sum = 0;
  cfg.on_iteration = [&](const obs::MetricsSnapshot& s) {
    admm_sum += s.admm_seconds;
  };
  const CpdResult r = run_driver(GetParam(), cfg);
  EXPECT_GT(r.times.admm_seconds, 0.0);
  EXPECT_NEAR(admm_sum, r.times.admm_seconds, 1e-9);
}

TEST_P(OuterLoopContract, CheckpointWritesAreJournaledAndFailuresCounted) {
  const Driver d = GetParam();
  const std::string tag = driver_name(d);
  const std::string ckpt =
      ::testing::TempDir() + "aoadmm_loop_" + tag + ".ckpt";
  const std::string events =
      ::testing::TempDir() + "aoadmm_loop_" + tag + ".jsonl";
  std::remove(ckpt.c_str());
  std::remove(events.c_str());

  // Writes at outer 2 (faulted), 4 and 6; the tolerance never triggers.
  CpdConfig cfg = contract_config(d);
  cfg.with_max_outer(6).with_robustness().with_checkpoint(ckpt, 2);
  if (d == Driver::kAls || d == Driver::kCoupled) {
    // No resume entry point (and, coupled, no side factors in the file
    // format).
    EXPECT_THROW(run_driver(d, cfg), InvalidArgument);
    return;
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const double failures_before =
      reg.counter_value("robust/checkpoint_write_failures");
  const double written_before = reg.counter_value("cpd/checkpoints_written");
  testing::FaultConfig faults;
  faults.at(testing::FaultSite::kCheckpointWrite) = {1.0, 1};
  CpdResult r;
  {
    // Undoes both process-global hooks even if the solve throws.
    struct Disarm {
      ~Disarm() {
        testing::disarm_faults();
        obs::EventJournal::install_global(nullptr);
      }
    };
    obs::EventJournal journal(events);
    const Disarm disarm;
    obs::EventJournal::install_global(&journal);
    testing::arm_faults(faults);
    r = run_driver(d, cfg);
  }

  ASSERT_EQ(r.outer_iterations, 6u);
  EXPECT_EQ(r.recovery.count(RecoveryKind::kCheckpointWriteFailure), 1u);
  EXPECT_EQ(reg.counter_value("robust/checkpoint_write_failures"),
            failures_before + 1);
  EXPECT_EQ(reg.counter_value("cpd/checkpoints_written"), written_before + 2);

  std::ifstream in(events);
  ASSERT_TRUE(in.good());
  std::size_t journaled = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"checkpoint_written\"") != std::string::npos) {
      ++journaled;
    }
  }
  EXPECT_EQ(journaled, 2u);
  std::remove(ckpt.c_str());
  std::remove(events.c_str());
}

INSTANTIATE_TEST_SUITE_P(All, OuterLoopContract,
                         ::testing::Values(Driver::kQuadratic, Driver::kLoss,
                                           Driver::kSharded, Driver::kAls,
                                           Driver::kCoupled),
                         [](const ::testing::TestParamInfo<Driver>& info) {
                           return std::string(driver_name(info.param));
                         });

}  // namespace
}  // namespace aoadmm
