// Refresh supervision: validation gate, bounded quarantine, the
// backoff/breaker failure ladder, and deadline-stopped refreshes that
// publish partial progress instead of counting as failures.
#include "stream/supervisor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "stream/model_server.hpp"
#include "stream/streaming_solver.hpp"
#include "stream/streaming_tensor.hpp"
#include "testing/fault_injection.hpp"
#include "testing/helpers.hpp"

namespace aoadmm {
namespace {

namespace fs = std::filesystem;

CpdConfig quick_config() {
  CpdConfig cfg;
  cfg.with_rank(2).with_max_outer(40).with_tolerance(1e-3).with_seed(5);
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::disarm_faults();
    tensor_ = std::make_unique<StreamingTensor>(
        std::vector<index_t>{1, 1, 1}, StreamingOptions{});
    tensor_->apply(testing::dense_lowrank_tensor({7, 6, 5}, 2, 0.01));
    solver_ =
        std::make_unique<StreamingSolver>(*tensor_, quick_config(), &server_);
  }
  void TearDown() override { testing::disarm_faults(); }

  std::string scratch(const char* name) const {
    return (fs::path(::testing::TempDir()) / name).string();
  }

  ModelServer server_;
  std::unique_ptr<StreamingTensor> tensor_;
  std::unique_ptr<StreamingSolver> solver_;
};

TEST(ValidateBatch, RejectsWrongOrderAndNonFiniteValues) {
  const std::vector<index_t> coord{1, 2, 3};
  CooTensor good({4, 4, 4});
  good.add(coord, 1.5);
  std::string why;
  EXPECT_TRUE(validate_batch(good, 3, &why));
  EXPECT_FALSE(validate_batch(good, 4, &why));
  EXPECT_NE(why.find("order"), std::string::npos);

  CooTensor poisoned({4, 4, 4});
  poisoned.add(coord, std::numeric_limits<real_t>::quiet_NaN());
  EXPECT_FALSE(validate_batch(poisoned, 3, &why));
  EXPECT_NE(why.find("finite"), std::string::npos);

  CooTensor inf_poisoned({4, 4, 4});
  inf_poisoned.add(coord, std::numeric_limits<real_t>::infinity());
  EXPECT_FALSE(validate_batch(inf_poisoned, 3, nullptr));
}

TEST(Quarantine, BoundedJsonlSidecarCountsDrops) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "quarantine_bounded.jsonl").string();
  fs::remove(path);
  CooTensor batch({3, 3, 3});
  batch.add(std::vector<index_t>{0, 1, 2}, 4.5);
  batch.add(std::vector<index_t>{2, 2, 2},
            std::numeric_limits<real_t>::quiet_NaN());
  {
    BatchQuarantine q(path, 2);
    EXPECT_TRUE(q.quarantine(batch, "validation failed: test"));
    EXPECT_TRUE(q.quarantine(batch, "validation failed: test"));
    EXPECT_FALSE(q.quarantine(batch, "over the cap"));  // bounded
    EXPECT_EQ(q.records(), 2u);
    EXPECT_EQ(q.dropped(), 1u);
  }
  const std::string contents = read_file(path);
  // Two JSONL records with reason, trace ids, and the batch payload; NaN is
  // quoted (JSON has no NaN literal).
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), 2);
  EXPECT_NE(contents.find("\"reason\": \"validation failed: test\""),
            std::string::npos);
  EXPECT_NE(contents.find("\"batch_id\""), std::string::npos);
  EXPECT_NE(contents.find("\"nan\""), std::string::npos);
  EXPECT_EQ(contents.find("over the cap"), std::string::npos);
  fs::remove(path);
}

// The acceptance ladder: three consecutive injected failures open the
// breaker; while it is open attempts are skipped outright and the server
// keeps serving the last good snapshot; after the cooldown a half-open
// trial succeeds, closing the breaker and resetting the ladder.
TEST_F(SupervisorTest, BreakerOpensAfterThresholdAndRecovers) {
  SupervisorOptions opts;
  opts.breaker_threshold = 3;
  opts.breaker_cooldown_seconds = 5.0;
  opts.backoff_initial_seconds = 0.5;
  opts.backoff_multiplier = 2.0;
  opts.backoff_jitter = 0;  // deterministic schedule for exact assertions
  RefreshSupervisor supervisor(*solver_, opts);

  // Establish a last-good snapshot before the faults start.
  auto first = supervisor.try_refresh_at(0.0);
  ASSERT_EQ(first.outcome, RefreshSupervisor::Attempt::Outcome::kRefreshed);
  const std::uint64_t good_epoch = server_.epoch();
  EXPECT_EQ(good_epoch, 1u);

  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kRefreshThrow) = {1.0, 3};
  testing::arm_faults(cfg);

  // Failure 1: contained, backoff window opens.
  auto a = supervisor.try_refresh_at(1.0);
  EXPECT_EQ(a.outcome, RefreshSupervisor::Attempt::Outcome::kFailed);
  EXPECT_FALSE(a.error.empty());
  EXPECT_EQ(a.breaker, BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(a.next_allowed_seconds, 1.5);
  EXPECT_EQ(supervisor.consecutive_failures(), 1u);

  // Inside the backoff window: skipped, not attempted (the fault is armed
  // but does not fire — the solver is never called).
  auto skipped = supervisor.try_refresh_at(1.2);
  EXPECT_EQ(skipped.outcome,
            RefreshSupervisor::Attempt::Outcome::kSkippedBackoff);

  // Failures 2 and 3: backoff doubles, then the breaker trips.
  auto b = supervisor.try_refresh_at(2.0);
  EXPECT_EQ(b.outcome, RefreshSupervisor::Attempt::Outcome::kFailed);
  EXPECT_DOUBLE_EQ(b.next_allowed_seconds, 3.0);
  auto c = supervisor.try_refresh_at(3.5);
  EXPECT_EQ(c.outcome, RefreshSupervisor::Attempt::Outcome::kFailed);
  EXPECT_EQ(c.breaker, BreakerState::kOpen);
  EXPECT_EQ(supervisor.stats().breaker_trips, 1u);
  EXPECT_DOUBLE_EQ(
      obs::MetricsRegistry::global().gauge_value("robust/stream_breaker_open"),
      1.0);

  // Breaker open: attempts are skipped, the prior snapshot keeps serving.
  auto open_skip = supervisor.try_refresh_at(5.0);
  EXPECT_EQ(open_skip.outcome,
            RefreshSupervisor::Attempt::Outcome::kSkippedBreaker);
  EXPECT_EQ(server_.epoch(), good_epoch);
  ModelServer::Reader reader = server_.reader();
  EXPECT_NE(reader.try_acquire(), nullptr);

  // Cooldown elapsed (tripped at 3.5 + 5.0): the half-open trial runs, the
  // fault budget is spent, the refresh succeeds and the ladder resets.
  auto recovered = supervisor.try_refresh_at(9.0);
  EXPECT_EQ(recovered.outcome,
            RefreshSupervisor::Attempt::Outcome::kRefreshed);
  EXPECT_EQ(supervisor.breaker(), BreakerState::kClosed);
  EXPECT_EQ(supervisor.consecutive_failures(), 0u);
  EXPECT_GT(server_.epoch(), good_epoch);
  EXPECT_DOUBLE_EQ(
      obs::MetricsRegistry::global().gauge_value("robust/stream_breaker_open"),
      0.0);

  const SupervisorStats& stats = supervisor.stats();
  EXPECT_EQ(stats.failures, 3u);
  EXPECT_EQ(stats.backoff_skips, 1u);
  EXPECT_EQ(stats.breaker_skips, 1u);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.refreshed, 2u);
}

TEST_F(SupervisorTest, HalfOpenFailureReopensTheBreaker) {
  SupervisorOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown_seconds = 2.0;
  opts.backoff_jitter = 0;
  RefreshSupervisor supervisor(*solver_, opts);

  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kRefreshThrow) = {1.0, 2};
  testing::arm_faults(cfg);

  auto a = supervisor.try_refresh_at(0.0);
  EXPECT_EQ(a.breaker, BreakerState::kOpen);
  // Half-open trial fails -> straight back to open, another trip counted.
  auto b = supervisor.try_refresh_at(3.0);
  EXPECT_EQ(b.outcome, RefreshSupervisor::Attempt::Outcome::kFailed);
  EXPECT_EQ(b.breaker, BreakerState::kOpen);
  EXPECT_EQ(supervisor.stats().breaker_trips, 2u);
  // Second cooldown, fault budget exhausted: recovery.
  auto c = supervisor.try_refresh_at(6.0);
  EXPECT_EQ(c.outcome, RefreshSupervisor::Attempt::Outcome::kRefreshed);
  EXPECT_EQ(supervisor.breaker(), BreakerState::kClosed);
}

// A refresh stopped by its deadline is progress, not failure: the hang
// fault outlasts the CancelToken deadline, the solve stops with
// StopReason::kDeadline, and the partially converged model still
// publishes. The ladder must NOT advance. The deadline is one no un-hung
// refresh of this tensor gets near, so the outcome does not depend on the
// machine's speed or load.
TEST_F(SupervisorTest, DeadlineStoppedRefreshPublishesAndIsNotAFailure) {
  SupervisorOptions opts;
  opts.refresh_deadline_seconds = 30;
  RefreshSupervisor supervisor(*solver_, opts);

  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kRefreshHang) = {1.0, 1};
  testing::arm_faults(cfg);

  auto attempt = supervisor.try_refresh_at(0.0);
  ASSERT_EQ(attempt.outcome, RefreshSupervisor::Attempt::Outcome::kRefreshed);
  EXPECT_EQ(attempt.report.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(supervisor.stats().deadline_hits, 1u);
  EXPECT_EQ(supervisor.consecutive_failures(), 0u);
  EXPECT_EQ(server_.epoch(), 1u);  // the partial model was published

  // The deadline token resets per attempt: with the hang budget spent the
  // next refresh completes normally.
  auto next = supervisor.try_refresh_at(1.0);
  ASSERT_EQ(next.outcome, RefreshSupervisor::Attempt::Outcome::kRefreshed);
  EXPECT_NE(next.report.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(supervisor.stats().deadline_hits, 1u);
}

TEST_F(SupervisorTest, ImplicatedBatchIsQuarantinedOnRefreshFailure) {
  const std::string path = scratch("quarantine_implicated.jsonl");
  fs::remove(path);
  BatchQuarantine quarantine(path, 16);
  RefreshSupervisor supervisor(*solver_, SupervisorOptions{}, &quarantine);

  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kRefreshThrow) = {1.0, 1};
  testing::arm_faults(cfg);

  CooTensor suspect({3, 3, 3});
  suspect.add(std::vector<index_t>{1, 1, 1}, 2.0);
  auto attempt = supervisor.try_refresh_at(0.0, &suspect);
  EXPECT_EQ(attempt.outcome, RefreshSupervisor::Attempt::Outcome::kFailed);
  EXPECT_EQ(quarantine.records(), 1u);
  EXPECT_EQ(supervisor.stats().quarantined, 1u);
  EXPECT_NE(read_file(path).find("implicated in refresh failure"),
            std::string::npos);
  fs::remove(path);
}

}  // namespace
}  // namespace aoadmm
