// Tests for the small utilities: aligned allocation, timers, error checks,
// logging levels.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace aoadmm {
namespace {

TEST(Aligned, AllocationIsCacheLineAligned) {
  for (std::size_t bytes : {1u, 63u, 64u, 65u, 4096u}) {
    void* p = aligned_alloc_bytes(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes, 0u);
    aligned_free(p);
  }
}

TEST(Aligned, ZeroBytesStillValid) {
  void* p = aligned_alloc_bytes(0);
  ASSERT_NE(p, nullptr);
  aligned_free(p);
}

TEST(Aligned, VectorWithAlignedAllocator) {
  std::vector<double, AlignedAllocator<double>> v(1000, 1.5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  EXPECT_DOUBLE_EQ(v[999], 1.5);
}

TEST(ErrorChecks, CheckThrowsWithLocation) {
  try {
    AOADMM_CHECK_MSG(1 == 2, "custom context");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(ErrorChecks, CheckPassesSilently) {
  EXPECT_NO_THROW(AOADMM_CHECK(2 + 2 == 4));
}

TEST(ErrorChecks, HierarchyIsCatchable) {
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
}

TEST(TimerTest, AccumulatesAcrossIntervals) {
  Timer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  const double first = t.seconds();
  EXPECT_GT(first, 0.0);
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  EXPECT_GT(t.seconds(), first);
}

TEST(TimerTest, ResetClears) {
  Timer t;
  t.start();
  t.stop();
  t.reset();
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
}

TEST(TimerTest, ScopedTimerStops) {
  Timer t;
  {
    const ScopedTimer s(t);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double after = t.seconds();
  EXPECT_GT(after, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_DOUBLE_EQ(t.seconds(), after);  // not running anymore
}

TEST(Log, LevelFromStringParsesNamesAndNumbers) {
  EXPECT_EQ(log_level_from_string("error"), LogLevel::kError);
  EXPECT_EQ(log_level_from_string("WARN"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_string("Warning"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_string("info"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_string("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_string("0"), LogLevel::kError);
  EXPECT_EQ(log_level_from_string("3"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_string(""), std::nullopt);
  EXPECT_EQ(log_level_from_string("verbose"), std::nullopt);
  EXPECT_EQ(log_level_from_string("4"), std::nullopt);
}

TEST(Log, LevelGateWorks) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold message must be a no-op (nothing observable to assert
  // beyond "does not crash").
  AOADMM_LOG_DEBUG << "hidden";
  set_log_level(before);
}

}  // namespace
}  // namespace aoadmm
