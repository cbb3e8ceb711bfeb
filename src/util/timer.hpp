// Wall-clock timers the drivers use to report per-kernel breakdowns
// (MTTKRP vs ADMM vs other — paper Fig. 3).
#pragma once

#include <chrono>

namespace aoadmm {

/// Monotonic wall-clock stopwatch. start()/stop() accumulate; supports
/// repeated intervals.
class Timer {
 public:
  void start() noexcept { begin_ = clock::now(); running_ = true; }

  void stop() noexcept {
    if (running_) {
      accum_ += clock::now() - begin_;
      running_ = false;
    }
  }

  void reset() noexcept {
    accum_ = duration::zero();
    running_ = false;
  }

  /// Accumulated seconds (includes the in-flight interval if running).
  double seconds() const noexcept {
    duration d = accum_;
    if (running_) {
      d += clock::now() - begin_;
    }
    return std::chrono::duration<double>(d).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  using duration = clock::duration;
  duration accum_{duration::zero()};
  clock::time_point begin_{};
  bool running_ = false;
};

/// RAII guard that accumulates the lifetime of a scope into a Timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& t) noexcept : t_(t) { t_.start(); }
  ~ScopedTimer() { t_.stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& t_;
};

}  // namespace aoadmm
