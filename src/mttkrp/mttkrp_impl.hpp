// Baseline helpers shared by every MTTKRP kernel flavor (mttkrp/isa.hpp).
// Internal header: the flavor files include it before their target pragma,
// so any out-of-line copy of these inline functions stays baseline code.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>

#include "util/types.hpp"

namespace aoadmm::detail {

/// Monotonic seconds for per-thread busy-time measurement.
inline double mttkrp_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pointer table shared across a team: per-thread private-accumulator base
/// addresses, registered inside the region and read by the reduction pass.
/// Inline storage for the common case so steady-state calls allocate
/// nothing (same pattern as obs::BusyTimes). Shared by the privatized /
/// owner-computes scatter paths of the CSF non-root and ALTO kernels.
class BufferTable {
 public:
  explicit BufferTable(int n) : n_(n) {
    if (n_ > kInline) {
      heap_.reset(new real_t*[static_cast<std::size_t>(n_)]());
      bufs_ = heap_.get();
    } else {
      std::fill(inline_bufs_, inline_bufs_ + kInline, nullptr);
    }
  }
  real_t** data() noexcept { return bufs_; }
  int size() const noexcept { return n_; }

 private:
  static constexpr int kInline = 64;
  real_t* inline_bufs_[kInline];
  std::unique_ptr<real_t*[]> heap_;
  real_t** bufs_ = inline_bufs_;
  int n_ = 0;
};

}  // namespace aoadmm::detail
