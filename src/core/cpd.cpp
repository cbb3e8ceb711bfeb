#include "core/cpd.hpp"

namespace aoadmm {

const char* to_string(AdmmVariant v) noexcept {
  switch (v) {
    case AdmmVariant::kBaseline:
      return "base";
    case AdmmVariant::kBlocked:
      return "blocked";
  }
  return "?";
}

const char* to_string(StopReason r) noexcept {
  switch (r) {
    case StopReason::kConverged:
      return "converged";
    case StopReason::kMaxIterations:
      return "max_iterations";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kDeadline:
      return "deadline";
  }
  return "?";
}

}  // namespace aoadmm
