#include "util/isa.hpp"

#include <initializer_list>

namespace aoadmm::detail {

const char* to_string(IsaFlavor flavor) noexcept {
  switch (flavor) {
    case IsaFlavor::kBaseline:
      return "baseline";
    case IsaFlavor::kX86_64_v3:
      return "x86-64-v3";
    case IsaFlavor::kX86_64_v4:
      return "x86-64-v4";
  }
  return "?";
}

bool isa_flavor_supported(IsaFlavor flavor) noexcept {
#if AOADMM_ISA_FLAVORS
  __builtin_cpu_init();  // safe even before static constructors have run
  switch (flavor) {
    case IsaFlavor::kBaseline:
      return true;
    case IsaFlavor::kX86_64_v3:
      return __builtin_cpu_supports("x86-64-v3");
    case IsaFlavor::kX86_64_v4:
      return __builtin_cpu_supports("x86-64-v4");
  }
  return false;
#else
  return flavor == IsaFlavor::kBaseline;
#endif
}

IsaFlavor active_isa_flavor() noexcept {
  static const IsaFlavor active = [] {
    for (const IsaFlavor f :
         {IsaFlavor::kX86_64_v4, IsaFlavor::kX86_64_v3}) {
      if (isa_flavor_supported(f)) {
        return f;
      }
    }
    return IsaFlavor::kBaseline;
  }();
  return active;
}

}  // namespace aoadmm::detail
