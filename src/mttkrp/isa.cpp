#include "mttkrp/isa.hpp"

namespace aoadmm {
namespace detail {

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

const MttkrpKernels* mttkrp_kernels(IsaFlavor flavor) noexcept {
#if AOADMM_MTTKRP_ISA_FLAVORS
  __builtin_cpu_init();  // safe even before static constructors have run
#endif
  switch (flavor) {
    case IsaFlavor::kBaseline:
      return &isa_base::kKernels;
#if AOADMM_MTTKRP_ISA_FLAVORS
    case IsaFlavor::kX86_64_v3:
      return __builtin_cpu_supports("x86-64-v3") ? &isa_v3::kKernels
                                                 : nullptr;
    case IsaFlavor::kX86_64_v4:
      return __builtin_cpu_supports("x86-64-v4") ? &isa_v4::kKernels
                                                 : nullptr;
#else
    case IsaFlavor::kX86_64_v3:
    case IsaFlavor::kX86_64_v4:
      break;
#endif
  }
  return nullptr;
}

IsaFlavor active_isa_flavor() noexcept {
  static const IsaFlavor active = [] {
    for (const IsaFlavor f :
         {IsaFlavor::kX86_64_v4, IsaFlavor::kX86_64_v3}) {
      if (mttkrp_kernels(f) != nullptr) {
        return f;
      }
    }
    return IsaFlavor::kBaseline;
  }();
  return active;
}

const MttkrpKernels& active_mttkrp_kernels() noexcept {
  static const MttkrpKernels& active = *mttkrp_kernels(active_isa_flavor());
  return active;
}

}  // namespace detail

const char* mttkrp_isa_flavor() noexcept {
  return detail::to_string(detail::active_isa_flavor());
}

}  // namespace aoadmm
