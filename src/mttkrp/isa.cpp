#include "mttkrp/isa.hpp"

namespace aoadmm {
namespace detail {

const MttkrpKernels* mttkrp_kernels(IsaFlavor flavor) noexcept {
  if (!isa_flavor_supported(flavor)) {
    return nullptr;
  }
  switch (flavor) {
    case IsaFlavor::kBaseline:
      return &isa_base::kKernels;
#if AOADMM_ISA_FLAVORS
    case IsaFlavor::kX86_64_v3:
      return &isa_v3::kKernels;
    case IsaFlavor::kX86_64_v4:
      return &isa_v4::kKernels;
#else
    case IsaFlavor::kX86_64_v3:
    case IsaFlavor::kX86_64_v4:
      break;
#endif
  }
  return nullptr;
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
