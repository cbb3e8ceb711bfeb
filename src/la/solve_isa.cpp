// The panel substitution (la/solve_isa.hpp) once per x86-64 level. Every
// header comes first, so shared inline code stays baseline; only the
// v3/v4 bodies are compiled under their target pragmas. CMake compiles
// this file with -ffp-contract=off: every flavor returns the bits of
// Cholesky::solve_inplace.
#include "la/solve_isa.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "util/isa.hpp"
#include "util/types.hpp"

// The library's own target: SSE2 on plain x86-64, and the host's width
// when the build targets it (AOADMM_NATIVE). With two lanes, eight vectors
// per panel row keep more independent chains in flight: at rank 16 they
// ran 15% faster than four.
namespace aoadmm::detail::isa_base {
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 8;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 4;
#else
constexpr std::size_t kLanes = 2;
#endif
constexpr std::size_t kMaxVectors = kLanes == 2 ? 8 : 4;
#include "la/solve_panel.inl"
}  // namespace aoadmm::detail::isa_base

#if AOADMM_ISA_FLAVORS
#pragma GCC push_options
#pragma GCC target("arch=x86-64-v3")
namespace aoadmm::detail::isa_v3 {
constexpr std::size_t kLanes = 4;
constexpr std::size_t kMaxVectors = 4;
#include "la/solve_panel.inl"
}  // namespace aoadmm::detail::isa_v3
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("arch=x86-64-v4")
namespace aoadmm::detail::isa_v4 {
constexpr std::size_t kLanes = 8;
constexpr std::size_t kMaxVectors = 4;
#include "la/solve_panel.inl"
}  // namespace aoadmm::detail::isa_v4
#pragma GCC pop_options
#endif

namespace aoadmm::detail {

SolveRowsKernel solve_rows_kernel(IsaFlavor flavor) noexcept {
  if (!isa_flavor_supported(flavor)) {
    return nullptr;
  }
  switch (flavor) {
    case IsaFlavor::kBaseline:
      return &isa_base::solve_rows;
#if AOADMM_ISA_FLAVORS
    case IsaFlavor::kX86_64_v3:
      return &isa_v3::solve_rows;
    case IsaFlavor::kX86_64_v4:
      return &isa_v4::solve_rows;
#else
    case IsaFlavor::kX86_64_v3:
    case IsaFlavor::kX86_64_v4:
      break;
#endif
  }
  return nullptr;
}

}  // namespace aoadmm::detail
