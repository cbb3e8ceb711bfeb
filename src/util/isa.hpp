// The x86-64 levels the hot kernels are compiled for, and which one this
// process runs. Internal header.
//
// The MTTKRP bodies (mttkrp/isa.hpp) and the multi-row triangular
// substitution (la/solve_isa.hpp) are each compiled once per level: the
// build's baseline, x86-64-v3 (AVX2, FMA, BMI2) and x86-64-v4 (AVX-512).
// Every flavor compiles without floating-point contraction, so all of them
// return the same bits; only the vector width changes. The process runs the
// widest level the CPU reports, decided once here: this file holds the
// only CPUID query in the library, and no option, environment variable or
// config field overrides it.
//
// Only GCC on x86-64 builds the v3/v4 flavors (AOADMM_ISA_FLAVORS), and
// only when the library's own target lacks AVX: a build that already
// targets the host (AOADMM_NATIVE) runs its own baseline flavor, whose
// inline helpers a narrower pragma could not inline. Everything else builds
// the baseline flavor only.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__AVX__)
#define AOADMM_ISA_FLAVORS 1
#else
#define AOADMM_ISA_FLAVORS 0
#endif

namespace aoadmm::detail {

/// The x86-64 levels the kernels are compiled for, narrowest first.
enum class IsaFlavor {
  kBaseline,
  kX86_64_v3,
  kX86_64_v4,
};

inline constexpr IsaFlavor kIsaFlavors[] = {
    IsaFlavor::kBaseline, IsaFlavor::kX86_64_v3, IsaFlavor::kX86_64_v4};

/// "baseline" (the library's own target flags), "x86-64-v3" or
/// "x86-64-v4".
const char* to_string(IsaFlavor flavor) noexcept;

/// True when this build compiles `flavor` and the running CPU reports its
/// level. The baseline always qualifies.
bool isa_flavor_supported(IsaFlavor flavor) noexcept;

/// The widest supported flavor, chosen once per process.
IsaFlavor active_isa_flavor() noexcept;

}  // namespace aoadmm::detail
