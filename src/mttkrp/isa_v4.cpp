// x86-64-v4 flavor of the MTTKRP kernels: AVX-512 vectors and a BMI2 `pext`
// ALTO decode (mttkrp/isa.hpp). Only the kernel bodies are compiled under
// the target pragma; every header comes first, so shared inline code
// stays baseline. CMake compiles this file with -ffp-contract=off: the
// flavor returns the baseline's bits.
#include "mttkrp/isa_prelude.hpp"

#if AOADMM_ISA_FLAVORS
#define AOADMM_MTTKRP_PEXT_DECODE 1
#pragma GCC push_options
#pragma GCC target("arch=x86-64-v4")
namespace aoadmm::detail::isa_v4 {
#include "mttkrp/isa_kernels.inl"
}  // namespace aoadmm::detail::isa_v4
#pragma GCC pop_options
#endif
