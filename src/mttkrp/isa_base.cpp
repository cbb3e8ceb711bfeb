// Baseline flavor of the MTTKRP kernels, built with the library's own
// target flags (mttkrp/isa.hpp). The only flavor on builds other than GCC
// on x86-64, and the one every x86-64 CPU can run.
#include "mttkrp/isa_prelude.hpp"

namespace aoadmm::detail::isa_base {
#include "mttkrp/isa_kernels.inl"
}  // namespace aoadmm::detail::isa_base
