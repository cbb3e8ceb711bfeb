// Every header the MTTKRP kernel bodies (mttkrp/isa_kernels.inl) use.
// Internal header: each flavor file includes it before its target pragma,
// so the shared inline code (std, la/, tensor/, obs/, util/, the row
// microkernels, the thread scratch) is compiled for the baseline only and
// no out-of-line copy of it can carry a wider instruction set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "mttkrp/isa.hpp"
#include "mttkrp/microkernels.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/mttkrp_impl.hpp"
#include "mttkrp/thread_scratch.hpp"
#include "obs/parallel_stats.hpp"
#include "parallel/runtime.hpp"
#include "sparse/csr.hpp"
#include "sparse/hybrid.hpp"
#include "tensor/alto.hpp"
#include "tensor/csf.hpp"
#include "util/types.hpp"

#if AOADMM_MTTKRP_ISA_FLAVORS
#include <immintrin.h>  // _pext_u64 for the v3/v4 ALTO decode
#endif
