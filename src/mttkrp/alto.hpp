// MTTKRP over the ALTO linearized format (tensor/alto.hpp): one flat pass
// over the sorted bit-interleaved non-zero stream serves ANY target mode —
// per non-zero, every mode coordinate is decoded from the 64-bit code with
// a few shift/and ops and the contribution val · ∘_{n≠target} Aₙ(iₙ,:) is
// scattered into the target row. Work is partitioned by non-zero count
// (perfectly even by construction), which load-balances power-law tensors
// whose root-slice weights defeat CSF fiber splitting. Scatter reductions
// reuse the CSF non-root machinery: per-thread privatized copies
// (kWeighted) or owner-computes slot buffers + fixup (kOwner). The bodies
// live in mttkrp/alto_kernels.inl, compiled once per ISA flavor
// (mttkrp/isa.hpp); the v3/v4 flavors decode each coordinate with one BMI2
// `pext`.
#pragma once

#include "la/matrix.hpp"
#include "mttkrp/mttkrp.hpp"
#include "tensor/alto.hpp"

namespace aoadmm {

/// K = X(m)·KRP over the linearized index. `factors` is indexed by original
/// mode id (same contract as the CSF kernels); `out` is resized to
/// (I_m, F) and overwritten. Bitwise deterministic for a fixed thread
/// count.
void mttkrp_alto(const AltoTensor& alto, cspan<const Matrix> factors,
                 std::size_t target_mode, Matrix& out,
                 MttkrpSchedule schedule = MttkrpSchedule::kAuto);

}  // namespace aoadmm
