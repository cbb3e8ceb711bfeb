// Instruction-set flavors of the MTTKRP kernels. Internal header.
//
// Every MTTKRP compute body (the root CSF skeleton with its dense, CSR and
// hybrid leaves, the non-root scatter kernels and ALTO) is compiled once
// per x86-64 level (util/isa.hpp). Each flavor lives in its own namespace
// (isa_base, isa_v3, isa_v4) and exports one table of function pointers;
// the public entry points keep their argument checks, observability scope,
// output resizing and schedule resolution in baseline code and call the
// active flavor's table. The v3/v4 flavors also decode ALTO coordinates
// with BMI2 `pext`.
#pragma once

#include <cstddef>

#include "la/matrix.hpp"
#include "mttkrp/mttkrp.hpp"
#include "sparse/csr.hpp"
#include "sparse/hybrid.hpp"
#include "tensor/alto.hpp"
#include "tensor/csf.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace aoadmm::detail {

/// The compute bodies of one flavor. Every kernel expects checked
/// arguments and an output already sized and zeroed; scatter kernels take
/// a resolved schedule (never kAuto) and `planned` >= 1 threads.
struct MttkrpKernels {
  /// Root-mode CSF skeleton with a dense, CSR or hybrid leaf factor.
  void (*csf_dense)(const CsfTensor& csf, cspan<const Matrix> factors,
                    Matrix& out);
  void (*csf_csr)(const CsfTensor& csf, cspan<const Matrix> factors,
                  const CsrMatrix& leaf, Matrix& out);
  void (*csf_hybrid)(const CsfTensor& csf, cspan<const Matrix> factors,
                     const HybridMatrix& leaf, Matrix& out);
  /// Non-root target at CSF level `level` >= 1 of a single tree.
  void (*csf_nonroot)(const CsfTensor& csf, cspan<const Matrix> factors,
                      std::size_t level, Matrix& out, MttkrpSchedule sched,
                      int planned);
  void (*alto)(const AltoTensor& alto, cspan<const Matrix> factors,
               std::size_t target_mode, Matrix& out, MttkrpSchedule sched,
               int planned);
};

namespace isa_base {
extern const MttkrpKernels kKernels;
}
#if AOADMM_ISA_FLAVORS
namespace isa_v3 {
extern const MttkrpKernels kKernels;
}
namespace isa_v4 {
extern const MttkrpKernels kKernels;
}
#endif

/// The flavor's table, or null when this build lacks the flavor or the
/// running CPU does not report its level.
const MttkrpKernels* mttkrp_kernels(IsaFlavor flavor) noexcept;

/// The table of active_isa_flavor(): what every public entry point runs.
const MttkrpKernels& active_mttkrp_kernels() noexcept;

}  // namespace aoadmm::detail
