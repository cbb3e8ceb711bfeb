// Instruction-set flavors of the MTTKRP kernels. Internal header.
//
// Every MTTKRP compute body (the root CSF skeleton with its dense, CSR and
// hybrid leaves, the non-root scatter kernels, ALTO and the dimension-tree
// passes) is compiled once per x86-64 level: the build's baseline,
// x86-64-v3 (AVX2, FMA, BMI2) and x86-64-v4 (AVX-512). Each flavor lives in
// its own namespace (isa_base, isa_v3, isa_v4) and exports one table of
// function pointers; the public entry points keep their argument checks,
// observability scope, output resizing and schedule resolution in baseline
// code and call the widest flavor the CPU reports, chosen once per process.
//
// All flavors compile without floating-point contraction
// (-ffp-contract=off), so they return the same bits: only the vector width
// changes. The v3/v4 flavors also decode ALTO coordinates with BMI2 `pext`.
// Only GCC on x86-64 builds the v3/v4 flavors (AOADMM_MTTKRP_ISA_FLAVORS),
// and only when the library's own target lacks AVX: a build that already
// targets the host (AOADMM_NATIVE) runs its own baseline flavor, whose
// inline helpers a narrower pragma could not inline. Everything else
// builds the baseline flavor only.
#pragma once

#include <cstddef>

#include "la/matrix.hpp"
#include "mttkrp/mttkrp.hpp"
#include "sparse/csr.hpp"
#include "sparse/hybrid.hpp"
#include "tensor/alto.hpp"
#include "tensor/csf.hpp"
#include "util/types.hpp"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__AVX__)
#define AOADMM_MTTKRP_ISA_FLAVORS 1
#else
#define AOADMM_MTTKRP_ISA_FLAVORS 0
#endif

namespace aoadmm::detail {

/// The x86-64 levels the MTTKRP kernels are compiled for, narrowest first.
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

/// One dimension-tree pass as the flavored kernels see it: the CSF level
/// the pass refreshes or targets, and the nnz-weighted chunk boundaries of
/// the level the pass walks (DimTreeEngine composes them).
struct DimTreePass {
  const CsfTensor& tree;
  cspan<const Matrix> factors;
  std::size_t rank;
  std::size_t level;
  cspan<std::size_t> bounds;
  int planned;
};

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
  /// Dimension-tree passes (mttkrp/dimtree.hpp): refresh up[level] from
  /// up[level+1] (null above the leaves), refresh down[level] from
  /// down[level-1] (null below the root), and combine the cached partials
  /// into a root, internal or leaf target.
  void (*dimtree_up)(const DimTreePass& pass, const real_t* up_next,
                     real_t* up);
  void (*dimtree_down)(const DimTreePass& pass, const real_t* down_parent,
                       real_t* down);
  void (*dimtree_root)(const DimTreePass& pass, const real_t* up1,
                       Matrix& out);
  void (*dimtree_inner)(const DimTreePass& pass, const real_t* down_parent,
                        const real_t* up, Matrix& out);
  void (*dimtree_leaf)(const DimTreePass& pass, const real_t* down_parent,
                       Matrix& out);
};

namespace isa_base {
extern const MttkrpKernels kKernels;
}
#if AOADMM_MTTKRP_ISA_FLAVORS
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

/// The widest flavor the CPU reports, chosen once per process.
IsaFlavor active_isa_flavor() noexcept;

/// The table of active_isa_flavor(): what every public entry point runs.
const MttkrpKernels& active_mttkrp_kernels() noexcept;

}  // namespace aoadmm::detail
