// MTTKRP — matricized tensor times Khatri-Rao product: K = X(m)·(⊙_{n≠m} Aₙ),
// the dominant kernel of AO-ADMM (Algorithm 2, paper Fig. 3).
//
// Kernels:
//  * mttkrp_csf        — CSF tensor, dense factors (Algorithm 3, any order).
//  * mttkrp_csf_csr    — leaf-level factor compressed to CSR (paper §IV.C).
//  * mttkrp_csf_hybrid — leaf factor in hybrid dense+CSR with prefetch.
//  * mttkrp_csf_nonroot— non-root target over a single tree (one-tree mode).
//  * mttkrp_coo        — serial COO reference used as the test oracle.
//
// The root-mode CSF kernels parallelize over nnz-weighted static chunks of
// root slices (race-free); `factors` is indexed by ORIGINAL mode id and all
// matrices must share the same rank F. The scatter kernels (non-root, ALTO)
// take an MttkrpSchedule policy controlling how the reduction maps to
// threads (see below and docs/performance.md). Every kernel but the COO
// oracle runs the widest x86-64 flavor the CPU reports (mttkrp/isa.hpp,
// mttkrp_isa_flavor()); all flavors return the same bits.
#pragma once

#include "la/matrix.hpp"
#include "sparse/csr.hpp"
#include "sparse/hybrid.hpp"
#include "tensor/coo.hpp"
#include "tensor/csf.hpp"

namespace aoadmm {

/// Storage format used for the leaf-level factor during MTTKRP; the
/// coarse-grained knob the Table II experiment sweeps.
enum class LeafFormat {
  kDense,
  kCsr,
  kHybrid,
};

const char* to_string(LeafFormat f) noexcept;

/// How a scatter kernel's non-root reduction maps to threads. Both
/// explicit policies walk precomputed nnz-weighted static root chunks
/// (cached on the CsfTensor) and are bitwise deterministic for a fixed
/// thread count.
///  * kWeighted — privatized reduction: per-thread dense output copies +
///    partitioned parallel reduction.
///  * kOwner    — owner-computes: rows touched by one chunk are written
///    directly, rows shared between chunks go through compact per-thread
///    slot buffers plus a fixup pass.
///  * kAuto     — cost model: kWeighted while the per-thread output copy is
///    small, kOwner for large target modes. The default, and the only
///    policy the CPD drivers use.
enum class MttkrpSchedule {
  kAuto,
  kWeighted,
  kOwner,
};

const char* to_string(MttkrpSchedule s) noexcept;

/// Which MTTKRP compilation/kernel family the CPD driver uses:
///  * kAllMode — one tree per mode, root kernel everywhere (needs an
///    ALLMODE CsfSet).
///  * kOneTree — a single tree; non-root modes go through
///    mttkrp_csf_nonroot (needs a ONEMODE CsfSet).
///  * kAlto    — bit-interleaved linearized kernel: one mode-agnostic
///    sorted non-zero stream serves every target mode (needs a ONEMODE
///    CsfSet with alto_linearizable dims; see mttkrp/alto.hpp).
///  * kAuto    — data-driven choice from the compilation strategy, order,
///    density and mode-length skew (resolve_auto_kernel). The default.
enum class MttkrpKernel {
  kAuto,
  kAllMode,
  kOneTree,
  kAlto,
};

const char* to_string(MttkrpKernel k) noexcept;

namespace detail {

/// Per-thread bytes below which the privatized (dense-copy) non-root
/// reduction beats owner-computes in the kAuto cost model: the copy costs a
/// zero + reduce sweep of out_rows*F doubles per thread per call, which is
/// noise while it fits comfortably in cache but dominates for long modes.
inline constexpr std::size_t kPrivatizeMaxBytes = std::size_t{8} << 20;

/// Resolve kAuto for a non-root target of `out_rows` rows at rank `rank`
/// with `nthreads` planned threads. Never returns kAuto.
MttkrpSchedule resolve_nonroot_schedule(MttkrpSchedule s, index_t out_rows,
                                        std::size_t rank,
                                        int nthreads) noexcept;

}  // namespace detail

/// Data-driven kAuto kernel resolution (the selection heuristic behind the
/// CPD drivers; logged at AOADMM_LOG_LEVEL=debug). A non-kAuto `requested`
/// is returned unchanged. Otherwise ALLMODE sets take the per-mode root
/// kernel, and ONEMODE sets pick between kOneTree and kAlto (order 3 with
/// strong mode-length skew and low density, where even nnz splitting beats
/// fiber splitting). `dense_leaf` must be false when a CSR/hybrid leaf
/// mirror is in play — ALTO reads every factor dense. `tiled` and `rank`
/// are unused: only bench/e2e, which compiles against this signature,
/// still passes them.
MttkrpKernel resolve_auto_kernel(MttkrpKernel requested, CsfStrategy strategy,
                                 bool tiled, bool dense_leaf,
                                 std::size_t order, cspan<index_t> dims,
                                 offset_t nnz, rank_t rank = 0);

/// K = X(m)·KRP with all-dense factors, m = csf.level_mode(0). `out` is
/// resized to (I_m, F) and overwritten.
void mttkrp_csf(const CsfTensor& csf, cspan<const Matrix> factors,
                Matrix& out);

/// Leaf factor (original mode csf.level_mode(order-1)) read from `leaf`
/// instead of `factors`; the other factors stay dense (paper: only C — the
/// per-non-zero factor — is worth compressing).
void mttkrp_csf_csr(const CsfTensor& csf, cspan<const Matrix> factors,
                    const CsrMatrix& leaf, Matrix& out);

void mttkrp_csf_hybrid(const CsfTensor& csf, cspan<const Matrix> factors,
                       const HybridMatrix& leaf, Matrix& out);

/// MTTKRP for a mode that is NOT the CSF root — the memory-efficient
/// one-tree strategy. Works for any order and any internal/leaf target
/// level. The scatter into shared output rows is atomic-free: a privatized
/// reduction (kWeighted) or owner-computes + fixup (kOwner).
void mttkrp_csf_nonroot(const CsfTensor& csf, cspan<const Matrix> factors,
                        std::size_t target_mode, Matrix& out,
                        MttkrpSchedule schedule = MttkrpSchedule::kAuto);

/// Dispatch on the tree: root-mode targets take the race-free root kernel,
/// anything else the non-root reduction kernel under `schedule`.
void mttkrp_dispatch(const CsfTensor& csf, cspan<const Matrix> factors,
                     std::size_t target_mode, Matrix& out,
                     MttkrpSchedule schedule = MttkrpSchedule::kAuto);

/// Kernel-aware dispatch used by the solver loops, under the kAuto
/// schedule. kAlto routes through the tree's lazily built linearized index
/// (CsfTensor::alto_index()), everything else through the tree-shape
/// dispatch above.
void mttkrp_dispatch(const CsfTensor& csf, cspan<const Matrix> factors,
                     std::size_t target_mode, Matrix& out,
                     MttkrpKernel kernel);

/// Serial reference implementation straight from the definition.
void mttkrp_coo(const CooTensor& coo, cspan<const Matrix> factors,
                std::size_t mode, Matrix& out);

/// The kernel flavor every MTTKRP above runs ("baseline" for the
/// library's own target flags, "x86-64-v3" or "x86-64-v4"): the widest the
/// CPU reports, chosen once per process. Every flavor returns the same bits; only the
/// vector width differs (mttkrp/isa.hpp).
const char* mttkrp_isa_flavor() noexcept;

}  // namespace aoadmm
