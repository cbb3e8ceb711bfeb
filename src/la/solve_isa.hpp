// Instruction-set flavors of the multi-row triangular substitution behind
// Cholesky::solve_rows_inplace. Internal header.
//
// The panel substitution (la/solve_panel.inl) is compiled once per x86-64
// level (util/isa.hpp), into the namespaces isa_base, isa_v3 and isa_v4
// (la/solve_isa.cpp). A panel is up to C·W right-hand-side rows transposed
// into W-lane vectors, W being the flavor's vector width in doubles; each
// lane then runs solve_inplace's operations in solve_inplace's order, and
// without floating-point contraction, so every flavor returns the bits of
// solving row by row.
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/isa.hpp"
#include "util/types.hpp"

namespace aoadmm::detail {

/// Doubles a panel may span when it holds more than one vector per row:
/// 64 KiB, about one L1 data cache. Each flavor takes the most vectors per
/// panel row that fit, up to its kMaxVectors; up to rank 256 that is
/// always the most. Register blocking outweighs L1 residency there: at rank
/// 200 a 51 KiB panel of four AVX-512 vectors took 29% less time than a
/// 26 KiB panel of two.
inline constexpr std::size_t kSolvePanelBudget = 8192;

/// The widest vector any flavor uses, in doubles (x86-64-v4).
inline constexpr std::size_t kSolveMaxLanes = 8;

/// Scratch doubles a rank-n substitution needs: the budget, or one vector
/// per column when a rank is too large for the budget to hold even that.
constexpr std::size_t solve_panel_doubles(std::size_t n) noexcept {
  return std::max(kSolvePanelBudget, n * kSolveMaxLanes);
}

/// One flavor's substitution: solve A xᵀ = bᵀ in place for `rows`
/// right-hand sides of n values each, stored back to back from `b`, where
/// `l` is A's n x n row-major Cholesky factor. `panel` is 64-byte aligned
/// scratch of solve_panel_doubles(n) doubles that no other thread uses.
using SolveRowsKernel = void (*)(const real_t* l, std::size_t n, real_t* b,
                                 std::size_t rows, real_t* panel) noexcept;

namespace isa_base {
void solve_rows(const real_t* l, std::size_t n, real_t* b, std::size_t rows,
                real_t* panel) noexcept;
}
#if AOADMM_ISA_FLAVORS
namespace isa_v3 {
void solve_rows(const real_t* l, std::size_t n, real_t* b, std::size_t rows,
                real_t* panel) noexcept;
}
namespace isa_v4 {
void solve_rows(const real_t* l, std::size_t n, real_t* b, std::size_t rows,
                real_t* panel) noexcept;
}
#endif

/// The flavor's substitution, or null when this build lacks the flavor or
/// the running CPU does not report its level. Cholesky::solve_rows_inplace
/// runs active_isa_flavor()'s; tests compare the others through this.
SolveRowsKernel solve_rows_kernel(IsaFlavor flavor) noexcept;

}  // namespace aoadmm::detail
