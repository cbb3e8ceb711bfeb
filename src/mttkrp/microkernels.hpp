// Fixed-rank row microkernels shared by every MTTKRP variant. Internal.
//
// The innermost loops of all four kernels are rank-length elementwise ops
// (Hadamard down-products, value-scaled axpy, contribution scatter). With a
// runtime trip count the compiler emits a scalar prologue/epilogue and a
// length check per row; with a compile-time R it emits straight-line SIMD
// code, as wide as the kernel flavor that inlines it (mttkrp/isa.hpp).
// rank_dispatch() selects a specialization for the common power-of-two
// ranks (8/16/32/64) and falls back to a runtime-length generic (R = 0)
// for everything else — the tail ranks {1, 7, 33, ...} take the same code
// path they always did, just through RowOps<0>.
#pragma once

#include <cstddef>
#include <type_traits>

#include "util/types.hpp"

#if defined(AOADMM_HAVE_OPENMP)
#define AOADMM_SIMD _Pragma("omp simd")
#else
#define AOADMM_SIMD
#endif

namespace aoadmm::detail {

/// Rank-length row operations. R > 0: compile-time trip count (the runtime
/// `f` argument is ignored and must equal R). R == 0: runtime trip count.
template <int R>
struct RowOps {
  static constexpr bool kFixed = R > 0;

  static constexpr std::size_t len(std::size_t f) noexcept {
    return kFixed ? static_cast<std::size_t>(R) : f;
  }

  /// z[:] = 0
  static void zero(real_t* __restrict z, std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      z[k] = 0;
    }
  }

  /// dst[:] = src[:]
  static void copy(real_t* __restrict dst, const real_t* __restrict src,
                   std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] = src[k];
    }
  }

  /// dst[:] += src[:]
  static void add(real_t* __restrict dst, const real_t* __restrict src,
                  std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] += src[k];
    }
  }

  /// dst[:] += v * src[:]
  static void axpy(real_t* __restrict dst, real_t v,
                   const real_t* __restrict src, std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] += v * src[k];
    }
  }

  /// dst[:] = v * src[:]
  static void scale(real_t* __restrict dst, real_t v,
                    const real_t* __restrict src, std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] = v * src[k];
    }
  }

  /// dst[:] = a[:] * b[:]  (Hadamard)
  static void mul(real_t* __restrict dst, const real_t* __restrict a,
                  const real_t* __restrict b, std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] = a[k] * b[k];
    }
  }

  /// dst[:] = (v * a[:]) * b[:] — the fused order-3 contribution (same
  /// association as scale-then-mul_inplace, one pass instead of two).
  static void scale_mul(real_t* __restrict dst, real_t v,
                        const real_t* __restrict a,
                        const real_t* __restrict b, std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] = (v * a[k]) * b[k];
    }
  }

  /// dst[:] += a[:] * b[:]
  static void mul_add(real_t* __restrict dst, const real_t* __restrict a,
                      const real_t* __restrict b, std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] += a[k] * b[k];
    }
  }

  /// dst[:] *= src[:]
  static void mul_inplace(real_t* __restrict dst,
                          const real_t* __restrict src,
                          std::size_t f) noexcept {
    const std::size_t n = len(f);
    AOADMM_SIMD
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] *= src[k];
    }
  }
};

/// Calls body(std::integral_constant<int, R>{}) with R matched to `f`
/// (8/16/32/64) or R = 0 for the runtime-length generic path.
template <typename Body>
decltype(auto) rank_dispatch(std::size_t f, Body&& body) {
  switch (f) {
    case 8:
      return body(std::integral_constant<int, 8>{});
    case 16:
      return body(std::integral_constant<int, 16>{});
    case 32:
      return body(std::integral_constant<int, 32>{});
    case 64:
      return body(std::integral_constant<int, 64>{});
    default:
      return body(std::integral_constant<int, 0>{});
  }
}

}  // namespace aoadmm::detail
