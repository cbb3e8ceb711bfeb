// Coordinate-format sparse tensor: the interchange representation. Tensors
// are loaded/generated as COO, then compiled into CSF (csf.hpp) for the
// compute kernels.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace aoadmm {

class CooTensor {
 public:
  CooTensor() = default;

  /// Empty tensor with the given mode lengths (order = dims.size() >= 1).
  explicit CooTensor(std::vector<index_t> dims);

  std::size_t order() const noexcept { return dims_.size(); }
  index_t dim(std::size_t mode) const { return dims_.at(mode); }
  const std::vector<index_t>& dims() const noexcept { return dims_; }
  offset_t nnz() const noexcept { return vals_.size(); }

  void reserve(offset_t n);

  /// Append one non-zero. `coord` must have order() entries, each within the
  /// corresponding mode length.
  void add(cspan<index_t> coord, real_t value);

  /// Grow `mode` so that index `idx` is addressable (no-op when it already
  /// is). Throws OverflowError when idx is the index_t maximum — the slice
  /// count idx+1 would wrap — leaving the tensor unchanged. This is the
  /// checked growth path streaming appends go through.
  void grow_to_fit(std::size_t mode, index_t idx);

  /// Append every non-zero of `other` (same order), growing mode lengths to
  /// cover it. Throws OverflowError when the combined non-zero count would
  /// exceed the offset_t range or a mode length would wrap; the tensor is
  /// unchanged on throw.
  void append_all(const CooTensor& other);

  /// Index of non-zero `n` along `mode`.
  index_t index(std::size_t mode, offset_t n) const noexcept {
    return inds_[mode][n];
  }
  real_t value(offset_t n) const noexcept { return vals_[n]; }
  real_t& value(offset_t n) noexcept { return vals_[n]; }

  cspan<index_t> mode_indices(std::size_t mode) const noexcept {
    return inds_[mode];
  }
  cspan<real_t> values() const noexcept { return vals_; }
  span<real_t> values() noexcept { return vals_; }

  /// Lexicographically sort non-zeros by the given mode permutation
  /// (perm[0] most significant). perm must be a permutation of 0..order-1.
  /// When `placement` is non-null it receives the position mapping:
  /// placement[p] = sorted position of the non-zero that was at p (used by
  /// CSF construction to remember where each non-zero's leaf landed).
  void sort_by(cspan<std::size_t> perm,
               std::vector<offset_t>* placement = nullptr);

  /// Sort with `mode` most significant and the remaining modes in
  /// increasing order — the ordering CSF construction wants.
  void sort_mode_major(std::size_t mode);

  /// Merge duplicate coordinates by summing their values. The tensor is
  /// sorted (mode-0 major) afterwards.
  void deduplicate();

  /// Σ x² over stored non-zeros (parallel).
  real_t norm_sq() const;

  /// Number of non-zeros in each slice of `mode` (used for load balancing
  /// and for the synthetic-data power-law checks).
  std::vector<offset_t> slice_nnz(std::size_t mode) const;

  /// Remove all non-zeros with |value| == 0 exactly.
  void prune_explicit_zeros();

  /// Keep only the non-zeros n for which keep(n) is true, in place and in
  /// their original order; mode lengths are unchanged. keep is called once
  /// per non-zero in increasing n, before entry n moves, so it may read
  /// entry n of this tensor.
  template <typename Keep>
  void retain_if(Keep keep);

 private:
  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> inds_;  // one array per mode (SoA)
  std::vector<real_t> vals_;

  void apply_permutation(const std::vector<offset_t>& perm);
};

template <typename Keep>
void CooTensor::retain_if(Keep keep) {
  const offset_t n = nnz();
  offset_t out = 0;
  for (offset_t i = 0; i < n; ++i) {
    if (!keep(i)) {
      continue;
    }
    if (out != i) {
      for (auto& mode_inds : inds_) {
        mode_inds[out] = mode_inds[i];
      }
      vals_[out] = vals_[i];
    }
    ++out;
  }
  for (auto& mode_inds : inds_) {
    mode_inds.resize(out);
  }
  vals_.resize(out);
}

}  // namespace aoadmm
