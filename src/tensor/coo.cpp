#include "tensor/coo.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "parallel/runtime.hpp"

namespace aoadmm {

CooTensor::CooTensor(std::vector<index_t> dims) : dims_(std::move(dims)) {
  AOADMM_CHECK_MSG(!dims_.empty(), "tensor order must be >= 1");
  for (const index_t d : dims_) {
    AOADMM_CHECK_MSG(d > 0, "every mode length must be positive");
  }
  inds_.resize(dims_.size());
}

void CooTensor::reserve(offset_t n) {
  for (auto& v : inds_) {
    v.reserve(n);
  }
  vals_.reserve(n);
}

void CooTensor::add(cspan<index_t> coord, real_t value) {
  AOADMM_CHECK_MSG(coord.size() == order(), "coordinate arity mismatch");
  for (std::size_t m = 0; m < order(); ++m) {
    AOADMM_CHECK_MSG(coord[m] < dims_[m], "coordinate out of bounds");
    inds_[m].push_back(coord[m]);
  }
  vals_.push_back(value);
}

void CooTensor::grow_to_fit(std::size_t mode, index_t idx) {
  AOADMM_CHECK(mode < order());
  if (idx < dims_[mode]) {
    return;
  }
  if (idx == std::numeric_limits<index_t>::max()) {
    throw OverflowError("mode " + std::to_string(mode) + " cannot address " +
                        "index " + std::to_string(idx) +
                        ": the slice count would overflow index_t");
  }
  dims_[mode] = idx + 1;
}

void CooTensor::append_all(const CooTensor& other) {
  AOADMM_CHECK_MSG(other.order() == order(), "append_all: order mismatch");
  const offset_t extra = other.nnz();
  if (nnz() > std::numeric_limits<offset_t>::max() - extra) {
    throw OverflowError("append_all: combined non-zero count " +
                        std::to_string(nnz()) + " + " +
                        std::to_string(extra) + " overflows offset_t");
  }
  for (std::size_t m = 0; m < order(); ++m) {
    dims_[m] = std::max(dims_[m], other.dim(m));
    inds_[m].insert(inds_[m].end(), other.inds_[m].begin(),
                    other.inds_[m].end());
  }
  vals_.insert(vals_.end(), other.vals_.begin(), other.vals_.end());
}

void CooTensor::apply_permutation(const std::vector<offset_t>& perm) {
  const offset_t n = nnz();
  std::vector<real_t> new_vals(n);
  for (offset_t i = 0; i < n; ++i) {
    new_vals[i] = vals_[perm[i]];
  }
  vals_ = std::move(new_vals);
  std::vector<index_t> tmp(n);
  for (auto& mode_inds : inds_) {
    for (offset_t i = 0; i < n; ++i) {
      tmp[i] = mode_inds[perm[i]];
    }
    mode_inds.swap(tmp);
  }
}

void CooTensor::sort_by(cspan<std::size_t> perm,
                        std::vector<offset_t>* placement) {
  AOADMM_CHECK_MSG(perm.size() == order(), "sort permutation arity mismatch");
  {
    std::vector<std::size_t> check(perm.begin(), perm.end());
    std::sort(check.begin(), check.end());
    for (std::size_t m = 0; m < check.size(); ++m) {
      AOADMM_CHECK_MSG(check[m] == m, "sort permutation is not a permutation");
    }
  }
  const offset_t n = nnz();
  std::vector<offset_t> order_idx(n);
  std::iota(order_idx.begin(), order_idx.end(), offset_t{0});

  // Comparison sorts pay O(order) key probes per comparison; CSF
  // construction is sort-bound, so keys are sorted LSD-radix style instead:
  // one stable counting sort per mode, least significant (perm.back())
  // first. O(Σ_m (nnz + I_m)) total. Falls back to a comparison sort for
  // pathological mode lengths where the counting buckets would not fit.
  constexpr index_t kMaxCountingDim = index_t{1} << 26;
  bool counting_ok = true;
  for (const std::size_t m : perm) {
    if (dims_[m] > kMaxCountingDim) {
      counting_ok = false;
      break;
    }
  }

  if (counting_ok) {
    std::vector<offset_t> next(n);
    std::vector<offset_t> counts;
    for (std::size_t level = perm.size(); level-- > 0;) {
      const std::size_t m = perm[level];
      const auto& keys = inds_[m];
      counts.assign(static_cast<std::size_t>(dims_[m]) + 1, 0);
      for (offset_t i = 0; i < n; ++i) {
        ++counts[keys[order_idx[i]] + 1];
      }
      for (std::size_t k = 1; k < counts.size(); ++k) {
        counts[k] += counts[k - 1];
      }
      for (offset_t i = 0; i < n; ++i) {
        next[counts[keys[order_idx[i]]]++] = order_idx[i];
      }
      order_idx.swap(next);
    }
  } else {
    std::sort(order_idx.begin(), order_idx.end(),
              [&](offset_t a, offset_t b) {
                for (const std::size_t m : perm) {
                  const index_t ia = inds_[m][a];
                  const index_t ib = inds_[m][b];
                  if (ia != ib) {
                    return ia < ib;
                  }
                }
                return false;
              });
  }
  if (placement != nullptr) {
    placement->resize(n);
    for (offset_t i = 0; i < n; ++i) {
      (*placement)[order_idx[i]] = i;
    }
  }
  apply_permutation(order_idx);
}

void CooTensor::sort_mode_major(std::size_t mode) {
  AOADMM_CHECK(mode < order());
  std::vector<std::size_t> perm;
  perm.push_back(mode);
  for (std::size_t m = 0; m < order(); ++m) {
    if (m != mode) {
      perm.push_back(m);
    }
  }
  sort_by(perm);
}

void CooTensor::deduplicate() {
  if (nnz() == 0) {
    return;
  }
  sort_mode_major(0);
  const offset_t n = nnz();
  offset_t out = 0;
  for (offset_t i = 1; i < n; ++i) {
    bool same = true;
    for (const auto& mode_inds : inds_) {
      if (mode_inds[i] != mode_inds[out]) {
        same = false;
        break;
      }
    }
    if (same) {
      vals_[out] += vals_[i];
    } else {
      ++out;
      for (auto& mode_inds : inds_) {
        mode_inds[out] = mode_inds[i];
      }
      vals_[out] = vals_[i];
    }
  }
  const offset_t new_n = out + 1;
  for (auto& mode_inds : inds_) {
    mode_inds.resize(new_n);
  }
  vals_.resize(new_n);
}

real_t CooTensor::norm_sq() const {
  return parallel_reduce_sum(0, vals_.size(), [&](std::size_t i) {
    return vals_[i] * vals_[i];
  });
}

std::vector<offset_t> CooTensor::slice_nnz(std::size_t mode) const {
  AOADMM_CHECK(mode < order());
  std::vector<offset_t> counts(dims_[mode], 0);
  for (const index_t idx : inds_[mode]) {
    ++counts[idx];
  }
  return counts;
}

void CooTensor::prune_explicit_zeros() {
  retain_if([this](offset_t n) { return vals_[n] != real_t{0}; });
}

}  // namespace aoadmm
