#include "tensor/csf.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "parallel/partition.hpp"
#include "tensor/alto.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/overflow.hpp"

namespace aoadmm {

CsfTensor CsfTensor::build(const CooTensor& coo,
                           std::vector<std::size_t> mode_perm,
                           std::vector<offset_t>* leaf_of_coo) {
  const std::size_t order = coo.order();
  AOADMM_CHECK_MSG(mode_perm.size() == order, "CSF mode permutation arity");
  {
    std::vector<std::size_t> check = mode_perm;
    std::sort(check.begin(), check.end());
    for (std::size_t m = 0; m < order; ++m) {
      AOADMM_CHECK_MSG(check[m] == m, "CSF mode_perm is not a permutation");
    }
  }
  AOADMM_CHECK_MSG(order >= 2, "CSF requires order >= 2");

  CooTensor sorted = coo;
  // The sort placement IS the leaf mapping: leaves sit in sorted order.
  sorted.sort_by(mode_perm, leaf_of_coo);

  CsfTensor out;
  out.mode_perm_ = std::move(mode_perm);
  out.dims_ = sorted.dims();
  out.fids_.resize(order);
  out.fptr_.resize(order - 1);

  const offset_t n = sorted.nnz();
  out.vals_.assign(sorted.values().begin(), sorted.values().end());

  // Leaf level: one node per non-zero.
  {
    const auto leaf_mode = out.mode_perm_[order - 1];
    const auto inds = sorted.mode_indices(leaf_mode);
    out.fids_[order - 1].assign(inds.begin(), inds.end());
  }

  // Upper levels: walk the sorted non-zeros once and emit a new node at
  // level l whenever the coordinate prefix [0..l] changes.
  for (std::size_t level = 0; level + 1 < order; ++level) {
    auto& fids = out.fids_[level];
    auto& fptr = out.fptr_[level];
    fids.clear();
    fptr.clear();
    const std::size_t child_level = level + 1;

    if (n == 0) {
      fptr.push_back(0);
      continue;
    }

    if (level == 0) {
      // Emit a root node whenever the root-mode index changes.
      const auto root_inds = sorted.mode_indices(out.mode_perm_[0]);
      // child node boundaries are discovered below, so build top-down
      // instead: record, for each nnz, whether a new node starts at each
      // level; then compress.
      (void)root_inds;
    }
    // Generic top-down pass: a node at `level` starts at nnz position p iff
    // any coordinate among modes mode_perm_[0..level] differs from p-1.
    // A child node at `child_level` starts iff any of modes [0..child_level]
    // differs. fptr maps node ordinal at `level` to first child ordinal at
    // `child_level`.
    std::size_t child_count = 0;
    fptr.push_back(0);
    for (offset_t p = 0; p < n; ++p) {
      bool new_node = (p == 0);
      bool new_child = (p == 0);
      if (p > 0) {
        for (std::size_t l = 0; l <= child_level; ++l) {
          const auto m = out.mode_perm_[l];
          if (sorted.index(m, p) != sorted.index(m, p - 1)) {
            if (l <= level) {
              new_node = true;
            }
            new_child = true;
            break;
          }
        }
      }
      if (new_child) {
        ++child_count;
      }
      if (new_node) {
        fids.push_back(sorted.index(out.mode_perm_[level], p));
        if (fids.size() > 1) {
          fptr.push_back(child_count - 1);
        }
      }
    }
    fptr.push_back(child_count);
  }

  if (n == 0) {
    for (auto& fptr : out.fptr_) {
      if (fptr.empty()) {
        fptr.push_back(0);
      }
    }
  }

  return out;
}

CsfTensor CsfTensor::build_for_mode(const CooTensor& coo, std::size_t root,
                                    std::vector<offset_t>* leaf_of_coo) {
  AOADMM_CHECK(root < coo.order());
  std::vector<std::size_t> perm;
  perm.push_back(root);
  std::vector<std::size_t> rest;
  for (std::size_t m = 0; m < coo.order(); ++m) {
    if (m != root) {
      rest.push_back(m);
    }
  }
  // Shorter modes toward the root compress better (more sharing per node).
  std::stable_sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
    return coo.dim(a) < coo.dim(b);
  });
  perm.insert(perm.end(), rest.begin(), rest.end());
  return build(coo, std::move(perm), leaf_of_coo);
}

std::vector<offset_t> CsfTensor::root_weights() const {
  const std::size_t roots = num_nodes(0);
  std::vector<offset_t> weights(roots, 0);
  if (order() == 0 || roots == 0) {
    return weights;
  }
  // Count leaves under each root by composing the fptr maps level by level.
  for (std::size_t r = 0; r < roots; ++r) {
    offset_t lo = fptr_[0][r];
    offset_t hi = fptr_[0][r + 1];
    for (std::size_t level = 1; level + 1 < order(); ++level) {
      lo = fptr_[level][lo];
      hi = fptr_[level][hi];
    }
    weights[r] = hi - lo;
  }
  return weights;
}

const std::vector<std::size_t>& CsfTensor::root_partition(
    std::size_t parts) const {
  parts = std::max<std::size_t>(parts, 1);
  std::lock_guard<std::mutex> lock(plans_->mu);
  auto it = plans_->root_partitions.find(parts);
  if (it == plans_->root_partitions.end()) {
    const std::vector<offset_t> weights = root_weights();
    it = plans_->root_partitions
             .emplace(parts, weighted_partition(weights, parts))
             .first;
  }
  return it->second;
}

const MttkrpOwnerPlan& CsfTensor::owner_plan(std::size_t level,
                                             std::size_t parts) const {
  AOADMM_CHECK(level > 0 && level < order());
  parts = std::max<std::size_t>(parts, 1);
  std::lock_guard<std::mutex> lock(plans_->mu);
  const auto key = std::make_pair(level, parts);
  auto it = plans_->owner_plans.find(key);
  if (it != plans_->owner_plans.end()) {
    return it->second;
  }

  MttkrpOwnerPlan plan;
  plan.level = level;
  plan.parts = parts;
  {
    // Same weighted root partition the other kernels use (compute inline:
    // root_partition() would deadlock on the non-recursive mutex).
    auto pit = plans_->root_partitions.find(parts);
    if (pit == plans_->root_partitions.end()) {
      const std::vector<offset_t> weights = root_weights();
      pit = plans_->root_partitions
                .emplace(parts, weighted_partition(weights, parts))
                .first;
    }
    plan.root_bounds = pit->second;
  }

  // Chunk boundaries at the target level: compose the (monotone) fptr maps
  // from the root boundaries down to `level`.
  plan.node_bounds.resize(parts + 1);
  for (std::size_t b = 0; b <= parts; ++b) {
    offset_t node = plan.root_bounds[b];
    for (std::size_t l = 0; l < level; ++l) {
      node = fptr_[l][node];
    }
    plan.node_bounds[b] = node;
  }

  // Classify each target-mode row: owned by exactly one chunk (written
  // directly, single writer) or shared across chunks (slot-buffered).
  const index_t rows = dims_[mode_perm_[level]];
  std::vector<std::int32_t> owner(rows, -1);  // chunk id, or -2 = shared
  const auto level_fids = fids_[level];
  for (std::size_t c = 0; c < parts; ++c) {
    const auto chunk = static_cast<std::int32_t>(c);
    for (offset_t n = plan.node_bounds[c]; n < plan.node_bounds[c + 1]; ++n) {
      std::int32_t& o = owner[level_fids[n]];
      if (o == -1) {
        o = chunk;
      } else if (o != chunk) {
        o = -2;
      }
    }
  }
  plan.row_slot.assign(rows, -1);
  for (index_t r = 0; r < rows; ++r) {
    if (owner[r] == -2) {
      plan.row_slot[r] = static_cast<std::int32_t>(plan.shared_rows.size());
      plan.shared_rows.push_back(r);
    }
  }

  return plans_->owner_plans.emplace(key, std::move(plan)).first->second;
}

const AltoTensor& CsfTensor::alto_index() const {
  std::lock_guard<std::mutex> lock(plans_->mu);
  if (!plans_->alto) {
    plans_->alto =
        std::make_shared<const AltoTensor>(AltoTensor::build(*this));
  }
  return *plans_->alto;
}

void CsfTensor::drop_alto_index() const {
  std::lock_guard<std::mutex> lock(plans_->mu);
  plans_->alto.reset();
}

std::size_t CsfTensor::storage_bytes() const noexcept {
  std::size_t bytes = vals_.size() * sizeof(real_t);
  for (const auto& f : fids_) {
    bytes += f.size() * sizeof(index_t);
  }
  for (const auto& f : fptr_) {
    bytes += f.size() * sizeof(offset_t);
  }
  return bytes;
}

namespace {

constexpr char kCsfMagic[8] = {'A', 'O', 'C', 'S', 'F', '2', 0, 0};

void put_bytes(std::vector<char>& out, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  out.insert(out.end(), p, p + n);
}

void put_u64(std::vector<char>& out, std::uint64_t v) {
  put_bytes(out, &v, sizeof(v));
}

/// Bounds-checked reader over a deserialize() blob.
struct BlobReader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  void read(void* out, std::size_t n) {
    if (n > size - pos) {
      throw ParseError("truncated CSF tile blob");
    }
    std::memcpy(out, data + pos, n);
    pos += n;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    read(&v, sizeof(v));
    return v;
  }

  template <typename T>
  void array(std::vector<T>& out, std::uint64_t count, const char* what) {
    // The element count comes from the (checksummed but not yet verified)
    // header; bound it by the remaining bytes before allocating.
    const std::size_t bytes =
        checked_mul<std::size_t>(count, sizeof(T), what);
    if (bytes > size - pos) {
      throw ParseError("truncated CSF tile blob");
    }
    out.resize(count);
    read(out.data(), bytes);
  }
};

}  // namespace

std::vector<char> CsfTensor::serialize() const {
  const std::size_t levels = order();
  std::vector<char> out;
  // Exact-size reservation keeps the spill write a single allocation even
  // for multi-GB tiles; every term is overflow-checked.
  std::size_t bytes = sizeof(kCsfMagic) + 3 * sizeof(std::uint64_t);
  bytes = checked_add(bytes, 2 * levels * sizeof(std::uint64_t),
                      "CSF blob header bytes");
  for (std::size_t l = 0; l < levels; ++l) {
    bytes = checked_add(
        bytes,
        checked_add(checked_mul(fids_[l].size(), sizeof(index_t),
                                "CSF blob fids bytes"),
                    sizeof(std::uint64_t), "CSF blob fids bytes"),
        "CSF blob bytes");
  }
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    bytes = checked_add(
        bytes,
        checked_add(checked_mul(fptr_[l].size(), sizeof(offset_t),
                                "CSF blob fptr bytes"),
                    sizeof(std::uint64_t), "CSF blob fptr bytes"),
        "CSF blob bytes");
  }
  bytes = checked_add(bytes,
                      checked_mul(vals_.size(), sizeof(real_t),
                                  "CSF blob value bytes"),
                      "CSF blob bytes");
  out.reserve(bytes);

  put_bytes(out, kCsfMagic, sizeof(kCsfMagic));
  put_u64(out, levels);
  put_u64(out, nnz());
  for (std::size_t l = 0; l < levels; ++l) {
    put_u64(out, mode_perm_[l]);
  }
  for (std::size_t l = 0; l < levels; ++l) {
    put_u64(out, dims_[l]);
  }
  for (std::size_t l = 0; l < levels; ++l) {
    put_u64(out, fids_[l].size());
    put_bytes(out, fids_[l].data(), fids_[l].size() * sizeof(index_t));
  }
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    put_u64(out, fptr_[l].size());
    put_bytes(out, fptr_[l].data(), fptr_[l].size() * sizeof(offset_t));
  }
  put_bytes(out, vals_.data(), vals_.size() * sizeof(real_t));
  put_u64(out, xxh64(out.data() + sizeof(kCsfMagic),
                     out.size() - sizeof(kCsfMagic)));
  return out;
}

CsfTensor CsfTensor::deserialize(const char* data, std::size_t size) {
  if (size < sizeof(kCsfMagic) + 3 * sizeof(std::uint64_t) ||
      std::memcmp(data, kCsfMagic, sizeof(kCsfMagic)) != 0) {
    throw ParseError("bad magic in CSF tile blob");
  }
  // Checksum first: everything after the magic, minus the trailing hash.
  const std::size_t payload = size - sizeof(kCsfMagic) - sizeof(std::uint64_t);
  std::uint64_t stored = 0;
  std::memcpy(&stored, data + size - sizeof(std::uint64_t), sizeof(stored));
  if (xxh64(data + sizeof(kCsfMagic), payload) != stored) {
    throw ParseError("CSF tile blob checksum mismatch");
  }

  BlobReader in{data, size - sizeof(std::uint64_t), sizeof(kCsfMagic)};
  const std::uint64_t levels = in.u64();
  const std::uint64_t nnz = in.u64();
  if (levels < 2 || levels > 64) {
    throw ParseError("corrupt CSF tile blob header (order " +
                     std::to_string(levels) + ")");
  }
  CsfTensor out;
  out.mode_perm_.resize(levels);
  out.dims_.resize(levels);
  for (auto& m : out.mode_perm_) {
    m = static_cast<std::size_t>(in.u64());
  }
  for (auto& d : out.dims_) {
    d = checked_cast<index_t>(in.u64(), "CSF tile mode length");
  }
  out.fids_.resize(levels);
  out.fptr_.resize(levels - 1);
  for (auto& fids : out.fids_) {
    in.array(fids, in.u64(), "CSF tile fids bytes");
  }
  for (auto& fptr : out.fptr_) {
    in.array(fptr, in.u64(), "CSF tile fptr bytes");
  }
  in.array(out.vals_, nnz, "CSF tile value bytes");
  if (in.pos != in.size || out.fids_[levels - 1].size() != nnz) {
    throw ParseError("corrupt CSF tile blob (size mismatch)");
  }
  return out;
}

const char* to_string(CsfStrategy s) noexcept {
  switch (s) {
    case CsfStrategy::kAllMode:
      return "ALLMODE";
    case CsfStrategy::kOneMode:
      return "ONEMODE";
  }
  return "?";
}

CsfSet::CsfSet(const CooTensor& coo, CsfStrategy strategy, index_t tile_rows,
               bool track_value_patching)
    : order_(coo.order()),
      strategy_(strategy),
      tile_rows_(tile_rows),
      dims_(coo.dims()),
      nnz_(coo.nnz()) {
  for (const real_t v : coo.values()) {
    norm_sq_ += v * v;
  }
  if (tile_rows_ > 0) {
    // Tiling exists for the root-mode kernel only, so every mode needs a
    // tree rooted at itself (validated as an error in CpdConfig too).
    AOADMM_CHECK_MSG(strategy_ == CsfStrategy::kAllMode,
                     "tiled CsfSet requires the ALLMODE strategy");
    AOADMM_CHECK_MSG(!track_value_patching,
                     "value patching is not supported for tiled CsfSets");
    tiled_.reserve(order_);
    for (std::size_t m = 0; m < order_; ++m) {
      tiled_.emplace_back(coo, m, tile_rows_);
    }
    return;
  }
  const auto perm_slot = [&](std::size_t tree) -> std::vector<offset_t>* {
    if (!track_value_patching) {
      return nullptr;
    }
    leaf_of_coo_.resize(tree + 1);
    return &leaf_of_coo_[tree];
  };
  if (strategy_ == CsfStrategy::kAllMode) {
    tensors_.reserve(coo.order());
    for (std::size_t m = 0; m < coo.order(); ++m) {
      tensors_.push_back(CsfTensor::build_for_mode(coo, m, perm_slot(m)));
    }
  } else {
    // Root at the shortest mode: best compression near the root, and the
    // root-parallel kernel serves the mode that profits least from it.
    std::size_t root = 0;
    for (std::size_t m = 1; m < coo.order(); ++m) {
      if (coo.dim(m) < coo.dim(root)) {
        root = m;
      }
    }
    tensors_.push_back(CsfTensor::build_for_mode(coo, root, perm_slot(0)));
  }
}

void CsfSet::patch_values(const CooTensor& coo, cspan<offset_t> dirty) {
  AOADMM_CHECK_MSG(value_patchable(),
                   "CsfSet was not built with track_value_patching");
  AOADMM_CHECK_MSG(coo.nnz() == nnz_,
                   "patch_values: non-zero count changed; the structure is "
                   "stale — rebuild instead");
  for (std::size_t t = 0; t < tensors_.size(); ++t) {
    CsfTensor& tree = tensors_[t];
    const std::vector<offset_t>& leaf_of = leaf_of_coo_[t];
    if (dirty.empty()) {
      for (offset_t n = 0; n < nnz_; ++n) {
        tree.patch_value(leaf_of[n], coo.value(n));
      }
    } else {
      for (const offset_t n : dirty) {
        tree.patch_value(leaf_of[n], coo.value(n));
      }
    }
    // A lazily built ALTO index copied the old values; rebuild on demand.
    tree.drop_alto_index();
  }
  norm_sq_ = coo.norm_sq();
}

const CsfTensor& CsfSet::for_mode(std::size_t mode) const {
  AOADMM_CHECK_MSG(!tiled(),
                   "CsfSet holds tiled compilations; use tiled_for_mode()");
  return strategy_ == CsfStrategy::kAllMode ? tensors_.at(mode)
                                            : tensors_.at(0);
}

const TiledCsf& CsfSet::tiled_for_mode(std::size_t mode) const {
  AOADMM_CHECK_MSG(tiled(), "CsfSet was not built with tile_rows > 0");
  return tiled_.at(mode);
}

std::size_t CsfSet::storage_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const CsfTensor& t : tensors_) {
    bytes += t.storage_bytes();
  }
  for (const TiledCsf& t : tiled_) {
    bytes += t.storage_bytes();
  }
  return bytes;
}

}  // namespace aoadmm
