// Compressed Sparse Fiber (CSF) storage — the higher-order generalization of
// CSR used by SPLATT (paper §III.B, Fig. 2). The modes of the tensor are
// compressed recursively; each root-to-leaf path encodes one non-zero's
// coordinate and the values live at the leaves.
//
// MTTKRP for mode m is computed from a CSF whose *root* is mode m: the root
// slices are independent, so parallelizing over them is race-free. The
// library therefore keeps one CSF per mode (SPLATT's ALLMODE strategy); see
// CsfSet below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "tensor/coo.hpp"
#include "util/types.hpp"

namespace aoadmm {

class AltoTensor;  // tensor/alto.hpp

/// Precomputed plan for the owner-computes non-root MTTKRP (one entry per
/// (target level, thread count), cached on the CsfTensor). Chunk c owns the
/// contiguous root range [root_bounds[c], root_bounds[c+1]) and, through the
/// monotone fptr composition, the target-level node range
/// [node_bounds[c], node_bounds[c+1]). A target-mode row touched by exactly
/// one chunk is written directly (no synchronization: one owner); a row
/// touched by >= 2 chunks gets a compact slot id and is accumulated in
/// per-thread slot buffers, reduced by a parallel fixup pass.
struct MttkrpOwnerPlan {
  std::size_t level = 0;                  // target CSF level
  std::size_t parts = 0;                  // chunks the plan was built for
  std::vector<std::size_t> root_bounds;   // parts+1 root boundaries
  std::vector<offset_t> node_bounds;      // parts+1 target-level node bounds
  /// Per target-mode row: -1 = private to one chunk (or untouched),
  /// otherwise the row's slot id in [0, shared_rows.size()).
  std::vector<std::int32_t> row_slot;
  /// Slot id -> target-mode row, for the fixup pass.
  std::vector<index_t> shared_rows;
};

class CsfTensor {
 public:
  /// Compile `coo` into CSF with modes ordered by `mode_perm` (root first).
  /// mode_perm must be a permutation of 0..order-1. The COO tensor is
  /// copied/sorted internally and not retained. When `leaf_of_coo` is
  /// non-null it receives, per COO position, the leaf slot that non-zero's
  /// value landed in — the mapping value patching (patch_value) needs.
  static CsfTensor build(const CooTensor& coo, std::vector<std::size_t> mode_perm,
                         std::vector<offset_t>* leaf_of_coo = nullptr);

  /// Convenience: mode `root` first, remaining modes sorted by increasing
  /// length (short modes near the root compress best — SPLATT's heuristic).
  static CsfTensor build_for_mode(const CooTensor& coo, std::size_t root,
                                  std::vector<offset_t>* leaf_of_coo = nullptr);

  std::size_t order() const noexcept { return mode_perm_.size(); }
  offset_t nnz() const noexcept { return vals_.size(); }
  const std::vector<std::size_t>& mode_perm() const noexcept {
    return mode_perm_;
  }
  /// Original tensor mode stored at CSF level `level`.
  std::size_t level_mode(std::size_t level) const { return mode_perm_.at(level); }
  /// Length of the original mode at CSF level `level`.
  index_t level_dim(std::size_t level) const { return dims_.at(mode_perm_.at(level)); }
  const std::vector<index_t>& dims() const noexcept { return dims_; }

  /// Number of nodes (fibers) at a level. Level 0 = root slices present in
  /// the tensor; level order-1 = non-zeros.
  std::size_t num_nodes(std::size_t level) const {
    return fids_[level].size();
  }

  /// Mode indices of the nodes at `level`.
  cspan<index_t> fids(std::size_t level) const { return fids_[level]; }

  /// Children offsets: node n at `level` owns children
  /// [fptr(level)[n], fptr(level)[n+1]) at level+1. Defined for
  /// level < order-1.
  cspan<offset_t> fptr(std::size_t level) const { return fptr_[level]; }

  /// Non-zero values (leaf payloads), aligned with fids(order-1).
  cspan<real_t> vals() const noexcept { return vals_; }

  /// Overwrite the value in leaf slot `leaf` (from a build-time leaf_of_coo
  /// mapping). Values only — the fiber structure stays immutable, so this
  /// is valid exactly when the non-zero pattern is unchanged. Not safe
  /// concurrently with kernels reading vals().
  void patch_value(offset_t leaf, real_t value) { vals_[leaf] = value; }

  /// Number of non-zeros under each root node — the weights used to balance
  /// root-parallel MTTKRP.
  std::vector<offset_t> root_weights() const;

  /// nnz-weighted static partition of the root nodes into `parts` contiguous
  /// chunks (parts+1 boundaries; see parallel/partition.hpp). Computed once
  /// per (tensor, parts) and cached: with power-law slice costs the uniform
  /// schedule(dynamic, 16) loops leave threads idle, while a weighted static
  /// chunk costs nothing per call. The reference stays valid for the
  /// tensor's lifetime (copies share the cache). Thread-safe.
  const std::vector<std::size_t>& root_partition(std::size_t parts) const;

  /// Owner-computes plan for a non-root target at CSF `level`, partitioned
  /// into `parts` chunks. Cached per (level, parts); thread-safe. Requires
  /// 0 < level < order().
  const MttkrpOwnerPlan& owner_plan(std::size_t level,
                                    std::size_t parts) const;

  /// ALTO linearized index over this tree's non-zeros, built lazily on
  /// first use and cached alongside the scheduling plans (shared between
  /// copies; valid for the tensor's lifetime). Requires
  /// alto_linearizable(dims()). Thread-safe.
  const AltoTensor& alto_index() const;

  /// Drop a lazily built ALTO index. Value-only patching changes the leaf
  /// values the index copied, so CsfSet::patch_values calls this; the next
  /// alto_index() rebuilds from the patched leaves. Must not race with a
  /// kernel still reading the index.
  void drop_alto_index() const;

  /// Total bytes of the compressed structure (for reporting).
  std::size_t storage_bytes() const noexcept;

  /// Serialize the compiled tree to a self-contained binary blob: magic
  /// "AOCSF2" + shape header + per-level fids/fptr arrays + values + an
  /// XXH64 checksum (util/checksum.hpp) of every byte after the magic.
  /// Values are written in memory representation (same-architecture format,
  /// like checkpoints) — this is the spill format of the out-of-core
  /// sharded solver (dist/tile_store.hpp), not an archival interchange.
  std::vector<char> serialize() const;

  /// Rebuild a tree from a serialize() blob (e.g. an mmap'd spill file).
  /// The checksum is verified before any header field is read. Throws
  /// ParseError on bad magic (including blobs of an older format version),
  /// truncation, or checksum mismatch. The returned tree has a fresh
  /// (empty) scheduling-plan cache.
  static CsfTensor deserialize(const char* data, std::size_t size);

 private:
  /// Lazily built scheduling plans, keyed by the partition geometry. Shared
  /// (not copied) between copies of the tensor: plans depend only on the
  /// immutable fids/fptr structure.
  struct PlanCache {
    std::mutex mu;
    std::map<std::size_t, std::vector<std::size_t>> root_partitions;
    std::map<std::pair<std::size_t, std::size_t>, MttkrpOwnerPlan>
        owner_plans;
    /// Lazily built ALTO linearized index (kAlto kernel). Like the plans,
    /// it depends only on the immutable non-zero structure — value-only
    /// patching (patch_values) invalidates it, which CsfSet handles by
    /// rebuilding the affected trees' caches.
    std::shared_ptr<const AltoTensor> alto;
  };

  std::vector<std::size_t> mode_perm_;
  std::vector<index_t> dims_;               // original mode lengths
  std::vector<std::vector<index_t>> fids_;  // per level
  std::vector<std::vector<offset_t>> fptr_; // per level (order-1 entries)
  std::vector<real_t> vals_;
  std::shared_ptr<PlanCache> plans_ = std::make_shared<PlanCache>();
};

/// Leaf-mode cache tiling for the root-mode kernel (the blocking SPLATT
/// applies when the per-non-zero factor exceeds cache): non-zeros are
/// bucketed by leaf index range so each pass touches only `tile_rows` rows
/// of the leaf factor, which then stay cache resident for the whole pass.
class TiledCsf {
 public:
  /// Compile `coo` for root-mode MTTKRP of `root`, tiling the leaf mode in
  /// chunks of `tile_rows` (0 = one tile, i.e. no tiling). Empty tiles are
  /// dropped.
  TiledCsf(const CooTensor& coo, std::size_t root, index_t tile_rows);

  std::size_t num_tiles() const noexcept { return tiles_.size(); }
  const CsfTensor& tile(std::size_t t) const { return tiles_.at(t); }
  std::size_t root_mode() const noexcept { return root_; }
  index_t tile_rows() const noexcept { return tile_rows_; }
  offset_t nnz() const noexcept;
  std::size_t storage_bytes() const noexcept;

 private:
  std::size_t root_ = 0;
  index_t tile_rows_ = 0;
  std::vector<CsfTensor> tiles_;
};

/// Memory/compute trade-off for the CSF compilation (SPLATT's -t flag):
///  * kAllMode — one tree per mode; every MTTKRP is root-parallel and
///    race-free. order() copies of the tensor. The paper's configuration.
///  * kOneMode — a single tree rooted at the shortest mode; non-root
///    MTTKRPs scatter through a privatized/owner-computes reduction (or
///    atomics under the explicit dynamic policy). 1/order() the memory.
enum class CsfStrategy {
  kAllMode,
  kOneMode,
};

const char* to_string(CsfStrategy s) noexcept;

/// The compiled tensor handed to the CPD driver. for_mode(m) returns the
/// tree MTTKRP for mode m should use; with kOneMode that tree's root may
/// differ from m and callers must dispatch accordingly (mttkrp_dispatch).
/// With tile_rows > 0 (requires kAllMode) each mode is compiled as a
/// TiledCsf instead and callers go through tiled_for_mode()/mttkrp_tiled.
class CsfSet {
 public:
  /// Compile every tree the strategy calls for. `track_value_patching`
  /// additionally records, per tree, where each COO non-zero's value landed
  /// (order x nnz offsets of extra memory) so later value-only updates can
  /// be patched into the compiled leaves via patch_values() instead of
  /// re-sorting and rebuilding — the streaming fast path. Unsupported for
  /// tiled compilations.
  explicit CsfSet(const CooTensor& coo,
                  CsfStrategy strategy = CsfStrategy::kAllMode,
                  index_t tile_rows = 0, bool track_value_patching = false);

  std::size_t order() const noexcept { return order_; }
  CsfStrategy strategy() const noexcept { return strategy_; }

  /// True when the set holds tiled compilations (tile_rows > 0); use
  /// tiled_for_mode() instead of for_mode() then.
  bool tiled() const noexcept { return !tiled_.empty(); }
  index_t tile_rows() const noexcept { return tile_rows_; }

  const CsfTensor& for_mode(std::size_t mode) const;
  const TiledCsf& tiled_for_mode(std::size_t mode) const;

  offset_t nnz() const noexcept { return nnz_; }
  const std::vector<index_t>& dims() const noexcept { return dims_; }

  /// Sum of squared non-zero values, ||X||_F^2 — precomputed at build time
  /// so the fit denominator does not depend on which compilation is held.
  real_t norm_sq() const noexcept { return norm_sq_; }

  /// Total bytes across all trees (the quantity kOneMode shrinks).
  std::size_t storage_bytes() const noexcept;

  /// True when the set was built with track_value_patching and can accept
  /// patch_values().
  bool value_patchable() const noexcept { return !leaf_of_coo_.empty(); }

  /// Re-scatter values from `coo` (which must have the same non-zero
  /// pattern, in the same COO order, as the tensor this set was built from)
  /// into every tree's leaves, and refresh the cached norm. When `dirty` is
  /// non-empty only those COO positions are patched — O(|dirty| * order)
  /// instead of a full rebuild's sort. Structure (fids/fptr, cached
  /// scheduling plans) is untouched, which is exactly why this is only
  /// legal for value-only churn.
  void patch_values(const CooTensor& coo, cspan<offset_t> dirty = {});

 private:
  std::size_t order_ = 0;
  CsfStrategy strategy_ = CsfStrategy::kAllMode;
  index_t tile_rows_ = 0;
  std::vector<index_t> dims_;
  offset_t nnz_ = 0;
  real_t norm_sq_ = 0;
  std::vector<CsfTensor> tensors_;
  std::vector<TiledCsf> tiled_;
  /// One entry per tree when value patching is tracked: COO position ->
  /// leaf slot in that tree.
  std::vector<std::vector<offset_t>> leaf_of_coo_;
};

}  // namespace aoadmm
