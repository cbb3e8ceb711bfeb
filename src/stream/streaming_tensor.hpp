// Ingest half of the streaming subsystem: a sparse tensor that grows as
// timestamped event batches arrive and hands out an amortized-rebuild CSF
// compilation for refresh solves.
//
// Update semantics per entry of an applied batch:
//  * unseen coordinate        -> append (mode lengths grow to fit, with
//                                overflow-checked index growth)
//  * already-stored coordinate-> overwrite the value in place
// and, when a sliding window is configured, every batch advances the
// watermark on the designated time mode and entries whose time index falls
// out of the window are evicted.
//
// CSF rebuilds are amortized, not per-batch. The tensor tracks the churn
// since the last compilation and csf() picks the cheapest valid path:
//  * nothing changed          -> return the cached compilation
//  * value-only churn         -> patch the compiled leaves in place through
//                                the build-time leaf maps (no tree is
//                                rebuilt; CsfSet::patch_values)
//  * structural churn         -> compact evicted entries out and rebuild.
//                                Every tree holds every non-zero, so a
//                                structural change is necessarily global —
//                                this is the CSF invariant, and the reason
//                                value-only churn is the only partial path.
// The churn threshold bounds how much structural garbage (evicted-but-not-
// compacted entries) may accumulate before apply() compacts eagerly instead
// of deferring the O(nnz) sweep to the next compilation.
//
// Not thread-safe: one ingest thread owns the tensor. Concurrency lives in
// the serve half (ModelServer), which reads published immutable snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/coo.hpp"
#include "tensor/csf.hpp"
#include "util/types.hpp"

namespace aoadmm {

class WriteAheadLog;

struct StreamingOptions {
  /// Mode carrying event time, used for watermarking and window eviction.
  /// kLastMode (the default) resolves to order-1 at construction.
  static constexpr std::size_t kLastMode = static_cast<std::size_t>(-1);
  std::size_t time_mode = kLastMode;

  /// Sliding window length in time-mode indices. After a batch raises the
  /// watermark to t, entries with time index <= t - window are evicted.
  /// 0 = unbounded (no eviction).
  index_t window = 0;

  /// Eagerly compact when evicted-but-uncompacted entries exceed this
  /// fraction of the live non-zeros; below it the sweep is deferred to the
  /// next structural rebuild. Bounds the memory overhead of lazy eviction.
  double churn_threshold = 0.25;

  /// CSF strategy for compilations.
  CsfStrategy strategy = CsfStrategy::kAllMode;
};

/// Ingest counters, cumulative since construction (also mirrored into the
/// process-wide obs registry under stream/*).
struct StreamingStats {
  std::uint64_t batches = 0;
  std::uint64_t appended = 0;
  std::uint64_t overwritten = 0;
  std::uint64_t evicted = 0;
  /// Batch entries already behind the window on arrival, dropped unstored.
  std::uint64_t late_dropped = 0;
  std::uint64_t full_rebuilds = 0;
  std::uint64_t value_patches = 0;
  std::uint64_t cached_compiles = 0;
  std::uint64_t compactions = 0;
  double last_compile_seconds = 0;
};

class StreamingTensor {
 public:
  /// Start from `initial_dims` (order = initial_dims.size() >= 2; modes may
  /// be declared length 1 and grow as data arrives). Throws InvalidArgument
  /// on a bad time_mode or churn threshold.
  StreamingTensor(std::vector<index_t> initial_dims, StreamingOptions opts);

  std::size_t order() const noexcept { return coo_.order(); }
  const std::vector<index_t>& dims() const noexcept { return coo_.dims(); }
  const StreamingOptions& options() const noexcept { return opts_; }
  const StreamingStats& stats() const noexcept { return stats_; }

  /// Live non-zeros (stored minus pending evictions).
  offset_t nnz() const noexcept { return coo_.nnz() - dead_; }

  /// Highest time-mode index ingested so far (the watermark); 0 before any
  /// data arrives.
  index_t watermark() const noexcept { return watermark_; }

  /// Trace id of the most recently applied batch (minted per apply() from
  /// the process-wide sequence); 0 before the first batch. A refresh solve
  /// records this as TraceContext::batch_id to link the model it publishes
  /// back to the last ingest it folded in.
  std::uint64_t last_batch_id() const noexcept { return last_batch_id_; }

  /// Apply one batch of events (a COO tensor of the same order; its dims
  /// are ignored — growth follows the indices actually present). Entries
  /// behind the current window are dropped on arrival. Returns the number
  /// of entries that were appends (vs overwrites). With a WAL attached the
  /// batch is logged before any state changes, and a due WAL checkpoint is
  /// written (compacting first) after the batch lands.
  offset_t apply(const CooTensor& batch);

  /// Attach a write-ahead log (not owned; pass nullptr to detach). Every
  /// subsequent apply() is logged before it mutates the tensor. When the
  /// WAL has on-disk state, drain it with WriteAheadLog::recover_into()
  /// BEFORE attaching — replayed applies must not be re-logged.
  void attach_wal(WriteAheadLog* wal) noexcept { wal_ = wal; }
  WriteAheadLog* wal() const noexcept { return wal_; }

  /// Raise the watermark to at least `w` and run window eviction against
  /// the new cutoff (no-op when w is behind the current watermark). apply()
  /// does this implicitly from batch contents; WAL recovery calls it
  /// directly to restore a watermark that outran the surviving entries.
  void advance_watermark(index_t w);

  /// Order-independent FNV-1a digest of the live (coordinate, value)
  /// multiset. Two tensors holding the same live entries digest equal no
  /// matter what ingest/recovery order produced them — the cheap bitwise
  /// state-equality probe the crash-recovery tests and the CLI use.
  std::uint64_t state_digest() const;

  /// The current tensor as COO with evicted entries compacted away. Forces
  /// the deferred eviction sweep.
  const CooTensor& coo();

  /// Compile (or cheaply refresh) the CSF set for the current contents.
  /// Amortization contract documented in the file header. The reference is
  /// invalidated by the next apply()/csf() call. Requires nnz() > 0.
  const CsfSet& csf();

  /// True when the next csf() call can take the value-patch fast path.
  bool value_patch_ready() const noexcept {
    return compiled_ != nullptr && !structural_dirty_ && dead_ == 0;
  }

 private:
  /// Marks a free slot of coord_index_.
  static constexpr offset_t kEmptySlot = static_cast<offset_t>(-1);

  std::uint64_t hash_coord(const CooTensor& t, offset_t n) const;
  bool same_coord(offset_t a, const CooTensor& batch, offset_t b) const;
  bool dead(offset_t n) const;
  /// Slot of coord_index_ holding the stored position whose coordinate
  /// equals entry n of `t`, or the free slot where that position belongs.
  std::size_t find_slot(const CooTensor& t, offset_t n) const;
  /// Re-insert every position of coo_ into an empty table of `slots` slots.
  void rebuild_index(std::size_t slots);
  void compact();

  StreamingOptions opts_;
  CooTensor coo_;
  /// Coordinate -> position in coo_, for overwrite-duplicate detection: a
  /// flat open-addressing table of coo_ positions (power-of-two size,
  /// linear probing, at most half full, kEmptySlot where free). It indexes
  /// every stored entry, evicted or not; each probe hit is verified by
  /// exact coordinate compare.
  std::vector<offset_t> coord_index_;
  WriteAheadLog* wal_ = nullptr;
  std::uint64_t last_batch_id_ = 0;
  index_t watermark_ = 0;
  index_t evict_cutoff_ = 0;  // time indices < cutoff are dead
  offset_t dead_ = 0;         // stored entries behind the cutoff
  /// Live entries per time-mode index; drained into dead_ as the window
  /// slides past them.
  std::vector<offset_t> live_per_tick_;

  std::unique_ptr<CsfSet> compiled_;
  bool structural_dirty_ = false;
  std::vector<offset_t> value_dirty_;   // COO positions with changed values
  std::vector<std::uint8_t> is_dirty_;  // per position, dedupes value_dirty_
  StreamingStats stats_;
};

}  // namespace aoadmm
