// Out-of-core CSF tile spill: serialized tiles live as files in a spill
// directory and are paged back through mmap with sequential-read madvise,
// so the OS streams a tile through the page cache instead of resident heap.
// TileResidency keeps the decoded trees under a byte budget with LRU
// eviction; acquire() pins a tile for the duration of one sweep step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/csf.hpp"

namespace aoadmm {

/// Directory of spilled tiles, one file per shard id. The plan signature is
/// embedded in the header file so a stale spill directory from a different
/// tensor/grid is rejected instead of silently decoded.
class TileStore {
 public:
  /// Opens (creating if needed) `dir` for a tiling with `signature`. Throws
  /// Error when the directory holds tiles for a different signature.
  TileStore(std::string dir, std::uint64_t signature);

  /// Serialize `tree` to the shard's tile file (atomic tmp+rename).
  void write_tile(std::size_t shard, const CsfTensor& tree);

  /// mmap the shard's tile file with MADV_SEQUENTIAL, decode it, and drop
  /// the mapping (MADV_DONTNEED) — only the decoded tree stays resident.
  /// A corrupt or truncated file throws ParseError naming its path.
  CsfTensor load_tile(std::size_t shard) const;

  /// On-disk size of the shard's tile file.
  std::size_t tile_bytes(std::size_t shard) const;

  const std::string& dir() const noexcept { return dir_; }

 private:
  std::string tile_path(std::size_t shard) const;

  std::string dir_;
  std::uint64_t signature_;
};

/// Bounded cache of decoded tiles. acquire() returns a pinned tree
/// (shared_ptr keeps it alive for the caller); release() unpins, then
/// evicts least-recently-used unpinned tiles while the decoded bytes exceed
/// `max_bytes`. acquire() never evicts, so a tile left resident stays a hit
/// for the caller that pins it next. The tile being acquired is always
/// admitted, even when it alone exceeds the budget — the solver cannot make
/// progress otherwise — so `max_bytes` bounds the steady state, not a
/// single tile.
class TileResidency {
 public:
  struct Stats {
    std::uint64_t loads = 0;      ///< decodes from the store (cache misses)
    std::uint64_t hits = 0;       ///< acquisitions served resident
    std::uint64_t evictions = 0;
    std::size_t resident_bytes = 0;
  };

  TileResidency(const TileStore& store, std::size_t max_bytes);

  std::shared_ptr<const CsfTensor> acquire(std::size_t shard);
  void release(std::size_t shard);

  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const CsfTensor> tree;
    std::size_t bytes = 0;
    std::size_t pins = 0;
    /// Position in lru_ when unpinned.
    std::list<std::size_t>::iterator lru_it;
    bool in_lru = false;
  };

  void evict_over_budget_locked();

  const TileStore& store_;
  std::size_t max_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::size_t, Entry> entries_;
  std::list<std::size_t> lru_;  ///< unpinned shards, most recent at front
  Stats stats_;
};

}  // namespace aoadmm
