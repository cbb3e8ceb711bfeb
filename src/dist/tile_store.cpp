#include "dist/tile_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace aoadmm {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

}  // namespace

TileStore::TileStore(std::string dir, std::uint64_t signature)
    : dir_(std::move(dir)), signature_(signature) {
  AOADMM_CHECK_MSG(!dir_.empty(), "tile store directory must be non-empty");
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw_errno("cannot create spill directory " + dir_);
  }
  const std::string header = dir_ + "/PLAN";
  std::ifstream in(header);
  if (in) {
    std::uint64_t existing = 0;
    in >> existing;
    if (!in || existing != signature_) {
      throw Error("spill directory " + dir_ +
                  " holds tiles for a different tensor/grid (plan signature " +
                  std::to_string(existing) + " != " +
                  std::to_string(signature_) + "); point --spill-dir at an " +
                  "empty directory");
    }
  } else {
    std::ofstream out(header);
    out << signature_ << "\n";
    if (!out) {
      throw Error("cannot write spill plan header " + header);
    }
  }
}

std::string TileStore::tile_path(std::size_t shard) const {
  return dir_ + "/tile_" + std::to_string(shard) + ".csf";
}

void TileStore::write_tile(std::size_t shard, const CsfTensor& tree) {
  const std::vector<char> blob = tree.serialize();
  const std::string path = tile_path(shard);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) {
      throw Error("cannot write spill tile " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("cannot publish spill tile " + path);
  }
}

std::size_t TileStore::tile_bytes(std::size_t shard) const {
  struct stat st;
  if (::stat(tile_path(shard).c_str(), &st) != 0) {
    throw_errno("cannot stat spill tile " + tile_path(shard));
  }
  return static_cast<std::size_t>(st.st_size);
}

CsfTensor TileStore::load_tile(std::size_t shard) const {
  const std::string path = tile_path(shard);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw_errno("cannot open spill tile " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("cannot stat spill tile " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw ParseError("empty spill tile " + path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("cannot mmap spill tile " + path);
  }
  // The decode is one front-to-back pass; tell the kernel so it reads ahead
  // aggressively and drops pages behind the cursor.
  ::madvise(map, size, MADV_SEQUENTIAL);
  const auto unmap = [&] {
    ::madvise(map, size, MADV_DONTNEED);
    ::munmap(map, size);
    ::close(fd);
  };
  CsfTensor tree;
  try {
    tree = CsfTensor::deserialize(static_cast<const char*>(map), size);
  } catch (const ParseError& e) {
    unmap();
    throw ParseError("spill tile " + path + ": " + e.what());
  } catch (...) {
    unmap();
    throw;
  }
  unmap();
  return tree;
}

TileResidency::TileResidency(const TileStore& store, std::size_t max_bytes)
    : store_(store), max_bytes_(max_bytes) {}

std::shared_ptr<const CsfTensor> TileResidency::acquire(std::size_t shard) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(shard);
    if (it != entries_.end()) {
      Entry& e = it->second;
      if (e.in_lru) {
        lru_.erase(e.lru_it);
        e.in_lru = false;
      }
      e.pins += 1;
      stats_.hits += 1;
      return e.tree;
    }
  }
  // Decode outside the lock: loads dominate and must not serialize behind
  // each other. Two racing loads of the same shard both decode; the second
  // to insert wins and the loser's copy is dropped — correct, just wasteful,
  // and the coordinator never issues concurrent tasks for one shard anyway.
  auto tree = std::make_shared<const CsfTensor>(store_.load_tile(shard));
  const std::size_t bytes = tree->storage_bytes();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(shard);
  Entry& e = it->second;
  if (inserted || !e.tree) {
    e.tree = std::move(tree);
    e.bytes = bytes;
    stats_.loads += 1;
    stats_.resident_bytes += bytes;
  } else {
    stats_.hits += 1;
  }
  if (e.in_lru) {
    lru_.erase(e.lru_it);
    e.in_lru = false;
  }
  e.pins += 1;
  // No eviction here; release() restores the budget. Evicting now could drop
  // an unpinned tile that another worker is about to acquire in this same
  // sweep step, turning its hit into a reload whenever that worker is
  // scheduled later than this load finished.
  return e.tree;
}

void TileResidency::release(std::size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(shard);
  AOADMM_CHECK_MSG(it != entries_.end() && it->second.pins > 0,
                   "release of an unpinned tile");
  Entry& e = it->second;
  e.pins -= 1;
  if (e.pins == 0) {
    lru_.push_front(shard);
    e.lru_it = lru_.begin();
    e.in_lru = true;
    evict_over_budget_locked();
  }
}

void TileResidency::evict_over_budget_locked() {
  while (stats_.resident_bytes > max_bytes_ && !lru_.empty()) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    stats_.resident_bytes -= it->second.bytes;
    stats_.evictions += 1;
    entries_.erase(it);
  }
}

TileResidency::Stats TileResidency::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace aoadmm
