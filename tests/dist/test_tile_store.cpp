#include "dist/tile_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dist/shard_plan.hpp"
#include "mttkrp/mttkrp.hpp"
#include "testing/helpers.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  // Clear any leftovers from a previous run so signature checks start clean.
  std::remove((dir + "/PLAN").c_str());
  for (int i = 0; i < 16; ++i) {
    std::remove((dir + "/tile_" + std::to_string(i) + ".csf").c_str());
  }
  return dir;
}

CsfTensor sample_tree(std::uint64_t seed = 7) {
  const CooTensor x = testing::random_coo({10, 8, 6}, 150, seed);
  return CsfTensor::build_for_mode(x, 0);
}

void expect_trees_equal(const CsfTensor& a, const CsfTensor& b) {
  ASSERT_EQ(a.order(), b.order());
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.mode_perm(), b.mode_perm());
  for (std::size_t m = 0; m < a.order(); ++m) {
    EXPECT_EQ(a.level_dim(m), b.level_dim(m));
  }
}

TEST(ShardTileStore, SerializeDeserializeRoundTripsTheTree) {
  const CsfTensor tree = sample_tree();
  const std::vector<char> blob = tree.serialize();
  const CsfTensor back = CsfTensor::deserialize(blob.data(), blob.size());
  expect_trees_equal(tree, back);

  // The decoded tree must be kernel-equivalent, not just shape-equal:
  // MTTKRP against the same factors yields bitwise-identical output.
  const std::vector<Matrix> factors =
      testing::random_factors({10, 8, 6}, 4, 21);
  Matrix out_a(10, 4), out_b(10, 4);
  mttkrp_dispatch(tree, factors, 0, out_a, MttkrpSchedule::kAuto);
  mttkrp_dispatch(back, factors, 0, out_b, MttkrpSchedule::kAuto);
  const auto fa = out_a.flat();
  const auto fb = out_b.flat();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i], fb[i]) << "entry " << i;
  }
}

TEST(ShardTileStore, DeserializeRejectsCorruptBlobs) {
  const CsfTensor tree = sample_tree();
  std::vector<char> blob = tree.serialize();

  std::vector<char> truncated(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_THROW(CsfTensor::deserialize(truncated.data(), truncated.size()),
               ParseError);

  std::vector<char> flipped = blob;
  flipped[flipped.size() / 2] ^= 0x5a;  // checksum must catch a bit flip
  EXPECT_THROW(CsfTensor::deserialize(flipped.data(), flipped.size()),
               ParseError);

  std::vector<char> bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(CsfTensor::deserialize(bad_magic.data(), bad_magic.size()),
               ParseError);
}

// The exhaustive form of the corruption check above: the blob is small
// enough to try every proper prefix and every single-bit flip.
TEST(ShardTileStore, DeserializeRejectsEveryTruncationAndBitFlip) {
  const std::vector<char> blob = sample_tree().serialize();
  ASSERT_GT(blob.size(), 16u);

  // The trailer is XXH64 over everything after the 8-byte magic.
  std::uint64_t stored = 0;
  std::memcpy(&stored, blob.data() + blob.size() - sizeof(stored),
              sizeof(stored));
  EXPECT_EQ(stored, xxh64(blob.data() + 8, blob.size() - 16));

  // Report only the first accepted mutation, so a regression prints one
  // failure rather than thousands.
  std::size_t accepted = 0;
  const auto expect_rejected = [&](const std::vector<char>& bytes,
                                   std::size_t n, const std::string& what) {
    try {
      CsfTensor::deserialize(bytes.data(), n);
      if (accepted++ == 0) {
        ADD_FAILURE() << what << " decoded";
      }
    } catch (const ParseError&) {
    }
  };
  for (std::size_t n = 0; n < blob.size(); ++n) {
    expect_rejected(blob, n, "prefix of " + std::to_string(n) + " bytes");
  }
  std::vector<char> mutated = blob;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = static_cast<char>(blob[i] ^ (1 << bit));
      expect_rejected(mutated, mutated.size(),
                      "flip of byte " + std::to_string(i) + " bit " +
                          std::to_string(bit));
    }
    mutated[i] = blob[i];
  }
  EXPECT_EQ(accepted, 0u);

  // A blob of the previous format version is refused by its magic.
  std::vector<char> old_version = blob;
  old_version[5] = '1';
  ASSERT_EQ(std::memcmp(old_version.data(), "AOCSF1", 6), 0);
  EXPECT_THROW(CsfTensor::deserialize(old_version.data(), old_version.size()),
               ParseError);
}

TEST(ShardTileStore, WriteLoadRoundTripsThroughTheSpillDir) {
  const std::string dir = fresh_dir("aoadmm_tile_store_rt");
  TileStore store(dir, 0xabcdef12u);
  const CsfTensor tree = sample_tree(9);
  store.write_tile(0, tree);
  EXPECT_GT(store.tile_bytes(0), 0u);
  const CsfTensor back = store.load_tile(0);
  expect_trees_equal(tree, back);
}

TEST(ShardTileStore, RejectsSpillDirOfDifferentSignature) {
  const std::string dir = fresh_dir("aoadmm_tile_store_sig");
  { TileStore store(dir, 111); }
  EXPECT_NO_THROW(TileStore(dir, 111));  // same tiling re-opens
  EXPECT_THROW(TileStore(dir, 222), Error);
}

TEST(ShardTileStore, ResidencyServesHitsWithoutReloading) {
  const std::string dir = fresh_dir("aoadmm_tile_store_hits");
  TileStore store(dir, 1);
  store.write_tile(0, sample_tree(1));
  TileResidency cache(store, 1 << 30);
  const auto a = cache.acquire(0);
  cache.release(0);
  const auto b = cache.acquire(0);
  cache.release(0);
  EXPECT_EQ(a.get(), b.get());  // same decoded instance
  const TileResidency::Stats s = cache.stats();
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST(ShardTileStore, ResidencyEvictsLeastRecentlyUsedOverBudget) {
  const std::string dir = fresh_dir("aoadmm_tile_store_lru");
  TileStore store(dir, 2);
  for (std::size_t id = 0; id < 3; ++id) {
    store.write_tile(id, sample_tree(id + 1));
  }
  // Budget roomy enough for ~one decoded tile only.
  const std::size_t one_tile = sample_tree(1).storage_bytes();
  TileResidency cache(store, one_tile + one_tile / 2);
  for (std::size_t id = 0; id < 3; ++id) {
    const auto t = cache.acquire(id);
    cache.release(id);
  }
  const TileResidency::Stats s = cache.stats();
  EXPECT_EQ(s.loads, 3u);
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.resident_bytes, one_tile + one_tile / 2);
  // Re-acquiring the evicted first tile is a fresh load, not a hit.
  const std::uint64_t loads_before = s.loads;
  const auto t0 = cache.acquire(0);
  cache.release(0);
  EXPECT_EQ(cache.stats().loads, loads_before + 1);
}

TEST(ShardTileStore, ResidentTileSurvivesAnotherTilesLoad) {
  // One sweep step with two workers and a one-tile budget: tile 0 is left
  // resident by the previous step, and worker 1's load, finishing before
  // worker 0 gets to acquire, must not evict it.
  const std::string dir = fresh_dir("aoadmm_tile_store_step");
  TileStore store(dir, 6);
  store.write_tile(0, sample_tree(1));
  store.write_tile(1, sample_tree(2));
  const std::size_t one_tile = sample_tree(1).storage_bytes();
  TileResidency cache(store, one_tile);
  const auto left_over = cache.acquire(0);
  cache.release(0);

  const auto t1 = cache.acquire(1);  // loads; resident bytes over budget
  const auto t0 = cache.acquire(0);
  EXPECT_EQ(t0.get(), left_over.get());
  TileResidency::Stats s = cache.stats();
  EXPECT_EQ(s.loads, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);

  // The budget is restored once the step's tiles are released.
  cache.release(1);
  cache.release(0);
  s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.resident_bytes, one_tile);
}

TEST(ShardTileStore, PinnedTilesSurviveBudgetPressure) {
  const std::string dir = fresh_dir("aoadmm_tile_store_pin");
  TileStore store(dir, 3);
  store.write_tile(0, sample_tree(4));
  store.write_tile(1, sample_tree(5));
  TileResidency cache(store, 1);  // everything is over budget
  const auto pinned = cache.acquire(0);
  // Acquiring another tile must not evict the pinned one.
  const auto other = cache.acquire(1);
  cache.release(1);
  const auto again = cache.acquire(0);
  EXPECT_EQ(pinned.get(), again.get());
  cache.release(0);
  cache.release(0);
}

TEST(ShardTileStore, CorruptTileFileErrorNamesThePath) {
  const std::string dir = fresh_dir("aoadmm_tile_store_corrupt");
  TileStore store(dir, 5);
  store.write_tile(0, sample_tree(6));
  const std::string path = dir + "/tile_0.csf";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f);
    const auto at = static_cast<std::streamoff>(store.tile_bytes(0) / 2);
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(at);
    f.write(&byte, 1);
    ASSERT_TRUE(f);
  }
  try {
    store.load_tile(0);
    FAIL() << "corrupt tile decoded";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(ShardTileStore, LoadOfMissingTileThrows) {
  const std::string dir = fresh_dir("aoadmm_tile_store_miss");
  TileStore store(dir, 4);
  EXPECT_THROW(store.load_tile(12), Error);
}

}  // namespace
}  // namespace aoadmm
