#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "testing/fault_injection.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

CpdCheckpoint sample_checkpoint() {
  CpdCheckpoint ck;
  ck.dims = {7, 5, 4};
  ck.rank = 3;
  ck.seed = 42;
  Rng rng(99);
  for (unsigned i = 0; i < 100; ++i) {
    rng.next();
  }
  ck.rng_state = rng.state();
  ck.outer_iteration = 12;
  ck.prev_error = 0.3716243614;
  ck.total_inner_iterations = 480;
  ck.total_row_iterations = 9001;
  ck.mttkrp_count = 36;
  ck.sparse_mttkrp_count = 4;
  ck.factors = testing::random_factors({7, 5, 4}, 3, 21);
  ck.duals = testing::random_factors({7, 5, 4}, 3, 22, -0.5, 0.5);
  ck.trace.add(1, 0.01, 0.9);
  ck.trace.add(2, 0.02, 0.5);
  ck.trace.add(12, 0.13, 0.3716243614);
  return ck;
}

/// Overwrites the field at byte `offset` of a serialized checkpoint or
/// Kruskal model and re-seals the FNV-1a trailer over the payload (the
/// bytes between the 16-byte header and the 8-byte trailer), so the reader
/// gets past its checksum and must judge the field itself.
template <typename T>
std::string with_field(std::string bytes, std::size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(value));
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 16; i + 8 < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ULL;
  }
  std::memcpy(&bytes[bytes.size() - 8], &h, sizeof(h));
  return bytes;
}

/// A serialized checkpoint whose factors and duals are all 0 x 0, and the
/// byte offset of its first factor's row count.
std::pair<std::string, std::size_t> empty_factor_checkpoint() {
  CpdCheckpoint ck = sample_checkpoint();
  ck.factors.assign(3, Matrix());
  ck.duals.assign(3, Matrix());
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(ck, buf);
  const std::size_t offset =
      16 + 8 + ck.dims.size() * sizeof(index_t) + sizeof(ck.rank) + 8 +
      sizeof(ck.rng_state) + sizeof(ck.outer_iteration) +
      sizeof(ck.prev_error) + 4 * 8 + 8;
  return {buf.str(), offset};
}

void expect_matrices_identical(const std::vector<Matrix>& a,
                               const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    ASSERT_EQ(a[m].rows(), b[m].rows());
    ASSERT_EQ(a[m].cols(), b[m].cols());
    const auto fa = a[m].flat();
    const auto fb = b[m].flat();
    for (std::size_t i = 0; i < fa.size(); ++i) {
      // Bitwise: serialization stores the memory representation.
      EXPECT_EQ(fa[i], fb[i]) << "matrix " << m << " entry " << i;
    }
  }
}

TEST(Checkpoint, StreamRoundTripIsExact) {
  const CpdCheckpoint ck = sample_checkpoint();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(ck, buf);
  const CpdCheckpoint back = read_checkpoint(buf);

  EXPECT_EQ(back.dims, ck.dims);
  EXPECT_EQ(back.rank, ck.rank);
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.rng_state, ck.rng_state);
  EXPECT_EQ(back.outer_iteration, ck.outer_iteration);
  EXPECT_EQ(back.prev_error, ck.prev_error);
  EXPECT_EQ(back.total_inner_iterations, ck.total_inner_iterations);
  EXPECT_EQ(back.total_row_iterations, ck.total_row_iterations);
  EXPECT_EQ(back.mttkrp_count, ck.mttkrp_count);
  EXPECT_EQ(back.sparse_mttkrp_count, ck.sparse_mttkrp_count);
  expect_matrices_identical(back.factors, ck.factors);
  expect_matrices_identical(back.duals, ck.duals);
  ASSERT_EQ(back.trace.size(), ck.trace.size());
  for (std::size_t i = 0; i < ck.trace.size(); ++i) {
    EXPECT_EQ(back.trace.points()[i].outer_iteration,
              ck.trace.points()[i].outer_iteration);
    EXPECT_EQ(back.trace.points()[i].seconds, ck.trace.points()[i].seconds);
    EXPECT_EQ(back.trace.points()[i].relative_error,
              ck.trace.points()[i].relative_error);
  }
}

TEST(Checkpoint, FileRoundTripIsExactAndLeavesNoTempFile) {
  const std::string path =
      ::testing::TempDir() + "aoadmm_ckpt_roundtrip.ckpt";
  const CpdCheckpoint ck = sample_checkpoint();
  write_checkpoint_file(ck, path);
  {
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "temp file must be renamed away";
  }
  const CpdCheckpoint back = read_checkpoint_file(path);
  EXPECT_EQ(back.outer_iteration, ck.outer_iteration);
  expect_matrices_identical(back.factors, ck.factors);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsBadMagic) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf << "definitely not a checkpoint file, padded to be long enough";
  EXPECT_THROW(read_checkpoint(buf), ParseError);
}

TEST(Checkpoint, RejectsTruncation) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(sample_checkpoint(), buf);
  const std::string whole = buf.str();
  std::stringstream cut(whole.substr(0, whole.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(read_checkpoint(cut), ParseError);
}

TEST(Checkpoint, RejectsCorruptPayloadViaChecksum) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(sample_checkpoint(), buf);
  std::string bytes = buf.str();
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  std::stringstream corrupt(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_checkpoint(corrupt), ParseError);
}

TEST(Checkpoint, MatrixSizeThatOverflowsThrowsParseError) {
  // rows = cols = 2^32: the entry count wraps to 0 in 64 bits, which must
  // not pass for an empty matrix of 2^32 x 2^32.
  auto [bytes, offset] = empty_factor_checkpoint();
  const std::uint64_t huge = std::uint64_t{1} << 32;
  bytes = with_field(bytes, offset, huge);
  bytes = with_field(bytes, offset + 8, huge);
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_checkpoint(in), ParseError);
}

TEST(Checkpoint, MatrixLargerThanTheFileThrowsParseError) {
  // rows = cols = 2^18 is 512 GiB of entries in a file of a few hundred
  // bytes: a ParseError before any allocation, read through a real file.
  auto [bytes, offset] = empty_factor_checkpoint();
  const std::uint64_t big = std::uint64_t{1} << 18;
  bytes = with_field(bytes, offset, big);
  bytes = with_field(bytes, offset + 8, big);
  const std::string path = ::testing::TempDir() + "aoadmm_ckpt_huge.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  EXPECT_THROW(read_checkpoint_file(path), ParseError);
  std::remove(path.c_str());
}

TEST(Checkpoint, InjectedWriteFailureThrowsAndPreservesPrevious) {
  const std::string path = ::testing::TempDir() + "aoadmm_ckpt_fault.ckpt";
  CpdCheckpoint ck = sample_checkpoint();
  write_checkpoint_file(ck, path);  // a good checkpoint exists

  testing::FaultConfig faults;
  faults.at(testing::FaultSite::kCheckpointWrite) = {1.0, 1};
  testing::arm_faults(faults);
  ck.outer_iteration = 99;
  EXPECT_THROW(write_checkpoint_file(ck, path), CheckpointError);
  testing::disarm_faults();

  {
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "failed write must remove its temp file";
  }
  // The previous checkpoint is untouched and still readable.
  const CpdCheckpoint back = read_checkpoint_file(path);
  EXPECT_EQ(back.outer_iteration, 12u);
  expect_matrices_identical(back.factors, sample_checkpoint().factors);

  // With the fault budget spent, the next write goes through.
  write_checkpoint_file(ck, path);
  EXPECT_EQ(read_checkpoint_file(path).outer_iteration, 99u);
  std::remove(path.c_str());
}

TEST(Checkpoint, InjectedWriteFailureLeavesNothingWhenNoPrevious) {
  const std::string path = ::testing::TempDir() + "aoadmm_ckpt_fault2.ckpt";
  std::remove(path.c_str());

  testing::FaultConfig faults;
  faults.at(testing::FaultSite::kCheckpointWrite) = {1.0, 1};
  testing::arm_faults(faults);
  EXPECT_THROW(write_checkpoint_file(sample_checkpoint(), path),
               CheckpointError);
  testing::disarm_faults();

  std::ifstream target(path);
  EXPECT_FALSE(target.good()) << "no checkpoint may appear on failure";
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(Checkpoint, CheckpointErrorIsAnAoadmmError) {
  // Callers that catch the library root still see write failures.
  testing::FaultConfig faults;
  faults.at(testing::FaultSite::kCheckpointWrite) = {1.0, 1};
  testing::arm_faults(faults);
  const std::string path = ::testing::TempDir() + "aoadmm_ckpt_fault3.ckpt";
  EXPECT_THROW(write_checkpoint_file(sample_checkpoint(), path), Error);
  testing::disarm_faults();
}

TEST(KruskalSerialization, RoundTripIsExact) {
  KruskalTensor k(testing::random_factors({9, 6, 5}, 4, 31));
  k.normalize_columns();
  k.sort_components();

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_kruskal(k, buf);
  const KruskalTensor back = read_kruskal(buf);

  EXPECT_EQ(back.order(), k.order());
  EXPECT_EQ(back.rank(), k.rank());
  expect_matrices_identical(back.factors(), k.factors());
  ASSERT_EQ(back.lambda().size(), k.lambda().size());
  for (std::size_t f = 0; f < k.lambda().size(); ++f) {
    EXPECT_EQ(back.lambda()[f], k.lambda()[f]);
  }
}

TEST(KruskalSerialization, FileRoundTripIsExact) {
  const std::string path = ::testing::TempDir() + "aoadmm_kruskal.bin";
  KruskalTensor k(testing::random_factors({8, 7}, 3, 17));
  write_kruskal_file(k, path);
  const KruskalTensor back = read_kruskal_file(path);
  EXPECT_EQ(back.rank(), k.rank());
  expect_matrices_identical(back.factors(), k.factors());
  std::remove(path.c_str());
}

/// A serialized rank-1 Kruskal model with two 0 x 1 factors. Its rank
/// field sits at byte 24 and its factors' (rows, cols) pairs at 28 and 44.
std::string empty_factor_kruskal() {
  const KruskalTensor k({Matrix(0, 1), Matrix(0, 1)});
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_kruskal(k, buf);
  return buf.str();
}

TEST(KruskalSerialization, MatrixSizeThatOverflowsThrowsParseError) {
  const std::uint64_t huge = std::uint64_t{1} << 32;
  std::string bytes = with_field(empty_factor_kruskal(), 28, huge);
  bytes = with_field(bytes, 36, huge);
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_kruskal(in), ParseError);
}

TEST(KruskalSerialization, RankBeyondTheBytesPresentThrowsParseError) {
  // Zero-row factors of 2^32 - 1 columns carry no entries, but the rank
  // also sizes the lambda weights: 32 GiB that the file does not hold.
  const rank_t rank = 0xFFFFFFFFu;
  std::string bytes = with_field(empty_factor_kruskal(), 24, rank);
  bytes = with_field(bytes, 36, std::uint64_t{rank});
  bytes = with_field(bytes, 52, std::uint64_t{rank});
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_kruskal(in), ParseError);
}

TEST(KruskalSerialization, RejectsCheckpointFile) {
  // The two formats share a container but not a magic; mixing them up is a
  // ParseError, not garbage data.
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(sample_checkpoint(), buf);
  EXPECT_THROW(read_kruskal(buf), ParseError);
}

}  // namespace
}  // namespace aoadmm
