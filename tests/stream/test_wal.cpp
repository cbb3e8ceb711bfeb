// Write-ahead log: record round-trips, torn-tail tolerance, rotation,
// checkpoint truncation, degraded appends, and the headline crash contract
// — kill -9 mid-stream, recover, land on the bitwise-identical CSF state.
#include "stream/wal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "stream/streaming_tensor.hpp"
#include "tensor/csf.hpp"
#include "testing/fault_injection.hpp"
#include "testing/helpers.hpp"
#include "testing/mutation.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on teardown.
class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::disarm_faults();
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_" + std::string(::testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    testing::disarm_faults();
    fs::remove_all(dir_);
  }

  std::string prefix(const char* name = "log") const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// Deterministic batch stream: `count` batches of `per` entries over a
/// 12x10x8 grid, values distinct, time mode advancing so eviction paths
/// are exercised when a window is set.
std::vector<CooTensor> make_batches(std::size_t count, offset_t per,
                                    std::uint64_t seed = 7) {
  std::vector<CooTensor> out;
  for (std::size_t b = 0; b < count; ++b) {
    CooTensor batch = testing::random_coo({12, 10, 8}, per, seed + b);
    out.push_back(std::move(batch));
  }
  return out;
}

/// The WAL's checksum (FNV-1a folded over 64-bit words, then a byte-wise
/// tail), copied here so a test can write files that pass it.
std::uint64_t wal_checksum(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 1099511628211ULL;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 1099511628211ULL;
  }
  return h;
}

template <typename T>
void put(std::string& buf, T v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// File header: 8-byte magic, format version 1, sizeof(real_t).
std::string wal_header(const char* magic) {
  std::string h(magic, 8);
  put<std::uint32_t>(h, 1);
  put<std::uint32_t>(h, sizeof(real_t));
  return h;
}

/// A segment holding one record with a valid checksum around `payload`.
void write_segment(const std::string& path, const std::string& payload) {
  std::string seg = wal_header("AOWALSG0");
  put<std::uint64_t>(seg, payload.size());
  seg += payload;
  put<std::uint64_t>(seg, wal_checksum(payload));
  std::ofstream(path, std::ios::binary) << seg;
}

void expect_csf_bitwise_equal(const CsfSet& a, const CsfSet& b) {
  ASSERT_EQ(a.order(), b.order());
  ASSERT_EQ(a.nnz(), b.nnz());
  ASSERT_EQ(a.dims(), b.dims());
  for (std::size_t mode = 0; mode < a.order(); ++mode) {
    const CsfTensor& ta = a.for_mode(mode);
    const CsfTensor& tb = b.for_mode(mode);
    ASSERT_EQ(ta.mode_perm(), tb.mode_perm()) << "mode " << mode;
    for (std::size_t level = 0; level < a.order(); ++level) {
      const cspan<index_t> fa = ta.fids(level);
      const cspan<index_t> fb = tb.fids(level);
      ASSERT_EQ(fa.size(), fb.size()) << "mode " << mode << " level " << level;
      EXPECT_EQ(std::memcmp(fa.data(), fb.data(),
                            fa.size() * sizeof(index_t)),
                0)
          << "fids differ at mode " << mode << " level " << level;
      if (level + 1 < a.order()) {
        const cspan<offset_t> pa = ta.fptr(level);
        const cspan<offset_t> pb = tb.fptr(level);
        ASSERT_EQ(pa.size(), pb.size());
        EXPECT_EQ(std::memcmp(pa.data(), pb.data(),
                              pa.size() * sizeof(offset_t)),
                  0)
            << "fptr differs at mode " << mode << " level " << level;
      }
    }
    EXPECT_EQ(std::memcmp(ta.vals().data(), tb.vals().data(),
                          ta.vals().size() * sizeof(real_t)),
              0)
        << "vals differ at mode " << mode;
  }
}

TEST_F(WalTest, RoundTripRecoversIdenticalState) {
  const std::vector<CooTensor> batches = make_batches(4, 40);

  StreamingTensor original({1, 1, 1}, StreamingOptions{});
  WriteAheadLog wal(prefix(), WalOptions{});
  original.attach_wal(&wal);
  for (const CooTensor& b : batches) {
    original.apply(b);
  }
  EXPECT_EQ(wal.last_seq(), 4u);

  StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
  WriteAheadLog replayer(prefix(), WalOptions{});
  const WalRecoveryReport report = replayer.recover_into(recovered);
  EXPECT_EQ(report.records_recovered, 4u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.last_seq, 4u);

  EXPECT_EQ(recovered.dims(), original.dims());
  EXPECT_EQ(recovered.nnz(), original.nnz());
  EXPECT_EQ(recovered.watermark(), original.watermark());
  EXPECT_EQ(recovered.state_digest(), original.state_digest());
  expect_csf_bitwise_equal(original.csf(), recovered.csf());
}

TEST_F(WalTest, RecoveredAppendsGoToAFreshSegment) {
  {
    StreamingTensor t({1, 1, 1}, StreamingOptions{});
    WriteAheadLog wal(prefix(), WalOptions{});
    t.attach_wal(&wal);
    t.apply(make_batches(1, 10)[0]);
  }
  StreamingTensor t({1, 1, 1}, StreamingOptions{});
  WriteAheadLog wal(prefix(), WalOptions{});
  wal.recover_into(t);
  t.attach_wal(&wal);
  t.apply(make_batches(1, 10, 99)[0]);
  // seg1 (the recovered one, possibly torn) must be left alone; the new
  // append lands in seg2.
  const std::vector<std::string> segs = wal.segment_files();
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_NE(segs[0].find("seg1"), std::string::npos);
  EXPECT_NE(segs[1].find("seg2"), std::string::npos);
  EXPECT_EQ(wal.last_seq(), 2u);
}

TEST_F(WalTest, TornTailIsToleratedAndEarlierRecordsSurvive) {
  const std::vector<CooTensor> batches = make_batches(3, 30);
  {
    StreamingTensor t({1, 1, 1}, StreamingOptions{});
    WriteAheadLog wal(prefix(), WalOptions{});
    t.attach_wal(&wal);
    for (const CooTensor& b : batches) {
      t.apply(b);
    }
  }
  // Crash artifact: chop bytes off the live segment's tail, slicing the
  // last record in half.
  const std::string seg = prefix() + ".seg1";
  const auto size = fs::file_size(seg);
  fs::resize_file(seg, size - 37);

  StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
  WriteAheadLog replayer(prefix(), WalOptions{});
  const WalRecoveryReport report = replayer.recover_into(recovered);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.records_recovered, 2u);
  EXPECT_NE(report.detail.find("torn"), std::string::npos);

  // The surviving records match a reference built from the same prefix of
  // the stream.
  StreamingTensor reference({1, 1, 1}, StreamingOptions{});
  reference.apply(batches[0]);
  reference.apply(batches[1]);
  EXPECT_EQ(recovered.state_digest(), reference.state_digest());
}

TEST_F(WalTest, CorruptRecordAbandonsSegmentButLaterSegmentsReplay) {
  const std::vector<CooTensor> batches = make_batches(4, 30);
  WalOptions opts;
  opts.segment_max_bytes = 1;  // rotate after every record
  {
    StreamingTensor t({1, 1, 1}, StreamingOptions{});
    WriteAheadLog wal(prefix(), opts);
    t.attach_wal(&wal);
    for (const CooTensor& b : batches) {
      t.apply(b);
    }
    EXPECT_EQ(wal.segment_files().size(), 4u);
  }
  // Flip one payload byte in segment 2: its record fails the checksum, but
  // segments 3 and 4 (independently checksummed) must still replay.
  {
    std::fstream f(prefix() + ".seg2",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.put('\x5a');
  }
  StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
  WriteAheadLog replayer(prefix(), opts);
  const WalRecoveryReport report = replayer.recover_into(recovered);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.segments_scanned, 4u);
  EXPECT_EQ(report.records_recovered, 3u);
  EXPECT_NE(report.detail.find("corrupt"), std::string::npos);
}

TEST_F(WalTest, CheckpointTruncatesSegmentsAndRestoresWatermark) {
  // Windowed stream: ticks slide past the window, so the checkpoint's
  // stored watermark outruns the max time index of the surviving entries —
  // exactly the case the explicit watermark field exists for.
  StreamingOptions sopts;
  sopts.window = 3;
  const std::vector<CooTensor> batches = make_batches(6, 25);
  WalOptions wopts;
  wopts.checkpoint_every_batches = 2;

  StreamingTensor original({1, 1, 1}, sopts);
  WriteAheadLog wal(prefix(), wopts);
  original.attach_wal(&wal);
  for (const CooTensor& b : batches) {
    original.apply(b);
  }
  EXPECT_EQ(wal.checkpoints_written(), 3u);
  EXPECT_TRUE(fs::exists(prefix() + ".ckpt"));
  // Every segment was covered by the last checkpoint and deleted.
  EXPECT_TRUE(wal.segment_files().empty());

  StreamingTensor recovered({1, 1, 1}, sopts);
  WriteAheadLog replayer(prefix(), wopts);
  const WalRecoveryReport report = replayer.recover_into(recovered);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.covered_seq, 6u);
  EXPECT_EQ(recovered.watermark(), original.watermark());
  EXPECT_EQ(recovered.state_digest(), original.state_digest());
  expect_csf_bitwise_equal(original.csf(), recovered.csf());
}

TEST_F(WalTest, SeqNumbersSkipRecordsCoveredByCheckpoint) {
  WalOptions wopts;
  const std::vector<CooTensor> batches = make_batches(3, 20);
  StreamingTensor t({1, 1, 1}, StreamingOptions{});
  WriteAheadLog wal(prefix(), wopts);
  t.attach_wal(&wal);
  t.apply(batches[0]);
  t.apply(batches[1]);
  wal.write_checkpoint(t.coo(), t.watermark());
  t.apply(batches[2]);  // seq 3, in a fresh segment past the checkpoint

  StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
  WriteAheadLog replayer(prefix(), wopts);
  const WalRecoveryReport report = replayer.recover_into(recovered);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.covered_seq, 2u);
  EXPECT_EQ(report.records_recovered, 1u);
  EXPECT_EQ(report.records_skipped, 0u);  // covered segments were deleted
  EXPECT_EQ(recovered.state_digest(), t.state_digest());
}

TEST_F(WalTest, CorruptCheckpointThrows) {
  StreamingTensor t({1, 1, 1}, StreamingOptions{});
  WriteAheadLog wal(prefix(), WalOptions{});
  t.attach_wal(&wal);
  t.apply(make_batches(1, 20)[0]);
  wal.write_checkpoint(t.coo(), t.watermark());
  {
    std::fstream f(prefix() + ".ckpt",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);
    f.put('\x7f');
  }
  StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
  WriteAheadLog replayer(prefix(), WalOptions{});
  EXPECT_THROW(replayer.recover_into(recovered), WalError);
}

TEST_F(WalTest, RecordWithLyingLengthFieldsIsCorruptAndLaterSegmentsReplay) {
  // Checksums pass; the length fields do not. seg1: nnz = 2^62 at order 3,
  // whose entry bytes wrap to 0 in 64 bits, so the 20-byte payload would
  // pass an unchecked size compare. seg2: a well-formed order-2 record,
  // which cannot belong to an order-3 log.
  std::string wrapped;
  put<std::uint64_t>(wrapped, 1);  // seq
  put<std::uint32_t>(wrapped, 3);  // order
  put<std::uint64_t>(wrapped, std::uint64_t{1} << 62);  // nnz
  write_segment(prefix() + ".seg1", wrapped);
  std::string other_order;
  put<std::uint64_t>(other_order, 1);
  put<std::uint32_t>(other_order, 2);
  put<std::uint64_t>(other_order, 1);
  put<index_t>(other_order, 0);
  put<index_t>(other_order, 0);
  put<real_t>(other_order, 1.0);
  write_segment(prefix() + ".seg2", other_order);

  const CooTensor batch = make_batches(1, 20)[0];
  {
    StreamingTensor t({1, 1, 1}, StreamingOptions{});
    WriteAheadLog wal(prefix(), WalOptions{});  // appends to seg3
    t.attach_wal(&wal);
    t.apply(batch);
  }

  StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
  WriteAheadLog replayer(prefix(), WalOptions{});
  const WalRecoveryReport report = replayer.recover_into(recovered);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.segments_scanned, 3u);
  EXPECT_EQ(report.records_recovered, 1u);
  EXPECT_NE(report.detail.find("corrupt record in " + prefix() + ".seg1"),
            std::string::npos)
      << report.detail;
  EXPECT_NE(report.detail.find("corrupt record in " + prefix() + ".seg2"),
            std::string::npos)
      << report.detail;
  StreamingTensor reference({1, 1, 1}, StreamingOptions{});
  reference.apply(batch);
  EXPECT_EQ(recovered.state_digest(), reference.state_digest());
}

TEST_F(WalTest, CheckpointNnzBeyondTheBytesPresentThrowsWalError) {
  // A checksummed checkpoint whose nnz promises more entries than follow
  // must be rejected before anything is allocated for them.
  const auto checkpoint = [](bool with_nnz, std::uint64_t nnz,
                             std::uint64_t watermark) {
    std::string body = wal_header("AOWALCK0");
    put<std::uint64_t>(body, 0);  // covered seq
    put<std::uint64_t>(body, watermark);
    put<std::uint32_t>(body, 3);  // order
    for (int m = 0; m < 3; ++m) {
      put<index_t>(body, 4);  // dims
    }
    if (with_nnz) {
      put<std::uint64_t>(body, nnz);
    }
    put<std::uint64_t>(body, wal_checksum(body));
    return body;
  };
  const auto expect_wal_error = [this](const std::string& blob) {
    std::ofstream(prefix() + ".ckpt", std::ios::binary) << blob;
    StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
    WriteAheadLog replayer(prefix(), WalOptions{});
    EXPECT_THROW(replayer.recover_into(recovered), WalError);
  };
  expect_wal_error(checkpoint(true, std::uint64_t{1} << 40, 0));  // 20 TiB

  // No nnz field: the reader takes the checksum trailer for it, leaving no
  // bytes at all behind it. Pick a watermark whose checksum is small
  // enough that its entry bytes do not overflow, so only the bound on the
  // bytes present can reject it.
  std::string blob;
  std::uint64_t nnz = ~std::uint64_t{0};
  for (std::uint64_t watermark = 0; nnz >= (std::uint64_t{1} << 58);
       ++watermark) {
    blob = checkpoint(false, 0, watermark);
    std::memcpy(&nnz, blob.data() + blob.size() - sizeof(nnz), sizeof(nnz));
  }
  expect_wal_error(blob);
}

TEST_F(WalTest, EveryCheckpointTruncationAndBitFlipThrowsWalError) {
  {
    WriteAheadLog wal(prefix(), WalOptions{});
    wal.write_checkpoint(testing::random_coo({5, 4, 3}, 8, 41), 2);
  }
  const std::string path = prefix() + ".ckpt";
  std::size_t accepted = 0;
  const std::size_t mutants = testing::for_each_mutation(
      testing::file_bytes(path),
      [&](const std::string& bytes, const std::string& what) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
        StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
        WriteAheadLog replayer(prefix(), WalOptions{});
        try {
          replayer.recover_into(recovered);
          if (accepted++ == 0) {
            ADD_FAILURE() << what << " recovered";
          }
        } catch (const WalError&) {
        }
      });
  EXPECT_EQ(accepted, 0u);
  EXPECT_GT(mutants, 1000u);
}

TEST_F(WalTest, EverySegmentTruncationAndBitFlipRecovers) {
  // A damaged segment is a torn or corrupt tail, never an error: recovery
  // replays the records that check out and reports the rest.
  std::vector<std::string> segments;
  {
    StreamingTensor t({1, 1, 1}, StreamingOptions{});
    WriteAheadLog wal(prefix(), WalOptions{});
    t.attach_wal(&wal);
    for (const CooTensor& b : make_batches(2, 3)) {
      t.apply(b);
    }
    segments = wal.segment_files();
  }
  ASSERT_EQ(segments.size(), 1u);
  const std::size_t mutants = testing::for_each_mutation(
      testing::file_bytes(segments[0]),
      [&](const std::string& bytes, const std::string& what) {
        std::ofstream(segments[0], std::ios::binary | std::ios::trunc)
            << bytes;
        StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
        WriteAheadLog replayer(prefix(), WalOptions{});
        const WalRecoveryReport report = replayer.recover_into(recovered);
        EXPECT_LE(report.records_recovered, 2u) << what;
      });
  EXPECT_GT(mutants, 1000u);
}

TEST_F(WalTest, InjectedWriteFaultDegradesNotThrows) {
  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kWalWrite) = testing::FaultSpec{1.0, 1};
  testing::arm_faults(cfg);

  StreamingTensor t({1, 1, 1}, StreamingOptions{});
  WriteAheadLog wal(prefix(), WalOptions{});
  t.attach_wal(&wal);
  const std::vector<CooTensor> batches = make_batches(2, 20);
  t.apply(batches[0]);  // append fails (injected), ingest proceeds
  t.apply(batches[1]);  // append succeeds
  EXPECT_EQ(wal.append_failures(), 1u);
  EXPECT_EQ(wal.last_seq(), 1u);
  EXPECT_EQ(t.stats().batches, 2u);  // the pipeline never stalled
}

TEST_F(WalTest, StrictModeThrowsOnAppendFailure) {
  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kWalWrite) = testing::FaultSpec{1.0, 1};
  testing::arm_faults(cfg);

  WalOptions wopts;
  wopts.strict = true;
  StreamingTensor t({1, 1, 1}, StreamingOptions{});
  WriteAheadLog wal(prefix(), wopts);
  t.attach_wal(&wal);
  EXPECT_THROW(t.apply(make_batches(1, 10)[0]), WalError);
}

#ifndef _WIN32
TEST_F(WalTest, Kill9MidStreamRecoversBitwiseEqualCsf) {
  const std::vector<CooTensor> batches = make_batches(5, 40);
  const std::string p = prefix();

  // The child ingests with the WAL attached and SIGKILLs itself after
  // batch 3 — no exit handlers, no flush beyond what append() already did.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    StreamingTensor t({1, 1, 1}, StreamingOptions{});
    WriteAheadLog wal(p, WalOptions{});
    t.attach_wal(&wal);
    for (std::size_t b = 0; b < 3; ++b) {
      t.apply(batches[b]);
    }
    raise(SIGKILL);
    _exit(97);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Recover in the parent and continue the stream where the child died.
  StreamingTensor recovered({1, 1, 1}, StreamingOptions{});
  WriteAheadLog wal(p, WalOptions{});
  const WalRecoveryReport report = wal.recover_into(recovered);
  EXPECT_EQ(report.records_recovered, 3u);
  recovered.attach_wal(&wal);
  recovered.apply(batches[3]);
  recovered.apply(batches[4]);

  // Reference: the same five batches applied in one uninterrupted process.
  StreamingTensor reference({1, 1, 1}, StreamingOptions{});
  for (const CooTensor& b : batches) {
    reference.apply(b);
  }
  EXPECT_EQ(recovered.state_digest(), reference.state_digest());
  expect_csf_bitwise_equal(reference.csf(), recovered.csf());
}
#endif  // !_WIN32

}  // namespace
}  // namespace aoadmm
