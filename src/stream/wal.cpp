#include "stream/wal.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "obs/metrics.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "obs/telemetry/trace_context.hpp"
#include "stream/streaming_tensor.hpp"
#include "tensor/coo.hpp"
#include "testing/fault_injection.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/overflow.hpp"

namespace aoadmm {
namespace {

namespace fs = std::filesystem;

constexpr char kSegmentMagic[8] = {'A', 'O', 'W', 'A', 'L', 'S', 'G', '0'};
constexpr char kCheckpointMagic[8] = {'A', 'O', 'W', 'A', 'L', 'C', 'K', '0'};
constexpr std::uint32_t kWalVersion = 1;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
/// A single batch record larger than this is treated as corruption, not
/// data — it bounds the allocation a mangled length prefix can demand.
constexpr std::uint64_t kMaxRecordBytes = 1ull << 30;

/// FNV-1a folded over 64-bit words with a byte-wise tail: 8x fewer
/// multiplies than the canonical byte loop, which keeps the per-append
/// checksum out of the ingest hot path. Not the canonical FNV value — the
/// format is private to this file and only has to agree with itself.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= kFnvPrime;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
void put_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void put_bytes(std::string& buf, const void* data, std::size_t n) {
  buf.append(static_cast<const char*>(data), n);
}

/// Cursor over an in-memory byte range; every get_* returns false on
/// truncation instead of throwing, because a short read is the expected
/// crash artifact the scanner must tolerate.
struct ByteReader {
  const char* p;
  const char* end;

  std::size_t remaining() const {
    return static_cast<std::size_t>(end - p);
  }

  template <typename T>
  bool get_pod(T& out) {
    if (remaining() < sizeof(T)) {
      return false;
    }
    std::memcpy(&out, p, sizeof(T));
    p += sizeof(T);
    return true;
  }

  bool get_bytes(void* out, std::size_t n) {
    if (remaining() < n) {
      return false;
    }
    std::memcpy(out, p, n);
    p += n;
    return true;
  }

  bool skip(std::size_t n) {
    if (remaining() < n) {
      return false;
    }
    p += n;
    return true;
  }
};

/// Serialize one batch record payload (everything between the length
/// prefix and the checksum trailer).
/// Render one record payload into `payload` (cleared first). The caller
/// owns the buffer so steady-state appends reuse one allocation instead of
/// mmap/munmap-ing a fresh half-megabyte string per batch.
void render_record(std::string& payload, std::uint64_t seq,
                   const CooTensor& batch) {
  payload.clear();
  const std::size_t order = batch.order();
  const std::uint64_t nnz = batch.nnz();
  payload.reserve(24 + order * nnz * sizeof(index_t) + nnz * sizeof(real_t));
  put_pod(payload, seq);
  put_pod(payload, static_cast<std::uint32_t>(order));
  put_pod(payload, nnz);
  for (std::size_t m = 0; m < order; ++m) {
    put_bytes(payload, batch.mode_indices(m).data(), nnz * sizeof(index_t));
  }
  put_bytes(payload, batch.values().data(), nnz * sizeof(real_t));
}

/// Bytes taken by `nnz` entries of `order` indices and one value each.
/// False when that size overflows 64 bits, which only a mangled length
/// field can ask for.
bool entry_bytes(std::uint64_t order, std::uint64_t nnz,
                 std::uint64_t& bytes) {
  try {
    bytes = checked_mul(nnz, order * sizeof(index_t) + sizeof(real_t),
                        "wal entry bytes");
    return true;
  } catch (const OverflowError&) {
    return false;
  }
}

/// Parse one record payload for a tensor of order `expected_order`.
/// Returns false on truncation or nonsense (another order, or a length
/// field that disagrees with the bytes present): a passing checksum does
/// not make the length fields trustworthy.
bool parse_record(std::string_view payload, std::size_t expected_order,
                  std::uint64_t& seq, CooTensor& batch) {
  ByteReader r{payload.data(), payload.data() + payload.size()};
  std::uint32_t order = 0;
  std::uint64_t nnz = 0;
  if (!r.get_pod(seq) || !r.get_pod(order) || !r.get_pod(nnz)) {
    return false;
  }
  std::uint64_t bytes = 0;
  if (order != expected_order || !entry_bytes(order, nnz, bytes) ||
      r.remaining() != bytes) {
    return false;
  }
  std::vector<std::vector<index_t>> inds(order);
  for (std::uint32_t m = 0; m < order; ++m) {
    inds[m].resize(nnz);
    if (!r.get_bytes(inds[m].data(), nnz * sizeof(index_t))) {
      return false;
    }
  }
  std::vector<real_t> vals(nnz);
  if (!r.get_bytes(vals.data(), nnz * sizeof(real_t))) {
    return false;
  }

  // Rebuild the COO: dims follow the indices actually present, exactly as
  // StreamingTensor::apply() would grow them.
  std::vector<index_t> dims(order, 1);
  for (std::uint32_t m = 0; m < order; ++m) {
    for (std::uint64_t n = 0; n < nnz; ++n) {
      dims[m] = std::max<index_t>(dims[m], inds[m][n] + 1);
    }
  }
  batch = CooTensor(dims);
  batch.reserve(nnz);
  std::vector<index_t> coord(order);
  for (std::uint64_t n = 0; n < nnz; ++n) {
    for (std::uint32_t m = 0; m < order; ++m) {
      coord[m] = inds[m][n];
    }
    batch.add(coord, vals[n]);
  }
  return true;
}

std::string render_header(const char magic[8]) {
  std::string h;
  put_bytes(h, magic, 8);
  put_pod(h, kWalVersion);
  put_pod(h, static_cast<std::uint32_t>(sizeof(real_t)));
  return h;
}

bool check_header(ByteReader& r, const char magic[8], std::string& why) {
  char m[8];
  std::uint32_t version = 0;
  std::uint32_t real_size = 0;
  if (!r.get_bytes(m, 8) || !r.get_pod(version) || !r.get_pod(real_size)) {
    why = "truncated header";
    return false;
  }
  if (std::memcmp(m, magic, 8) != 0) {
    why = "bad magic";
    return false;
  }
  if (version != kWalVersion) {
    why = "unsupported version " + std::to_string(version);
    return false;
  }
  if (real_size != sizeof(real_t)) {
    why = "real_t size mismatch";
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return static_cast<bool>(in);
}

/// Registry handles for the WAL, registered once per process.
struct WalMetrics {
  obs::Counter records;
  obs::Counter bytes;
  obs::Counter write_failures;
  obs::Counter checkpoints;
  obs::Counter recovered_batches;
  obs::Counter truncated_segments;
  obs::Gauge replaying;

  static const WalMetrics& get() {
    static const WalMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      WalMetrics out;
      out.records = reg.counter("robust/stream_wal_records");
      out.bytes = reg.counter("robust/stream_wal_bytes");
      out.write_failures = reg.counter("robust/stream_wal_write_failures");
      out.checkpoints = reg.counter("robust/stream_wal_checkpoints");
      out.recovered_batches =
          reg.counter("robust/stream_wal_recovered_batches");
      out.truncated_segments =
          reg.counter("robust/stream_wal_truncated_segments");
      out.replaying = reg.gauge("stream/wal_replaying");
      return out;
    }();
    return m;
  }
};

/// Sets stream/wal_replaying for the duration of recovery so /healthz can
/// answer "degraded" while the log drains.
struct ReplayingGuard {
  ReplayingGuard() { WalMetrics::get().replaying.set(1); }
  ~ReplayingGuard() { WalMetrics::get().replaying.set(0); }
};

/// (segment number, path) for every on-disk segment of `prefix`, ascending.
std::vector<std::pair<std::uint64_t, std::string>> scan_segments(
    const std::string& prefix) {
  fs::path p(prefix);
  fs::path dir = p.parent_path();
  if (dir.empty()) {
    dir = ".";
  }
  const std::string stem = p.filename().string() + ".seg";
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() || name.compare(0, stem.size(), stem) != 0) {
      continue;
    }
    const char* first = name.c_str() + stem.size();
    const char* last = name.c_str() + name.size();
    std::uint64_t n = 0;
    const auto [ptr, err] = std::from_chars(first, last, n);
    if (err == std::errc{} && ptr == last) {
      found.emplace_back(n, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

const char* to_string(WalFsync f) noexcept {
  switch (f) {
    case WalFsync::kNever:
      return "never";
    case WalFsync::kEveryBatch:
      return "every_batch";
    case WalFsync::kEveryN:
      return "every_n";
  }
  return "?";
}

WriteAheadLog::WriteAheadLog(std::string prefix, WalOptions opts)
    : prefix_(std::move(prefix)), opts_(opts) {
  AOADMM_CHECK_MSG(opts_.segment_max_bytes > 0,
                   "wal segment_max_bytes must be positive");
  AOADMM_CHECK_MSG(opts_.fsync != WalFsync::kEveryN || opts_.fsync_every_n > 0,
                   "wal fsync_every_n must be positive with kEveryN");
  fs::path dir = fs::path(prefix_).parent_path();
  if (dir.empty()) {
    dir = ".";
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (!fs::is_directory(dir)) {
    throw WalError("wal: cannot create prefix directory " + dir.string());
  }
  // Appends must never touch pre-existing segments (their tails may be
  // torn); continue the numbering past whatever is on disk.
  const auto existing = scan_segments(prefix_);
  if (!existing.empty()) {
    next_segment_ = existing.back().first + 1;
  }
}

WriteAheadLog::~WriteAheadLog() { close_segment(); }

std::string WriteAheadLog::segment_path(std::uint64_t n) const {
  return prefix_ + ".seg" + std::to_string(n);
}

std::vector<std::string> WriteAheadLog::segment_files() const {
  std::vector<std::string> out;
  for (auto& [n, path] : scan_segments(prefix_)) {
    out.push_back(std::move(path));
  }
  return out;
}

void WriteAheadLog::close_segment() noexcept {
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
  open_segment_ = 0;
  segment_bytes_ = 0;
  unsynced_ = 0;
}

bool WriteAheadLog::open_segment_locked() {
  const std::uint64_t n = next_segment_++;
  const std::string path = segment_path(n);
  out_ = std::fopen(path.c_str(), "wb");
  if (out_ == nullptr) {
    return false;
  }
  const std::string header = render_header(kSegmentMagic);
  if (std::fwrite(header.data(), 1, header.size(), out_) != header.size()) {
    std::fclose(out_);
    out_ = nullptr;
    return false;
  }
  open_segment_ = n;
  segment_bytes_ = header.size();
  unsynced_ = 0;
  return true;
}

bool WriteAheadLog::append_failed(const char* why) {
  ++append_failures_;
  WalMetrics::get().write_failures.add(1);
  AOADMM_LOG_WARN << "wal: append failed (" << why
                  << "); ingest continues unprotected";
  obs::journal_event(obs::EventKind::kWalWriteFailed, obs::current_trace(),
                     obs::EventJournal::Fields{}
                         .str("why", why)
                         .num("seq", seq_ + 1));
  // Abandon the open segment: a partial record must stay at a segment
  // *tail* (where the scanner tolerates it), so the next append starts a
  // fresh segment rather than writing after the tear.
  close_segment();
  if (opts_.strict) {
    throw WalError(std::string("wal: append failed: ") + why);
  }
  return false;
}

bool WriteAheadLog::append(const CooTensor& batch) {
  if (testing::maybe_fail_wal_write()) {
    return append_failed("injected fault");
  }
  if (out_ == nullptr && !open_segment_locked()) {
    return append_failed("cannot open segment");
  }

  render_record(scratch_, seq_ + 1, batch);
  const std::uint64_t len = scratch_.size();
  const std::uint64_t sum = fnv1a(scratch_.data(), scratch_.size());
  // Three writes, zero copies: the length prefix, the payload straight from
  // the scratch buffer, the checksum. A tear anywhere in between is exactly
  // the torn tail recovery tolerates.
  if (std::fwrite(&len, sizeof(len), 1, out_) != 1 ||
      std::fwrite(scratch_.data(), 1, scratch_.size(), out_) !=
          scratch_.size() ||
      std::fwrite(&sum, sizeof(sum), 1, out_) != 1 ||
      std::fflush(out_) != 0) {
    return append_failed("short write");
  }
  const std::uint64_t record_bytes = len + 2 * sizeof(std::uint64_t);

  ++seq_;
  segment_bytes_ += record_bytes;
  ++batches_since_checkpoint_;
  ++unsynced_;
  const WalMetrics& metrics = WalMetrics::get();
  metrics.records.add(1);
  metrics.bytes.add(static_cast<double>(record_bytes));

#ifndef _WIN32
  if (opts_.fsync == WalFsync::kEveryBatch ||
      (opts_.fsync == WalFsync::kEveryN && unsynced_ >= opts_.fsync_every_n)) {
    ::fsync(fileno(out_));
    unsynced_ = 0;
  }
#endif

  if (segment_bytes_ >= opts_.segment_max_bytes) {
    close_segment();
  }
  return true;
}

bool WriteAheadLog::checkpoint_due() const noexcept {
  return opts_.checkpoint_every_batches > 0 &&
         batches_since_checkpoint_ >= opts_.checkpoint_every_batches;
}

void WriteAheadLog::write_checkpoint(const CooTensor& compacted,
                                     index_t watermark) {
  std::string body = render_header(kCheckpointMagic);
  put_pod(body, seq_);
  put_pod(body, static_cast<std::uint64_t>(watermark));
  put_pod(body, static_cast<std::uint32_t>(compacted.order()));
  for (std::size_t m = 0; m < compacted.order(); ++m) {
    put_pod(body, compacted.dim(m));
  }
  const std::uint64_t nnz = compacted.nnz();
  put_pod(body, nnz);
  for (std::size_t m = 0; m < compacted.order(); ++m) {
    put_bytes(body, compacted.mode_indices(m).data(), nnz * sizeof(index_t));
  }
  put_bytes(body, compacted.values().data(), nnz * sizeof(real_t));
  put_pod(body, fnv1a(body.data(), body.size()));

  const std::string path = checkpoint_file();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw WalError("wal: cannot open checkpoint tmp " + tmp);
    }
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw WalError("wal: short checkpoint write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw WalError("wal: cannot rename checkpoint into place at " + path);
  }

  // The checkpoint covers every appended record; the segments are now
  // redundant and the log truncates to just the sidecar.
  close_segment();
  std::uint64_t removed = 0;
  for (const auto& seg : segment_files()) {
    if (std::remove(seg.c_str()) == 0) {
      ++removed;
    }
  }
  batches_since_checkpoint_ = 0;
  ++checkpoints_;
  const WalMetrics& metrics = WalMetrics::get();
  metrics.checkpoints.add(1);
  metrics.truncated_segments.add(static_cast<double>(removed));
  obs::journal_event(obs::EventKind::kWalCheckpoint, obs::current_trace(),
                     obs::EventJournal::Fields{}
                         .num("covered_seq", seq_)
                         .num("nnz", nnz)
                         .num("segments_removed", removed));
}

WalRecoveryReport WriteAheadLog::recover_into(StreamingTensor& tensor) {
  const ReplayingGuard replaying;
  WalRecoveryReport report;
  const auto note = [&report](const std::string& what) {
    if (!report.detail.empty()) {
      report.detail += "; ";
    }
    report.detail += what;
  };

  // Checkpoint first: it is the floor the segments build on.
  std::string blob;
  if (read_file(checkpoint_file(), blob)) {
    ByteReader r{blob.data(), blob.data() + blob.size()};
    std::string why;
    if (!check_header(r, kCheckpointMagic, why)) {
      throw WalError("wal: corrupt checkpoint (" + why + ") at " +
                     checkpoint_file());
    }
    std::uint64_t stored_sum = 0;
    if (blob.size() >= sizeof(stored_sum)) {
      std::memcpy(&stored_sum, blob.data() + blob.size() - sizeof(stored_sum),
                  sizeof(stored_sum));
    }
    if (blob.size() < sizeof(stored_sum) ||
        fnv1a(blob.data(), blob.size() - sizeof(stored_sum)) != stored_sum) {
      throw WalError("wal: corrupt checkpoint (bad checksum) at " +
                     checkpoint_file());
    }
    std::uint64_t covered = 0;
    std::uint64_t watermark = 0;
    std::uint32_t order = 0;
    if (!r.get_pod(covered) || !r.get_pod(watermark) || !r.get_pod(order) ||
        order != tensor.order()) {
      throw WalError("wal: corrupt checkpoint (bad preamble) at " +
                     checkpoint_file());
    }
    std::vector<index_t> dims(order);
    for (std::uint32_t m = 0; m < order; ++m) {
      if (!r.get_pod(dims[m])) {
        throw WalError("wal: corrupt checkpoint (truncated dims) at " +
                       checkpoint_file());
      }
    }
    std::uint64_t nnz = 0;
    if (!r.get_pod(nnz)) {
      throw WalError("wal: corrupt checkpoint (truncated nnz) at " +
                     checkpoint_file());
    }
    // Bound nnz by the bytes present before allocating for it (the
    // trailing checksum is not entry data).
    std::uint64_t bytes = 0;
    if (!entry_bytes(order, nnz, bytes) ||
        r.remaining() < sizeof(std::uint64_t) ||
        bytes > r.remaining() - sizeof(std::uint64_t)) {
      throw WalError("wal: corrupt checkpoint (nnz " + std::to_string(nnz) +
                     " exceeds the bytes present) at " + checkpoint_file());
    }
    std::vector<std::vector<index_t>> inds(order);
    for (std::uint32_t m = 0; m < order; ++m) {
      inds[m].resize(nnz);
      if (!r.get_bytes(inds[m].data(), nnz * sizeof(index_t))) {
        throw WalError("wal: corrupt checkpoint (truncated indices) at " +
                       checkpoint_file());
      }
    }
    std::vector<real_t> vals(nnz);
    if (!r.get_bytes(vals.data(), nnz * sizeof(real_t))) {
      throw WalError("wal: corrupt checkpoint (truncated values) at " +
                     checkpoint_file());
    }
    CooTensor snapshot(dims);
    snapshot.reserve(nnz);
    std::vector<index_t> coord(order);
    for (std::uint64_t n = 0; n < nnz; ++n) {
      for (std::uint32_t m = 0; m < order; ++m) {
        coord[m] = inds[m][n];
      }
      snapshot.add(coord, vals[n]);
    }
    if (nnz > 0) {
      tensor.apply(snapshot);
    }
    // The stored watermark can exceed the snapshot's max time index (the
    // newest entries may have been overwritten or evicted); restore it
    // exactly so window eviction resumes where it left off.
    tensor.advance_watermark(static_cast<index_t>(watermark));
    report.checkpoint_loaded = true;
    report.checkpoint_nnz = nnz;
    report.covered_seq = covered;
    seq_ = std::max(seq_, covered);
  }

  // Replay the segments in order. Each record is independently
  // checksummed, so a torn region abandons the rest of its segment but
  // later segments (written after a degraded append moved on) still replay.
  for (const auto& [segno, path] : scan_segments(prefix_)) {
    ++report.segments_scanned;
    if (!read_file(path, blob)) {
      report.torn_tail = true;
      note("unreadable segment " + path);
      continue;
    }
    ByteReader r{blob.data(), blob.data() + blob.size()};
    std::string why;
    if (!check_header(r, kSegmentMagic, why)) {
      report.torn_tail = true;
      note("bad segment header (" + why + ") in " + path);
      continue;
    }
    CooTensor batch;
    while (r.remaining() > 0) {
      std::uint64_t len = 0;
      if (!r.get_pod(len) || len > kMaxRecordBytes ||
          r.remaining() < len + sizeof(std::uint64_t)) {
        report.torn_tail = true;
        note("torn record tail in " + path);
        break;
      }
      const std::string_view payload(r.p, len);
      r.skip(len);
      std::uint64_t checksum = 0;
      r.get_pod(checksum);
      std::uint64_t seq = 0;
      if (fnv1a(payload.data(), payload.size()) != checksum ||
          !parse_record(payload, tensor.order(), seq, batch)) {
        report.torn_tail = true;
        note("corrupt record in " + path);
        break;
      }
      if (seq <= report.covered_seq) {
        ++report.records_skipped;
        continue;
      }
      tensor.apply(batch);
      ++report.records_recovered;
      seq_ = std::max(seq_, seq);
    }
  }

  report.last_seq = seq_;
  WalMetrics::get().recovered_batches.add(
      static_cast<double>(report.records_recovered));
  if (report.checkpoint_loaded || report.segments_scanned > 0) {
    AOADMM_LOG_INFO << "wal: recovered " << report.records_recovered
                    << " batch(es) from " << report.segments_scanned
                    << " segment(s)"
                    << (report.checkpoint_loaded ? " + checkpoint" : "")
                    << (report.torn_tail ? " (torn tail)" : "");
    obs::journal_event(obs::EventKind::kWalRecovered, obs::current_trace(),
                       obs::EventJournal::Fields{}
                           .boolean("checkpoint_loaded",
                                    report.checkpoint_loaded)
                           .num("records_recovered", report.records_recovered)
                           .num("records_skipped", report.records_skipped)
                           .num("last_seq", report.last_seq)
                           .boolean("torn_tail", report.torn_tail));
  }
  return report;
}

}  // namespace aoadmm
