#include "core/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "testing/fault_injection.hpp"
#include "util/error.hpp"
#include "util/stream_bytes.hpp"

namespace aoadmm {
namespace {

constexpr char kCheckpointMagic[8] = {'A', 'O', 'C', 'K', 'P', 'T', '0', '\n'};
constexpr char kKruskalMagic[8] = {'A', 'O', 'K', 'R', 'U', 'S', '0', '\n'};

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// Streams raw bytes while folding them into a running checksum.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void bytes(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    fnv1a(hash_, data, n);
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(T));
  }
  void u64(std::uint64_t v) { pod(v); }

  void matrix(const Matrix& a) {
    u64(a.rows());
    u64(a.cols());
    bytes(a.data(), a.size() * sizeof(real_t));
  }

  std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::ostream& out_;
  std::uint64_t hash_ = kFnvOffset;
};

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in), left_(bytes_left(in)) {}

  void bytes(void* data, std::size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n) {
      throw ParseError("checkpoint: truncated file");
    }
    left_ -= n;
    fnv1a(hash_, data, n);
  }
  /// Throws ParseError unless `count` items of `size` bytes fit in what is
  /// left of the stream, so a corrupt length field never reaches an
  /// allocation.
  void check_fits(std::uint64_t count, std::uint64_t size, const char* what) {
    std::uint64_t total = 0;
    if (__builtin_mul_overflow(count, size, &total) || total > left_) {
      throw ParseError(std::string(what) + " needs more bytes than the " +
                       std::to_string(left_) + " left (corrupt file?)");
    }
  }
  template <typename T>
  void pod(T& v) {
    bytes(&v, sizeof(T));
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    pod(v);
    return v;
  }

  Matrix matrix() {
    const std::uint64_t rows = u64();
    const std::uint64_t cols = u64();
    std::uint64_t entries = 0;
    if (__builtin_mul_overflow(rows, cols, &entries)) {
      throw ParseError("checkpoint: matrix size overflows (corrupt file?)");
    }
    check_fits(entries, sizeof(real_t), "checkpoint: matrix");
    Matrix a(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    bytes(a.data(), a.size() * sizeof(real_t));
    return a;
  }

  std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::istream& in_;
  std::uint64_t left_;
  std::uint64_t hash_ = kFnvOffset;
};

void write_header(std::ostream& out, const char (&magic)[8]) {
  out.write(magic, sizeof(magic));
  const std::uint32_t version = kCheckpointFormatVersion;
  const std::uint32_t real_size = sizeof(real_t);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&real_size), sizeof(real_size));
}

void read_header(std::istream& in, const char (&magic)[8], const char* what) {
  char got[8] = {};
  std::uint32_t version = 0;
  std::uint32_t real_size = 0;
  in.read(got, sizeof(got));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&real_size), sizeof(real_size));
  if (!in || std::memcmp(got, magic, sizeof(got)) != 0) {
    throw ParseError(std::string(what) + ": bad magic (not a " + what +
                     " file)");
  }
  if (version != kCheckpointFormatVersion) {
    throw ParseError(std::string(what) + ": unsupported format version " +
                     std::to_string(version) + " (this build reads version " +
                     std::to_string(kCheckpointFormatVersion) + ")");
  }
  if (real_size != sizeof(real_t)) {
    throw ParseError(std::string(what) + ": written with sizeof(real_t) = " +
                     std::to_string(real_size) + ", this build uses " +
                     std::to_string(sizeof(real_t)));
  }
}

void check_trailer(std::istream& in, std::uint64_t computed, const char* what) {
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in || stored != computed) {
    throw ParseError(std::string(what) +
                     ": checksum mismatch (truncated or corrupt file)");
  }
}

/// Write-to-temp-then-rename. Any failure — open, short write, failed
/// close, failed rename — throws CheckpointError and removes the temp
/// file, so a previously written checkpoint at `path` is never disturbed.
template <typename WriteBody>
void write_file_atomic(const std::string& path, const WriteBody& body) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw CheckpointError("checkpoint: cannot open " + tmp +
                            " for writing");
    }
    body(out);
    if (testing::maybe_fail_checkpoint_write()) {
      // Injected short write: poison the stream exactly as a full disk or
      // yanked volume would mid-payload.
      out.setstate(std::ios::badbit);
    }
    out.flush();
    if (!out) {
      throw CheckpointError("checkpoint: short write to " + tmp +
                            " (disk full?)");
    }
    out.close();
    if (out.fail()) {
      throw CheckpointError("checkpoint: close failed for " + tmp);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: cannot rename " + tmp + " to " + path);
  }
}

}  // namespace

void write_checkpoint(const CpdCheckpoint& ck, std::ostream& out) {
  write_header(out, kCheckpointMagic);
  Writer w(out);

  w.u64(ck.dims.size());
  for (const index_t d : ck.dims) {
    w.pod(d);
  }
  w.pod(ck.rank);
  w.u64(ck.seed);
  for (const std::uint64_t s : ck.rng_state) {
    w.u64(s);
  }
  w.pod(ck.outer_iteration);
  w.pod(ck.prev_error);
  w.u64(ck.total_inner_iterations);
  w.u64(ck.total_row_iterations);
  w.u64(ck.mttkrp_count);
  w.u64(ck.sparse_mttkrp_count);

  w.u64(ck.factors.size());
  for (const Matrix& a : ck.factors) {
    w.matrix(a);
  }
  w.u64(ck.duals.size());
  for (const Matrix& u : ck.duals) {
    w.matrix(u);
  }

  w.u64(ck.trace.size());
  for (const TracePoint& p : ck.trace.points()) {
    w.pod(p.outer_iteration);
    w.pod(p.seconds);
    w.pod(p.relative_error);
  }

  const std::uint64_t h = w.hash();
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
}

CpdCheckpoint read_checkpoint(std::istream& in) {
  read_header(in, kCheckpointMagic, "checkpoint");
  Reader r(in);
  CpdCheckpoint ck;

  const std::uint64_t order = r.u64();
  if (order == 0 || order > 64) {
    throw ParseError("checkpoint: implausible tensor order " +
                     std::to_string(order));
  }
  ck.dims.resize(order);
  for (index_t& d : ck.dims) {
    r.pod(d);
  }
  r.pod(ck.rank);
  ck.seed = r.u64();
  for (std::uint64_t& s : ck.rng_state) {
    s = r.u64();
  }
  r.pod(ck.outer_iteration);
  r.pod(ck.prev_error);
  ck.total_inner_iterations = r.u64();
  ck.total_row_iterations = r.u64();
  ck.mttkrp_count = r.u64();
  ck.sparse_mttkrp_count = r.u64();

  // A resume moves the matrices straight into the solver, whose kernels
  // trust that matrix m is dims[m] x rank, as the header says.
  const auto read_mode_matrices = [&](std::vector<Matrix>& into,
                                      const char* what) {
    if (r.u64() != order) {
      throw ParseError(std::string("checkpoint: ") + what +
                       " count does not match tensor order");
    }
    into.reserve(order);
    for (std::uint64_t m = 0; m < order; ++m) {
      into.push_back(r.matrix());
      const Matrix& a = into.back();
      if (a.rows() != ck.dims[m] || a.cols() != ck.rank) {
        throw ParseError("checkpoint: " + std::string(what) + " " +
                         std::to_string(m) + " is " +
                         std::to_string(a.rows()) + " x " +
                         std::to_string(a.cols()) + ", but the header says " +
                         std::to_string(ck.dims[m]) + " x " +
                         std::to_string(ck.rank));
      }
    }
  };
  read_mode_matrices(ck.factors, "factor");
  read_mode_matrices(ck.duals, "dual");

  const std::uint64_t npoints = r.u64();
  for (std::uint64_t i = 0; i < npoints; ++i) {
    TracePoint p;
    r.pod(p.outer_iteration);
    r.pod(p.seconds);
    r.pod(p.relative_error);
    ck.trace.add(p.outer_iteration, p.seconds, p.relative_error);
  }

  check_trailer(in, r.hash(), "checkpoint");
  return ck;
}

void write_checkpoint_file(const CpdCheckpoint& ck, const std::string& path) {
  write_file_atomic(path, [&](std::ostream& out) { write_checkpoint(ck, out); });
}

CpdCheckpoint read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AOADMM_CHECK_MSG(static_cast<bool>(in), "cannot read checkpoint " + path);
  return read_checkpoint(in);
}

void write_kruskal(const KruskalTensor& k, std::ostream& out) {
  write_header(out, kKruskalMagic);
  Writer w(out);
  w.u64(k.order());
  w.pod(k.rank());
  for (const Matrix& a : k.factors()) {
    w.matrix(a);
  }
  for (const real_t l : k.lambda()) {
    w.pod(l);
  }
  const std::uint64_t h = w.hash();
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
}

KruskalTensor read_kruskal(std::istream& in) {
  read_header(in, kKruskalMagic, "kruskal");
  Reader r(in);
  const std::uint64_t order = r.u64();
  if (order == 0 || order > 64) {
    throw ParseError("kruskal: implausible order " + std::to_string(order));
  }
  rank_t rank = 0;
  r.pod(rank);
  // The rank sizes the lambda weights that close the file.
  r.check_fits(rank, sizeof(real_t), "kruskal: lambda");
  std::vector<Matrix> factors;
  factors.reserve(order);
  for (std::uint64_t i = 0; i < order; ++i) {
    factors.push_back(r.matrix());
    if (rank == 0 || factors.back().cols() != rank) {
      throw ParseError("kruskal: rank field is 0 or disagrees with factor "
                       "shape");
    }
  }
  KruskalTensor k(std::move(factors));
  std::vector<real_t> lambda(rank);
  for (real_t& l : lambda) {
    r.pod(l);
  }
  k.set_lambda(std::move(lambda));
  check_trailer(in, r.hash(), "kruskal");
  return k;
}

void write_kruskal_file(const KruskalTensor& k, const std::string& path) {
  write_file_atomic(path, [&](std::ostream& out) { write_kruskal(k, out); });
}

KruskalTensor read_kruskal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AOADMM_CHECK_MSG(static_cast<bool>(in), "cannot read kruskal model " + path);
  return read_kruskal(in);
}

}  // namespace aoadmm
