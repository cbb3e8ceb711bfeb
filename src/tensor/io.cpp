#include "tensor/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/stream_bytes.hpp"

namespace aoadmm {
namespace {

constexpr char kBinaryMagic[8] = {'A', 'O', 'T', 'N', 'S', '1', 0, 0};

[[noreturn]] void parse_fail(std::size_t lineno, std::string_view token,
                             const std::string& why) {
  throw ParseError("tns line " + std::to_string(lineno) + ": " + why +
                   " (offending token: \"" + std::string(token) + "\")");
}

/// Split on blanks/tabs/CR into `tokens` (views into `line`).
void split_fields(const std::string& line,
                  std::vector<std::string_view>& tokens) {
  const std::string_view sv(line);
  std::size_t pos = 0;
  while (pos < sv.size()) {
    const std::size_t start = sv.find_first_not_of(" \t\r", pos);
    if (start == std::string_view::npos) {
      break;
    }
    std::size_t end = sv.find_first_of(" \t\r", start);
    if (end == std::string_view::npos) {
      end = sv.size();
    }
    tokens.push_back(sv.substr(start, end - start));
    pos = end;
  }
}

/// 1-based coordinate: a full-token positive integer that fits `I` (the
/// default index_t, or uint64 on the wide-index path).
template <typename I>
I parse_index(std::string_view token, std::size_t lineno, std::size_t mode) {
  std::uint64_t value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [p, ec] = std::from_chars(begin, end, value);
  const std::string where = "index in mode " + std::to_string(mode);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc{} && value > std::numeric_limits<I>::max())) {
    std::string why = where + " overflows the " +
                      std::to_string(8 * sizeof(I)) + "-bit index type";
    if (sizeof(I) < sizeof(std::uint64_t)) {
      why += " (set TnsOptions::wide_indices / --wide-indices to compact "
             "billion-row modes)";
    }
    parse_fail(lineno, token, why);
  }
  if (ec != std::errc{} || p != end) {
    parse_fail(lineno, token, where + " is not a positive integer");
  }
  if (value == 0) {
    parse_fail(lineno, token, where + " must be >= 1 (.tns is 1-indexed)");
  }
  return static_cast<I>(value);
}

/// Non-zero value: a full-token finite real. NaN/Inf would silently poison
/// every downstream kernel, so they are rejected at the door.
real_t parse_value(std::string_view token, std::size_t lineno) {
  double value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [p, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc{} && p == end && !std::isfinite(value))) {
    parse_fail(lineno, token, "value is not finite (NaN/Inf rejected)");
  }
  if (ec != std::errc{} || p != end) {
    parse_fail(lineno, token, "value is not a number");
  }
  return static_cast<real_t>(value);
}

/// Everything read_tns extracts before tensor assembly: parsed 0-based
/// coordinates (width `I`), values, and the duplicate-fold mask.
template <typename I>
struct ParsedTns {
  std::size_t order = 0;
  std::vector<std::vector<I>> coords;  // 0-based, per mode
  std::vector<real_t> values;
  std::vector<bool> dead;  // entries folded away by DuplicatePolicy::kSum
};

template <typename I>
ParsedTns<I> parse_tns(std::istream& in, DuplicatePolicy policy) {
  std::string line;
  std::size_t order = 0;
  std::vector<std::vector<I>> coords;  // 0-based, per mode
  std::vector<real_t> values;
  std::vector<std::size_t> linenos;  // source line of each non-zero
  std::size_t lineno = 0;
  std::vector<std::string_view> tokens;

  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and skip blank lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    tokens.clear();
    split_fields(line, tokens);
    if (tokens.empty()) {
      continue;
    }
    if (order == 0) {
      if (tokens.size() < 2) {
        throw ParseError("tns line " + std::to_string(lineno) +
                         ": expected at least 2 fields (indices... value)");
      }
      order = tokens.size() - 1;
      coords.resize(order);
    } else if (tokens.size() != order + 1) {
      throw ParseError("tns line " + std::to_string(lineno) +
                       ": inconsistent arity (expected " +
                       std::to_string(order + 1) + " fields, got " +
                       std::to_string(tokens.size()) + ")");
    }
    for (std::size_t m = 0; m < order; ++m) {
      coords[m].push_back(parse_index<I>(tokens[m], lineno, m) - 1);
    }
    values.push_back(parse_value(tokens[order], lineno));
    linenos.push_back(lineno);
  }

  if (order == 0) {
    throw ParseError("tns input contains no non-zeros");
  }

  // Duplicate coordinates: detect via a sorted permutation (the input order
  // of the surviving entries is preserved). kSum folds later occurrences
  // into the first; kError reports the first collision's two lines.
  const std::size_t n = values.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    for (std::size_t m = 0; m < order; ++m) {
      if (coords[m][a] != coords[m][b]) {
        return coords[m][a] < coords[m][b];
      }
    }
    return a < b;  // stable within a coordinate group: earliest line first
  });
  const auto same_coord = [&](std::size_t a, std::size_t b) {
    for (std::size_t m = 0; m < order; ++m) {
      if (coords[m][a] != coords[m][b]) {
        return false;
      }
    }
    return true;
  };
  std::vector<bool> dead(n, false);
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t prev = perm[i - 1];
    const std::size_t cur = perm[i];
    if (!same_coord(prev, cur)) {
      continue;
    }
    if (policy == DuplicatePolicy::kError) {
      std::string coord_str;
      for (std::size_t m = 0; m < order; ++m) {
        if (m > 0) {
          coord_str += ' ';
        }
        coord_str += std::to_string(coords[m][cur] + 1);
      }
      // `prev` may itself be a duplicate of an earlier keeper; walk back to
      // the group head so the message names the first occurrence.
      std::size_t head = i - 1;
      while (head > 0 && same_coord(perm[head - 1], cur)) {
        --head;
      }
      throw ParseError("tns line " + std::to_string(linenos[cur]) +
                       ": duplicate coordinate (" + coord_str +
                       ") first seen at line " +
                       std::to_string(linenos[perm[head]]) +
                       "; pass DuplicatePolicy::kSum to merge duplicates");
    }
    // kSum: fold into the group head (earliest line, kept alive).
    std::size_t head = i - 1;
    while (dead[perm[head]]) {
      --head;
    }
    values[perm[head]] += values[cur];
    dead[cur] = true;
  }

  ParsedTns<I> out;
  out.order = order;
  out.coords = std::move(coords);
  out.values = std::move(values);
  out.dead = std::move(dead);
  return out;
}

/// Assemble a CooTensor from parsed entries whose coordinates already fit
/// index_t.
CooTensor build_coo(const ParsedTns<index_t>& parsed) {
  const std::size_t order = parsed.order;
  const std::size_t n = parsed.values.size();
  std::vector<index_t> dims(order, 0);
  for (std::size_t m = 0; m < order; ++m) {
    for (const index_t i : parsed.coords[m]) {
      dims[m] = std::max(dims[m], static_cast<index_t>(i + 1));
    }
  }

  CooTensor out(dims);
  out.reserve(n);
  std::vector<index_t> c(order);
  for (std::size_t k = 0; k < n; ++k) {
    if (parsed.dead[k]) {
      continue;
    }
    for (std::size_t m = 0; m < order; ++m) {
      c[m] = parsed.coords[m][k];
    }
    out.add(c, parsed.values[k]);
  }
  return out;
}

/// Wide-index assembly: modes whose largest coordinate exceeds index_t are
/// compacted — occupied slices renumbered densely in sorted order — which
/// is exactly what tensor/compact.hpp does post-load for empty slices. A
/// mode with more distinct occupied slices than index_t can address cannot
/// be represented and is rejected.
CooTensor build_coo_wide(const ParsedTns<std::uint64_t>& parsed) {
  const std::size_t order = parsed.order;
  const std::size_t n = parsed.values.size();
  constexpr std::uint64_t kIndexMax = std::numeric_limits<index_t>::max();

  std::vector<std::vector<index_t>> narrow(order);
  for (std::size_t m = 0; m < order; ++m) {
    const std::vector<std::uint64_t>& wide = parsed.coords[m];
    std::uint64_t max_coord = 0;
    for (const std::uint64_t i : wide) {
      max_coord = std::max(max_coord, i);
    }
    narrow[m].resize(n);
    if (max_coord <= kIndexMax) {
      for (std::size_t k = 0; k < n; ++k) {
        narrow[m][k] = static_cast<index_t>(wide[k]);
      }
      continue;
    }
    std::vector<std::uint64_t> occupied = wide;
    std::sort(occupied.begin(), occupied.end());
    occupied.erase(std::unique(occupied.begin(), occupied.end()),
                   occupied.end());
    if (occupied.size() > kIndexMax) {
      throw ParseError(
          "mode " + std::to_string(m) + " has " +
          std::to_string(occupied.size()) +
          " distinct occupied slices, more than the " +
          std::to_string(8 * sizeof(index_t)) +
          "-bit index type can address even after compaction");
    }
    for (std::size_t k = 0; k < n; ++k) {
      const auto it =
          std::lower_bound(occupied.begin(), occupied.end(), wide[k]);
      narrow[m][k] = static_cast<index_t>(it - occupied.begin());
    }
  }

  ParsedTns<index_t> compacted;
  compacted.order = order;
  compacted.coords = std::move(narrow);
  compacted.values = parsed.values;
  compacted.dead = parsed.dead;
  return build_coo(compacted);
}

}  // namespace

CooTensor read_tns(std::istream& in, const TnsOptions& options) {
  if (options.wide_indices) {
    return build_coo_wide(parse_tns<std::uint64_t>(in, options.policy));
  }
  return build_coo(parse_tns<index_t>(in, options.policy));
}

CooTensor read_tns(std::istream& in, DuplicatePolicy policy) {
  return read_tns(in, TnsOptions{policy, false});
}

CooTensor read_tns_file(const std::string& path, const TnsOptions& options) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidArgument("cannot open tensor file: " + path);
  }
  try {
    return read_tns(in, options);
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

CooTensor read_tns_file(const std::string& path, DuplicatePolicy policy) {
  return read_tns_file(path, TnsOptions{policy, false});
}

void write_tns(const CooTensor& x, std::ostream& out) {
  // Full round-trip precision: values must survive write→read unchanged.
  out.precision(17);
  for (offset_t n = 0; n < x.nnz(); ++n) {
    for (std::size_t m = 0; m < x.order(); ++m) {
      out << (x.index(m, n) + 1) << ' ';
    }
    out << x.value(n) << '\n';
  }
}

void write_tns_file(const CooTensor& x, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw InvalidArgument("cannot create tensor file: " + path);
  }
  write_tns(x, out);
}

void write_binary_file(const CooTensor& x, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw InvalidArgument("cannot create tensor file: " + path);
  }
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const std::uint64_t order = x.order();
  const std::uint64_t nnz = x.nnz();
  out.write(reinterpret_cast<const char*>(&order), sizeof(order));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  for (std::size_t m = 0; m < x.order(); ++m) {
    const std::uint64_t d = x.dim(m);
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  for (std::size_t m = 0; m < x.order(); ++m) {
    const auto inds = x.mode_indices(m);
    out.write(reinterpret_cast<const char*>(inds.data()),
              static_cast<std::streamsize>(inds.size() * sizeof(index_t)));
  }
  const auto vals = x.values();
  out.write(reinterpret_cast<const char*>(vals.data()),
            static_cast<std::streamsize>(vals.size() * sizeof(real_t)));
  if (!out) {
    throw InvalidArgument("short write to: " + path);
  }
}

CooTensor read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw InvalidArgument("cannot open tensor file: " + path);
  }
  const auto fail = [&path](const std::string& why) {
    return ParseError(why + " in binary tensor file: " + path);
  };
  char magic[sizeof(kBinaryMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    throw fail("bad magic");
  }
  std::uint64_t order = 0;
  std::uint64_t nnz = 0;
  in.read(reinterpret_cast<char*>(&order), sizeof(order));
  in.read(reinterpret_cast<char*>(&nnz), sizeof(nnz));
  if (!in || order == 0 || order > 64) {
    throw fail("corrupt header");
  }
  std::vector<index_t> dims(order);
  for (std::size_t m = 0; m < order; ++m) {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    if (!in) {
      throw fail("truncated header");
    }
    if (v == 0 || v > std::numeric_limits<index_t>::max()) {
      throw fail("mode " + std::to_string(m) + " length " +
                 std::to_string(v) + " outside [1, " +
                 std::to_string(std::numeric_limits<index_t>::max()) + "]");
    }
    dims[m] = static_cast<index_t>(v);
  }
  // The header's counts must fit the bytes the file holds before anything
  // is sized from them.
  std::uint64_t coord_bytes = 0;
  std::uint64_t value_bytes = 0;
  std::uint64_t need = 0;
  if (__builtin_mul_overflow(order * sizeof(index_t), nnz, &coord_bytes) ||
      __builtin_mul_overflow(nnz, sizeof(real_t), &value_bytes) ||
      __builtin_add_overflow(coord_bytes, value_bytes, &need) ||
      need > bytes_left(in)) {
    throw fail(std::to_string(nnz) + " non-zeros need more bytes than remain");
  }
  std::vector<std::vector<index_t>> coords(order,
                                           std::vector<index_t>(nnz));
  for (auto& c : coords) {
    in.read(reinterpret_cast<char*>(c.data()),
            static_cast<std::streamsize>(nnz * sizeof(index_t)));
  }
  std::vector<real_t> vals(nnz);
  in.read(reinterpret_cast<char*>(vals.data()),
          static_cast<std::streamsize>(nnz * sizeof(real_t)));
  if (!in) {
    throw fail("truncated data");
  }

  CooTensor out(dims);
  out.reserve(nnz);
  std::vector<index_t> c(order);
  for (offset_t n = 0; n < nnz; ++n) {
    for (std::size_t m = 0; m < order; ++m) {
      c[m] = coords[m][n];
      if (c[m] >= dims[m]) {
        throw fail("non-zero " + std::to_string(n) + ": mode " +
                   std::to_string(m) + " index " + std::to_string(c[m]) +
                   " outside its length " + std::to_string(dims[m]));
      }
    }
    if (!std::isfinite(vals[n])) {
      throw fail("non-zero " + std::to_string(n) + ": non-finite value");
    }
    out.add(c, vals[n]);
  }
  return out;
}

}  // namespace aoadmm
