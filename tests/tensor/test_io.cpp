#include "tensor/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("aoadmm_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

bool tensors_equal(const CooTensor& a, const CooTensor& b) {
  if (a.order() != b.order() || a.nnz() != b.nnz()) {
    return false;
  }
  for (std::size_t m = 0; m < a.order(); ++m) {
    if (a.dim(m) != b.dim(m)) {
      return false;
    }
  }
  CooTensor as = a;
  CooTensor bs = b;
  as.sort_mode_major(0);
  bs.sort_mode_major(0);
  for (offset_t n = 0; n < as.nnz(); ++n) {
    for (std::size_t m = 0; m < as.order(); ++m) {
      if (as.index(m, n) != bs.index(m, n)) {
        return false;
      }
    }
    if (std::abs(as.value(n) - bs.value(n)) > 1e-9) {
      return false;
    }
  }
  return true;
}

TEST(TnsIo, ParsesBasicFile) {
  std::istringstream in("1 1 1 1.5\n2 3 2 -2.25\n");
  const CooTensor x = read_tns(in);
  EXPECT_EQ(x.order(), 3u);
  EXPECT_EQ(x.nnz(), 2u);
  EXPECT_EQ(x.dim(0), 2u);
  EXPECT_EQ(x.dim(1), 3u);
  EXPECT_EQ(x.dim(2), 2u);
  EXPECT_DOUBLE_EQ(x.value(0), 1.5);
  EXPECT_EQ(x.index(1, 1), 2u);  // 1-indexed file -> 0-indexed memory
}

TEST(TnsIo, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header comment\n\n1 1 3.0  # trailing comment\n");
  const CooTensor x = read_tns(in);
  EXPECT_EQ(x.order(), 2u);
  EXPECT_EQ(x.nnz(), 1u);
  EXPECT_DOUBLE_EQ(x.value(0), 3.0);
}

TEST(TnsIo, RejectsInconsistentArity) {
  std::istringstream in("1 1 1 1.0\n1 1 2.0\n");
  EXPECT_THROW(read_tns(in), ParseError);
}

TEST(TnsIo, RejectsZeroIndex) {
  std::istringstream in("0 1 1.0\n");
  EXPECT_THROW(read_tns(in), ParseError);
}

TEST(TnsIo, RejectsEmptyInput) {
  std::istringstream in("# only a comment\n");
  EXPECT_THROW(read_tns(in), ParseError);
}

TEST(TnsIo, WriteReadRoundTrip) {
  const CooTensor x = testing::random_coo({7, 9, 5}, 60, 21);
  std::ostringstream out;
  write_tns(x, out);
  std::istringstream in(out.str());
  const CooTensor y = read_tns(in);
  // Dims may shrink if the max index was not hit; the random tensor with 60
  // nnz over small dims hits every max with high probability — verify
  // contents rather than insist on dims.
  EXPECT_EQ(y.nnz(), x.nnz());
  EXPECT_NEAR(y.norm_sq(), x.norm_sq(), 1e-6);
}

TEST(TnsIo, FileRoundTrip) {
  const TempDir dir;
  const CooTensor x = testing::random_coo({6, 6, 6}, 40, 22);
  write_tns_file(x, dir.file("t.tns"));
  const CooTensor y = read_tns_file(dir.file("t.tns"));
  EXPECT_EQ(y.nnz(), x.nnz());
}

TEST(TnsIo, MissingFileThrows) {
  EXPECT_THROW(read_tns_file("/nonexistent/path/t.tns"), InvalidArgument);
}

// Error reporting carries the 1-based line number and the offending token,
// so a bad row in a multi-gigabyte FROSTT file is findable.
void expect_parse_error(const std::string& text,
                        const std::vector<std::string>& needles,
                        DuplicatePolicy policy = DuplicatePolicy::kSum) {
  std::istringstream in(text);
  try {
    read_tns(in, policy);
    FAIL() << "expected ParseError for: " << text;
  } catch (const ParseError& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing \"" << needle << "\" in: " << what;
    }
  }
}

TEST(TnsIo, RejectsNanValueWithLineNumber) {
  expect_parse_error("1 1 1 1.0\n2 1 1 nan\n", {"line 2", "not finite"});
}

TEST(TnsIo, RejectsInfValueWithLineNumber) {
  expect_parse_error("1 1 1 inf\n", {"line 1", "not finite", "inf"});
}

TEST(TnsIo, RejectsOverflowingLiteralValue) {
  // 1e999 overflows double -> infinity; must be rejected, not stored.
  expect_parse_error("1 1 1 1e999\n", {"line 1", "not finite"});
}

TEST(TnsIo, RejectsNonNumericValue) {
  expect_parse_error("1 1 1 abc\n", {"line 1", "not a number", "abc"});
}

TEST(TnsIo, RejectsIndexOverflowingIndexType) {
  // 2^32 does not fit index_t (uint32); the token must be named.
  expect_parse_error("4294967296 1 1 1.0\n",
                     {"line 1", "overflows", "4294967296"});
}

TEST(TnsIo, RejectsFractionalIndex) {
  expect_parse_error("1.5 2 3 1.0\n", {"line 1", "1.5"});
}

TEST(TnsIo, RejectsZeroIndexWithToken) {
  expect_parse_error("1 0 1 1.0\n", {"line 1", "1-indexed"});
}

TEST(TnsIo, DuplicatesSumByDefault) {
  // FROSTT convention: duplicate coordinates accumulate. The entry keeps
  // its first-occurrence position in the nnz ordering.
  std::istringstream in("2 2 2 1.25\n1 1 1 10.0\n2 2 2 2.5\n");
  const CooTensor x = read_tns(in);
  EXPECT_EQ(x.nnz(), 2u);
  EXPECT_DOUBLE_EQ(x.value(0), 3.75);  // 1.25 + 2.5, at its original slot
  EXPECT_DOUBLE_EQ(x.value(1), 10.0);
  EXPECT_EQ(x.index(0, 0), 1u);
}

TEST(TnsIo, DuplicatePolicyErrorNamesBothLines) {
  expect_parse_error("1 1 1 1.0\n2 2 2 2.0\n1 1 1 3.0\n",
                     {"line 3", "duplicate coordinate", "first seen at line 1"},
                     DuplicatePolicy::kError);
}

TEST(TnsIo, DuplicatePolicyErrorAcceptsDistinctCoordinates) {
  std::istringstream in("1 1 1 1.0\n2 2 2 2.0\n1 1 2 3.0\n");
  const CooTensor x = read_tns(in, DuplicatePolicy::kError);
  EXPECT_EQ(x.nnz(), 3u);
}

TEST(TnsIo, FileErrorsArePrefixedWithPath) {
  const TempDir dir;
  const std::string path = dir.file("bad.tns");
  {
    std::ofstream out(path);
    out << "1 1 1 1.0\n1 1 1 nan\n";
  }
  try {
    read_tns_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.tns"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(BinaryIo, ExactRoundTrip) {
  const TempDir dir;
  const CooTensor x = testing::random_coo({12, 4, 9}, 100, 23);
  write_binary_file(x, dir.file("t.bin"));
  const CooTensor y = read_binary_file(dir.file("t.bin"));
  EXPECT_TRUE(tensors_equal(x, y));
}

TEST(BinaryIo, PreservesDimsEvenWithUnusedSlices) {
  // Binary format stores dims explicitly, unlike .tns inference.
  CooTensor x({10, 10});
  const index_t c[2] = {0, 0};
  x.add({c, 2}, 1.0);
  const TempDir dir;
  write_binary_file(x, dir.file("t.bin"));
  const CooTensor y = read_binary_file(dir.file("t.bin"));
  EXPECT_EQ(y.dim(0), 10u);
  EXPECT_EQ(y.dim(1), 10u);
}

TEST(BinaryIo, RejectsCorruptMagic) {
  const TempDir dir;
  const std::string path = dir.file("bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATENSOR______________";
  }
  EXPECT_THROW(read_binary_file(path), ParseError);
}

TEST(BinaryIo, RejectsTruncatedFile) {
  const TempDir dir;
  const CooTensor x = testing::random_coo({5, 5}, 10, 24);
  const std::string path = dir.file("trunc.bin");
  write_binary_file(x, path);
  // Truncate to half size.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(read_binary_file(path), ParseError);
}

/// A binary tensor file written field by field, so a test can make its
/// header disagree with its contents.
void write_raw_binary(const std::string& path, std::uint64_t order,
                      std::uint64_t nnz, const std::vector<std::uint64_t>& dims,
                      const std::vector<index_t>& coords,
                      const std::vector<real_t>& vals) {
  std::ofstream out(path, std::ios::binary);
  const char magic[8] = {'A', 'O', 'T', 'N', 'S', '1', 0, 0};
  out.write(magic, sizeof(magic));
  out.write(reinterpret_cast<const char*>(&order), sizeof(order));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  out.write(reinterpret_cast<const char*>(dims.data()),
            static_cast<std::streamsize>(dims.size() * sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(coords.data()),
            static_cast<std::streamsize>(coords.size() * sizeof(index_t)));
  out.write(reinterpret_cast<const char*>(vals.data()),
            static_cast<std::streamsize>(vals.size() * sizeof(real_t)));
}

TEST(BinaryIo, RejectsNonZeroCountBeyondTheFile) {
  // A 48-byte header claiming 2^62 non-zeros must fail before any
  // allocation is sized from it.
  const TempDir dir;
  const std::string path = dir.file("huge.bin");
  write_raw_binary(path, 3, std::uint64_t{1} << 62, {4, 4, 4}, {}, {});
  EXPECT_THROW(read_binary_file(path), ParseError);
}

TEST(BinaryIo, RejectsDimensionBeyondIndexType) {
  const TempDir dir;
  const std::string path = dir.file("wide.bin");
  write_raw_binary(path, 3, 1, {(std::uint64_t{1} << 32) + 3, 2, 2},
                   {1, 1, 1}, {1.0});
  EXPECT_THROW(read_binary_file(path), ParseError);
}

TEST(BinaryIo, RejectsCoordinateOutsideItsMode) {
  const TempDir dir;
  const std::string path = dir.file("oob.bin");
  write_raw_binary(path, 3, 1, {4, 4, 4}, {9, 1, 1}, {1.0});
  try {
    read_binary_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("oob.bin"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryIo, RejectsNanValue) {
  const TempDir dir;
  const std::string path = dir.file("nan.bin");
  write_raw_binary(path, 3, 1, {4, 4, 4}, {1, 2, 3},
                   {std::numeric_limits<real_t>::quiet_NaN()});
  EXPECT_THROW(read_binary_file(path), ParseError);
}

// --- TnsOptions::wide_indices: the opt-in past the 32-bit coordinate
// ceiling. Oversized modes are compacted to dense row ids; in-range modes
// keep their numbering.

TEST(TnsIoWide, NarrowPathNamesTheWideEscapeHatch) {
  expect_parse_error("5000000000 1 1 1.0\n",
                     {"line 1", "32-bit", "wide_indices", "5000000000"});
}

TEST(TnsIoWide, CompactsOversizedModeAndKeepsInRangeModes) {
  std::istringstream in(
      "5000000000 1 2 1.5\n"
      "1 2 1 2.5\n"
      "7000000000 2 2 0.5\n");
  TnsOptions topts;
  topts.wide_indices = true;
  const CooTensor x = read_tns(in, topts);
  ASSERT_EQ(x.order(), 3u);
  EXPECT_EQ(x.nnz(), 3u);
  // Mode 0 held {0, 4999999999, 6999999999}: compacted to 3 dense rows in
  // sorted order. Modes 1 and 2 are in range and keep max-index dims.
  EXPECT_EQ(x.dim(0), 3u);
  EXPECT_EQ(x.dim(1), 2u);
  EXPECT_EQ(x.dim(2), 2u);
  CooTensor sorted = x;
  sorted.sort_mode_major(0);
  EXPECT_EQ(sorted.index(0, 0), 0u);  // row 1 -> 0
  EXPECT_EQ(sorted.value(0), 2.5);
  EXPECT_EQ(sorted.index(0, 1), 1u);  // row 5000000000 -> 1
  EXPECT_EQ(sorted.value(1), 1.5);
  EXPECT_EQ(sorted.index(0, 2), 2u);  // row 7000000000 -> 2
  EXPECT_EQ(sorted.value(2), 0.5);
}

TEST(TnsIoWide, InRangeFilesParseIdenticallyOnBothPaths) {
  const std::string text = "1 2 1 1.0\n3 1 2 2.0\n2 2 2 3.0\n";
  std::istringstream narrow_in(text);
  const CooTensor narrow = read_tns(narrow_in);
  std::istringstream wide_in(text);
  TnsOptions topts;
  topts.wide_indices = true;
  const CooTensor wide = read_tns(wide_in, topts);
  EXPECT_TRUE(tensors_equal(narrow, wide));
}

TEST(TnsIoWide, DuplicatePolicyStillAppliesOnTheWidePath) {
  TnsOptions sum;
  sum.wide_indices = true;
  std::istringstream in_sum("6000000000 1 1.0\n6000000000 1 2.0\n");
  const CooTensor x = read_tns(in_sum, sum);
  EXPECT_EQ(x.nnz(), 1u);
  EXPECT_EQ(x.value(0), 3.0);

  TnsOptions reject;
  reject.wide_indices = true;
  reject.policy = DuplicatePolicy::kError;
  std::istringstream in_err("6000000000 1 1.0\n6000000000 1 2.0\n");
  EXPECT_THROW(read_tns(in_err, reject), ParseError);
}

TEST(TnsIoWide, FileOverloadTakesOptions) {
  const TempDir dir;
  const std::string path = dir.file("wide.tns");
  {
    std::ofstream out(path);
    out << "4294967297 1 1.0\n1 2 2.0\n";  // 2^32 + 1 in mode 0
  }
  EXPECT_THROW(read_tns_file(path), ParseError);
  TnsOptions topts;
  topts.wide_indices = true;
  const CooTensor x = read_tns_file(path, topts);
  EXPECT_EQ(x.nnz(), 2u);
  EXPECT_EQ(x.dim(0), 2u);  // {1, 4294967297} -> 2 compacted rows
}

}  // namespace
}  // namespace aoadmm
