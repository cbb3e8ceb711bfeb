#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace aoadmm {
namespace {

std::uint64_t xxh64_str(const char* s) { return xxh64(s, std::strlen(s)); }

/// n bytes of the pattern (i*31+7) & 0xFF.
std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<unsigned char>((i * 31 + 7) & 0xFF);
  }
  return out;
}

// Known answers from the reference implementation (libxxhash 0.8.1,
// XXH64(data, n, 0)).
TEST(Checksum, Xxh64MatchesReferenceOnStrings) {
  EXPECT_EQ(xxh64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64(nullptr, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64_str("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64_str("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(xxh64_str("xxhash"), 0x32DD38952C4BC720ULL);
  EXPECT_EQ(xxh64_str("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

// 31 bytes take the short-input path; 32 is exactly one stripe with no
// tail; 33 is one stripe plus a 1-byte tail; 1000 = 31 stripes + an 8-byte
// word + no 4-byte word + no bytes. With the strings above every tail class
// (8-byte words, 4-byte word, single bytes) is reached.
TEST(Checksum, Xxh64MatchesReferenceAcrossStripeBoundaries) {
  const struct {
    std::size_t n;
    std::uint64_t want;
  } cases[] = {{31, 0x4A74F3A1A39AD4A1ULL},
               {32, 0x8D57D6A4671CC43DULL},
               {33, 0x62C9FD21ED857664ULL},
               {1000, 0x99594F4828043D35ULL}};
  for (const auto& c : cases) {
    const std::vector<unsigned char> bytes = pattern(c.n);
    EXPECT_EQ(xxh64(bytes.data(), bytes.size()), c.want) << "n = " << c.n;
  }
}

TEST(Checksum, Xxh64DoesNotDependOnAlignment) {
  const std::vector<unsigned char> bytes = pattern(1000);
  for (std::size_t offset = 1; offset < 8; ++offset) {
    std::vector<unsigned char> shifted(offset + bytes.size());
    std::memcpy(shifted.data() + offset, bytes.data(), bytes.size());
    EXPECT_EQ(xxh64(shifted.data() + offset, bytes.size()),
              0x99594F4828043D35ULL)
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace aoadmm
