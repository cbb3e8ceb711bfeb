// XXH64, the 64-bit xxHash by Yann Collet (algorithm as specified in
// doc/xxhash_spec.md of https://github.com/Cyan4973/xxHash), seed 0,
// one-shot.
//
// Checks the spilled CSF tiles of the out-of-core solver
// (CsfTensor::serialize/deserialize), which are re-read on every sweep
// step. A byte-at-a-time FNV-1a is one serial multiply chain per byte;
// XXH64 runs four independent 64-bit lanes over 32-byte stripes, so a tile
// hashes at memory speed rather than at multiply latency. Output matches
// the reference implementation on any host: words are read little-endian.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace aoadmm {

namespace detail {

inline constexpr std::uint64_t kXxh64Prime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxh64Prime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxh64Prime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxh64Prime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxh64Prime5 = 0x27D4EB2F165667C5ULL;

template <typename T>
inline T xxh64_read_le(const unsigned char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
  }
  return v;
}

inline std::uint64_t xxh64_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxh64Prime2;
  acc = std::rotl(acc, 31);
  return acc * kXxh64Prime1;
}

inline std::uint64_t xxh64_merge(std::uint64_t acc, std::uint64_t lane) {
  acc ^= xxh64_round(0, lane);
  return acc * kXxh64Prime1 + kXxh64Prime4;
}

}  // namespace detail

/// XXH64 of n bytes at data, seed 0.
inline std::uint64_t xxh64(const void* data, std::size_t n) {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kXxh64Prime1 + kXxh64Prime2;
    std::uint64_t v2 = kXxh64Prime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kXxh64Prime1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh64_round(v1, xxh64_read_le<std::uint64_t>(p));
      v2 = xxh64_round(v2, xxh64_read_le<std::uint64_t>(p + 8));
      v3 = xxh64_round(v3, xxh64_read_le<std::uint64_t>(p + 16));
      v4 = xxh64_round(v4, xxh64_read_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh64_merge(h, v1);
    h = xxh64_merge(h, v2);
    h = xxh64_merge(h, v3);
    h = xxh64_merge(h, v4);
  } else {
    h = kXxh64Prime5;
  }
  h += static_cast<std::uint64_t>(n);

  for (; end - p >= 8; p += 8) {
    h ^= xxh64_round(0, xxh64_read_le<std::uint64_t>(p));
    h = std::rotl(h, 27) * kXxh64Prime1 + kXxh64Prime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<std::uint64_t>(xxh64_read_le<std::uint32_t>(p)) *
         kXxh64Prime1;
    h = std::rotl(h, 23) * kXxh64Prime2 + kXxh64Prime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kXxh64Prime5;
    h = std::rotl(h, 11) * kXxh64Prime1;
  }

  h ^= h >> 33;
  h *= kXxh64Prime2;
  h ^= h >> 29;
  h *= kXxh64Prime3;
  h ^= h >> 32;
  return h;
}

}  // namespace aoadmm
