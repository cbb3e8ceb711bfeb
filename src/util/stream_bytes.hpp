// How many bytes an input stream still holds, so a reader can check a
// length field read from a file against the file before allocating for it.
#pragma once

#include <cstdint>
#include <istream>
#include <limits>

namespace aoadmm {

/// Bytes from the read position to the end of `in`; the maximum when the
/// stream cannot seek (then only the overflow checks bound a length field).
inline std::uint64_t bytes_left(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here < 0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

}  // namespace aoadmm
