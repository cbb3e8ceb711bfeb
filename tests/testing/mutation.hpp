// Exhaustive single-fault mutation of a serialized blob, for the parsers of
// outside bytes: every proper prefix and every single-bit flip. Each parser
// test decides what an acceptable answer to a mutant is (its typed error,
// or a valid object); any other exception escapes the visitor and fails the
// test, and an out-of-bounds read or undefined behaviour shows under the
// ASan+UBSan build.
#pragma once

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

namespace aoadmm::testing {

/// The whole content of the file at `path` (the seed blob of a file
/// parser's mutation test).
inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Calls `visit(bytes, what)` once per mutant of `blob`: each proper prefix
/// (shortest first), then each single-bit flip of the whole blob. `what`
/// names the mutant for failure messages. Returns the number of mutants.
template <typename Visit>
std::size_t for_each_mutation(const std::string& blob, Visit&& visit) {
  std::size_t count = 0;
  for (std::size_t n = 0; n < blob.size(); ++n, ++count) {
    visit(blob.substr(0, n), "prefix of " + std::to_string(n) + " bytes");
  }
  std::string mutated = blob;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit, ++count) {
      mutated[i] = static_cast<char>(blob[i] ^ (1 << bit));
      visit(mutated, "flip of byte " + std::to_string(i) + " bit " +
                         std::to_string(bit));
    }
    mutated[i] = blob[i];
  }
  return count;
}

}  // namespace aoadmm::testing
