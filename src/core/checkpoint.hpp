// Versioned binary serialization of solver state.
//
//  * CpdCheckpoint — everything the AO-ADMM outer loop needs to continue a
//    run bitwise-identically after a kill: factors, ADMM scaled duals, RNG
//    state, outer-iteration counter, previous error, work counters, and the
//    convergence trace so far.
//  * KruskalTensor binary round-trip — exact (full-precision) model
//    save/load, e.g. to warm-start a later session.
//
// Format: fixed little-endian-native header (magic, version, sizeof(real_t))
// followed by the payload, followed by an FNV-1a checksum of the payload.
// Values are written in memory representation, so a checkpoint is portable
// between runs on the same architecture — the intended use (resume after a
// kill, parameter sweeps on one machine), not an archival format.
// write_*_file variants write to "<path>.tmp" and rename, so a crash while
// checkpointing never corrupts the previous checkpoint.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/kruskal.hpp"
#include "core/trace.hpp"
#include "la/matrix.hpp"
#include "util/types.hpp"

namespace aoadmm {

inline constexpr std::uint32_t kCheckpointFormatVersion = 1;

/// Full mid-run solver state. Produced by CpdSolver at checkpoint points
/// and consumed by CpdSolver::resume().
struct CpdCheckpoint {
  /// Tensor shape the run belongs to; resume validates it against the
  /// session's tensor.
  std::vector<index_t> dims;
  rank_t rank = 0;
  std::uint64_t seed = 0;
  std::array<std::uint64_t, 4> rng_state{};
  /// Outer iterations completed when the checkpoint was taken.
  unsigned outer_iteration = 0;
  /// Relative error of that iteration (the loop's convergence reference).
  real_t prev_error = 0;
  std::uint64_t total_inner_iterations = 0;
  std::uint64_t total_row_iterations = 0;
  std::uint64_t mttkrp_count = 0;
  std::uint64_t sparse_mttkrp_count = 0;
  std::vector<Matrix> factors;
  std::vector<Matrix> duals;
  ConvergenceTrace trace;
};

/// Serialize / deserialize a checkpoint. read_checkpoint throws ParseError
/// on bad magic, version or real_t size mismatch, truncation, checksum
/// failure, or a factor or dual whose shape is not dims[m] x rank.
void write_checkpoint(const CpdCheckpoint& ck, std::ostream& out);
CpdCheckpoint read_checkpoint(std::istream& in);

/// File variants; writing is atomic (temp file + rename). Throw
/// InvalidArgument when the file cannot be opened / renamed.
void write_checkpoint_file(const CpdCheckpoint& ck, const std::string& path);
CpdCheckpoint read_checkpoint_file(const std::string& path);

/// Exact binary round-trip for a Kruskal model (factors + λ weights).
void write_kruskal(const KruskalTensor& k, std::ostream& out);
KruskalTensor read_kruskal(std::istream& in);
void write_kruskal_file(const KruskalTensor& k, const std::string& path);
KruskalTensor read_kruskal_file(const std::string& path);

}  // namespace aoadmm
