// Seeded, deterministic fault injection for exercising the numerical guard
// rails (core/robustness.hpp) without hand-crafting pathological tensors.
//
// Faults are armed either programmatically (arm_faults, used by the test
// suites) or from the environment (arm_faults_from_env, used to fault a
// stock binary such as tensor_tool without recompiling):
//
//   AOADMM_FAULT_SEED=42                 # RNG seed (default 1)
//   AOADMM_FAULT_GRAM_NONPD=0.5:1        # rate[:max_fires]
//   AOADMM_FAULT_MTTKRP_NAN=0.25:2
//   AOADMM_FAULT_CHECKPOINT_WRITE=1.0:1
//   AOADMM_FAULT_WAL_WRITE=1.0:1         # streaming WAL append failure
//   AOADMM_FAULT_INGEST_CORRUPT=0.5:1    # poison a batch value with NaN
//   AOADMM_FAULT_REFRESH_THROW=1.0:3     # refresh() throws NumericalError
//   AOADMM_FAULT_REFRESH_HANG=1.0:1      # refresh() stalls until deadline
//   AOADMM_FAULT_TELEMETRY_WRITE=1.0:2   # journal/file-writer write failure
//
// Each hook sits at a *serial* driver point (once per mode per outer
// iteration, or per checkpoint write / WAL append / batch ingest /
// refresh), so a fixed seed yields the same firing sequence on every run
// regardless of thread count. When nothing is armed — the default — every
// hook is a single relaxed atomic load.
#pragma once

#include <cstdint>

#include "la/matrix.hpp"

namespace aoadmm {
class CooTensor;
}

namespace aoadmm::testing {

/// Where a fault can be injected.
enum class FaultSite {
  kGramNonPd = 0,        ///< make a Gram product indefinite (g(0,0) < 0)
  kMttkrpNaN = 1,        ///< poison an MTTKRP output with NaNs
  kCheckpointWrite = 2,  ///< force a checkpoint write failure (short write)
  kWalWrite = 3,         ///< force a streaming WAL append to fail
  kIngestCorrupt = 4,    ///< poison an ingest batch with a NaN value
  kRefreshThrow = 5,     ///< make StreamingSolver::refresh throw
  kRefreshHang = 6,      ///< hang a refresh past its armed deadline
  kTelemetryWrite = 7    ///< fail an event-journal / telemetry-file write
};
inline constexpr std::size_t kFaultSiteCount = 8;

/// Per-site firing policy: each visit fires with probability `rate`
/// (deterministically, from the shared seeded RNG), at most `max_fires`
/// times overall. rate = 0 disarms the site.
struct FaultSpec {
  double rate = 0;
  std::uint64_t max_fires = ~std::uint64_t{0};
};

struct FaultConfig {
  std::uint64_t seed = 1;
  FaultSpec site[kFaultSiteCount];

  FaultSpec& at(FaultSite s) noexcept {
    return site[static_cast<std::size_t>(s)];
  }
  const FaultSpec& at(FaultSite s) const noexcept {
    return site[static_cast<std::size_t>(s)];
  }
  bool any() const noexcept {
    for (const FaultSpec& f : site) {
      if (f.rate > 0) {
        return true;
      }
    }
    return false;
  }
};

/// How often each site was consulted and how often it fired.
struct FaultCounts {
  std::uint64_t visits[kFaultSiteCount] = {};
  std::uint64_t fires[kFaultSiteCount] = {};

  std::uint64_t visits_at(FaultSite s) const noexcept {
    return visits[static_cast<std::size_t>(s)];
  }
  std::uint64_t fires_at(FaultSite s) const noexcept {
    return fires[static_cast<std::size_t>(s)];
  }
};

/// Arm the given faults, resetting the RNG to cfg.seed and all counters to
/// zero. Replaces any previous configuration.
void arm_faults(const FaultConfig& cfg);

/// Disarm everything and clear counters; hooks become no-ops again.
void disarm_faults();

/// Read AOADMM_FAULT_* (see file header) and arm accordingly. Returns true
/// when at least one site was armed. Unset/empty variables leave their site
/// disarmed; malformed values throw InvalidArgument naming the variable.
bool arm_faults_from_env();

/// Parse a "rate" or "rate:max_fires" spec (exposed for tests). Throws
/// InvalidArgument mentioning `what` on malformed input.
FaultSpec parse_fault_spec(const char* text, const char* what);

/// Snapshot of the per-site visit/fire counters.
FaultCounts fault_counts();

// --- Hooks, called from the solver/checkpoint code -----------------------

/// Maybe make `g` indefinite: g(0,0) ← −(10·|tr G|/F + 1), which no
/// tr(G)/F-sized ridge can mask, guaranteeing the plain Cholesky rejects it.
/// Returns true when the fault fired.
bool maybe_corrupt_gram(Matrix& g);

/// Maybe poison `k` with a few NaNs (first entry plus two interior ones).
/// Returns true when the fault fired.
bool maybe_inject_nan(Matrix& k);

/// Maybe report that the current checkpoint write must fail; the writer
/// turns this into a stream error mid-payload (a short write). Returns true
/// when the fault fired.
bool maybe_fail_checkpoint_write();

/// Maybe report that the current WAL append must fail; the log turns this
/// into a write error before any bytes land. Returns true when fired.
bool maybe_fail_wal_write();

/// Maybe poison `batch` with a quiet NaN in its first value — the shape of
/// corruption ingest validation must quarantine. No-op on an empty batch.
/// Returns true when the fault fired.
bool maybe_corrupt_ingest(CooTensor& batch);

/// Maybe report that the current refresh must fail; the streaming solver
/// turns this into a NumericalError before the solve starts. Returns true
/// when the fault fired.
bool maybe_throw_refresh();

/// Maybe report that the current refresh must hang past its deadline; the
/// streaming solver expires the armed deadline of its CancelToken at once
/// rather than sleeping. Returns true when the fault fired.
bool maybe_hang_refresh();

/// Maybe report that the current telemetry write (event-journal line or
/// telemetry-file rewrite) must fail; the sink counts it and keeps running.
/// Returns true when the fault fired.
bool maybe_fail_telemetry_write();

}  // namespace aoadmm::testing
