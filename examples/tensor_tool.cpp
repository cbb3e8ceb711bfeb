// tensor_tool — a SPLATT-style command-line interface to the library.
//
// Subcommands:
//   generate  --out t.tns [--dims 100x80x60] [--nnz 5000] [--alpha 1.0]
//             [--rank 4] [--noise 0.1] [--seed 42]   (--out x.bin: binary)
//   stats     t.tns                     print dims/nnz/density/slice skew
//   convert   in.tns out.bin            text <-> binary (by extension)
//   stream-replay t.tns [--batches 8] [--time-mode M] [--window W]
//             [--churn 0.25] [--queries 100] [--rank 16] [--constraint ...]
//             [--lambda 0.1] [--max-outer 50] [--tol 1e-5] [--seed 123]
//             [--threads N] [--metrics-json m.json]
//             [--telemetry-port P] [--telemetry-file f.prom]
//             [--telemetry-period 1.0] [--event-log events.jsonl]
//             [--serve-seconds S] [--stale-after S] [--slo-p99 S]
//             [--wal prefix] [--wal-fsync never|batch|N]
//             [--wal-segment-bytes B] [--wal-checkpoint-every K]
//             [--quarantine q.jsonl] [--quarantine-max 1024]
//             [--breaker-threshold 3] [--breaker-cooldown 5]
//             [--backoff-initial 0.5] [--backoff-max 30]
//             [--refresh-deadline S]
//             (also spelled `tensor_tool --stream-replay t.tns [...]`)
//   cpd       t.tns [--rank 16] [--constraint nonneg] [--lambda 0.1]
//             [--loss frobenius|kl|huber|l1 spec] [--adaptive-rho]
//             [--adaptive-ratio 10] [--adaptive-rescale 2]
//             [--couple y.mat] [--couple-mode 0] [--couple-weight 1.0]
//             [--couple-constraint none]
//             [--variant blocked|base] [--format dense|csr|csr-h]
//             [--mttkrp-kernel auto|allmode|onetree|alto]
//             [--max-outer 50] [--tol 1e-5] [--block 50] [--trace out.csv]
//             [--threads N] [--save-factors prefix]
//             [--objective ls|observed]
//             [--checkpoint run.ckpt] [--checkpoint-every 10]
//             [--resume run.ckpt]
//             [--robust] [--max-recoveries 3]
//             [--progress] [--metrics-json m.json] [--chrome-trace t.json]
//             [--event-log events.jsonl]
//             [--shards AxBxC] [--spill-dir DIR] [--max-resident-mb N]
//             [--wide-indices]
//
// Losses (cpd): --loss takes a spec KIND[:PARAM][:masked] parsed by
// parse_loss_spec — e.g. `kl` (Poisson count data), `huber:0.5` (robust,
// delta 0.5), `l1`, `frobenius:masked` (fit stored entries only). Anything
// other than the default unmasked frobenius runs the generalized per-row
// two-split ADMM and reports the loss objective alongside the observed
// relative error; see docs/losses.md. --constraint likewise accepts a full
// spec (e.g. `l1:0.05`, `box:0:1`, `simplex`); a bare kind takes its
// strength from --lambda for backwards compatibility. `--objective
// observed` is another spelling of `--loss frobenius:masked` (missing =
// unknown); the default `--objective ls` fits every cell (missing = zero).
//
// Adaptive rho (cpd): --adaptive-rho turns on residual-balancing of the
// ADMM penalty (rho *= rescale when the primal residual exceeds ratio x
// dual, and symmetrically). Each rebalanced update is journaled as a
// rho_rebalance recovery event. --adaptive-ratio / --adaptive-rescale
// override the trigger ratio (default 10) and the scale step (default 2).
//
// Coupled factorization (cpd): --couple reads a side matrix (text, one row
// per line) whose rows align with tensor mode --couple-mode, and jointly
// factorizes  min |X - [[A]]|^2 + beta |Y - A W'|^2  with shared factor A
// (beta = --couple-weight). --couple-constraint constrains the side factor
// W. Prints the per-matrix and combined relative errors; --save-factors
// also writes the side factor as <prefix>.side0.mat.
//
// MTTKRP (cpd): --mttkrp-kernel picks the driver (auto follows the CSF
// compilation; onetree compiles a single tree and serves the other modes
// through the scatter kernels, 1/order the memory; alto runs the
// bit-interleaved linearized kernel over that tree). The scatter kernels
// pick privatized or owner-computes reduction per mode from the mode
// length, the rank and the thread count.
//
// Errors: a bad flag value or combination prints `error: <message>` and
// exits 1 (an integer flag or --dims/--shards extent outside its range
// names the range); a flag the command never reads draws one stderr
// warning each.
//
// Sharding (cpd): --shards=AxBxC splits the tensor into a medium-grained
// N-D grid of CSF tiles (one extent per mode) solved by per-shard workers
// whose MTTKRP partials are reduced in fixed shard order — repeated runs
// are bitwise identical, and a 1x1x1 grid reproduces the unsharded
// onetree solve bitwise (docs/sharding.md). --spill-dir serializes the
// tiles there and mmap-streams them back per sweep step instead of
// keeping them resident (out-of-core mode; with no --shards it spills a
// single-cell grid); --max-resident-mb bounds the decoded-tile cache with
// LRU eviction. --wide-indices accepts .tns coordinates past the 32-bit
// ceiling by compacting oversized modes to dense row ids (see TnsOptions
// in tensor/io.hpp). Shard/exchange/residency counters land under dist/*
// in --metrics-json's registry section.
//
// Robustness (cpd): --robust enables the numerical guard rails (guarded
// Cholesky, ADMM divergence recovery, NaN/Inf sentinels — see
// docs/robustness.md); --max-recoveries bounds retries per intervention
// (implies --robust). Every recovery is reported after the solve. The
// AOADMM_FAULT_* environment hooks (seeded fault injection) are honored
// when set, for exercising the guard rails on a stock binary.
//
// Checkpointing (cpd): --checkpoint writes full solver state to the given
// file every --checkpoint-every outer iterations (default 10); --resume
// continues a killed run from such a file, reproducing the uninterrupted
// convergence trace exactly. The configuration is validated before the
// solve starts; every problem is reported with its flag and severity, and
// errors abort with exit code 2.
//
// Streaming (stream-replay): replays the tensor as timestamp-ordered event
// batches on the time mode (default: the last mode) against the live
// streaming stack — ingest into a StreamingTensor (optionally windowed with
// --window), warm re-factorize after each batch, publish each model to a
// ModelServer, and issue --queries random single-entry predictions per
// refresh. --metrics-json writes the per-refresh reports (each stamped
// with its trace context) plus the global registry (stream/* counters and
// histograms with interpolated p50/p95/p99/p999 fields).
//
// Telemetry (stream-replay): --telemetry-port serves live Prometheus text
// on GET /metrics and a health JSON on GET /healthz at 127.0.0.1:<port>
// (port 0 = ephemeral; the bound port is printed). --telemetry-file
// rewrites <file> (Prometheus) and <file>.health (JSON) every
// --telemetry-period seconds instead of serving sockets. --event-log
// appends one JSON line per lifecycle event (batch ingested, refresh
// started/finished, snapshot published, recovery, checkpoint) with trace
// context. --serve-seconds keeps the endpoint and background queries
// alive after the replay so external scrapers see a live process;
// --stale-after and --slo-p99 feed the healthz staleness check and the
// query-latency SLO breach counter. See docs/observability.md.
//
// Fault tolerance (stream-replay): --wal write-ahead-logs every batch
// before it is applied (recovering any state left at the prefix first, so
// a kill -9'd run resumes where it died — the printed "state digest"
// matches the uninterrupted run's); --wal-fsync/--wal-segment-bytes/
// --wal-checkpoint-every tune durability, rotation, and log truncation.
// --quarantine diverts poison batches (non-finite values, refresh-failure
// implication) to a bounded JSONL sidecar. --breaker-threshold/
// --breaker-cooldown/--backoff-initial/--backoff-max shape the supervised
// refresh loop's failure ladder, and --refresh-deadline bounds each
// refresh solve through its cancellation token (a deadline stop still
// publishes the partially converged model). See docs/fault_tolerance.md.
//
// Observability (cpd): --progress prints one line per outer iteration;
// --metrics-json writes per-iteration snapshots plus the process-wide
// metric registry; --chrome-trace writes a chrome://tracing / Perfetto
// trace (spans require a build with -DAOADMM_ENABLE_PROFILING=ON).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/config.hpp"
#include "core/coupled.hpp"
#include "core/cpd.hpp"
#include "core/loss.hpp"
#include "core/solver.hpp"
#include "dist/sharded_solver.hpp"
#include "la/matrix_io.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "parallel/runtime.hpp"
#include "stream/replay.hpp"
#include "tensor/io.hpp"
#include "tensor/synthetic.hpp"
#include "testing/fault_injection.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/options.hpp"

using namespace aoadmm;

namespace {

/// User-input check: the message alone reaches the user (exit 1), without
/// the source location a library contract check would add.
void require(bool ok, const std::string& message) {
  if (!ok) {
    throw InvalidArgument(message);
  }
}

/// A whole-token decimal integer in [lo, hi]. A sign on an unsigned type,
/// trailing text and a value past the type are user errors too, so nothing
/// wraps or truncates on its way into a narrower field.
template <typename T>
T parse_int(const std::string& token, const std::string& what, T lo,
            T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  require(ec == std::errc() && ptr == end && value >= lo && value <= hi,
          what + " must be an integer in [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "], got '" + token + "'");
  return value;
}

/// --name through parse_int, or `fallback` when the flag has no value.
template <typename T>
T int_flag(const Options& opts, const std::string& name, T fallback, T lo,
           T hi = std::numeric_limits<T>::max()) {
  const auto v = opts.get(name);
  return v ? parse_int<T>(*v, "--" + name, lo, hi) : fallback;
}

/// --threads: 0 keeps the OpenMP default.
void apply_threads_flag(const Options& opts) {
  const int threads = int_flag<int>(opts, "threads", 0, 0, 1024);
  if (threads > 0) {
    set_num_threads(threads);
  }
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

CooTensor load_any(const std::string& path, bool wide_indices = false) {
  if (has_suffix(path, ".bin")) {
    return read_binary_file(path);
  }
  TnsOptions topts;
  topts.wide_indices = wide_indices;
  return read_tns_file(path, topts);
}

void save_any(const CooTensor& x, const std::string& path) {
  if (has_suffix(path, ".bin")) {
    write_binary_file(x, path);
  } else {
    write_tns_file(x, path);
  }
}

std::vector<index_t> parse_dims(const std::string& s) {
  std::vector<index_t> dims;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t x = s.find('x', pos);
    const std::string tok = s.substr(pos, x - pos);
    require(!tok.empty(), "bad --dims: " + s);
    dims.push_back(parse_int<index_t>(tok, "each --dims extent", 1));
    if (x == std::string::npos) {
      break;
    }
    pos = x + 1;
  }
  require(dims.size() >= 2, "--dims needs at least 2 modes");
  return dims;
}

/// "--shards 2x2x1" -> {2, 2, 1}. Semantic validation (one extent per
/// mode, every extent >= 1) is CpdConfig::validate's job so problems are
/// reported like any other flag, with severity and exit code 2.
std::vector<std::size_t> parse_grid(const std::string& s) {
  std::vector<std::size_t> grid;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t x = s.find('x', pos);
    const std::string tok = s.substr(pos, x - pos);
    require(!tok.empty(), "bad --shards: " + s);
    grid.push_back(parse_int<std::size_t>(tok, "each --shards extent", 0,
                                          std::numeric_limits<index_t>::max()));
    if (x == std::string::npos) {
      break;
    }
    pos = x + 1;
  }
  require(!grid.empty(), "bad --shards: " + s);
  return grid;
}

int cmd_generate(const Options& opts) {
  SyntheticSpec spec;
  const std::string dims = opts.get_string("dims", "100x80x60");
  spec.dims = parse_dims(dims);
  spec.nnz = int_flag<offset_t>(opts, "nnz", 5000, 1);
  double cells = 1;
  for (const index_t d : spec.dims) {
    cells *= static_cast<double>(d);
  }
  require(static_cast<double>(spec.nnz) <= cells,
          "--nnz " + std::to_string(spec.nnz) +
              " exceeds the cells of --dims " + dims);
  spec.zipf_alpha = {static_cast<real_t>(opts.get_double("alpha", 1.0))};
  spec.true_rank = int_flag<rank_t>(opts, "rank", 4, 0);
  spec.noise = static_cast<real_t>(opts.get_double("noise", 0.1));
  spec.seed = int_flag<std::uint64_t>(opts, "seed", 42, 0);
  const std::string out = opts.get_string("out", "generated.tns");
  const CooTensor x = make_synthetic(spec);
  save_any(x, out);
  std::printf("wrote %llu non-zeros to %s\n",
              static_cast<unsigned long long>(x.nnz()), out.c_str());
  return 0;
}

int cmd_stats(const Options& opts) {
  require(opts.positional().size() >= 2, "usage: tensor_tool stats <file>");
  const CooTensor x = load_any(opts.positional()[1]);
  std::printf("order : %zu\n", x.order());
  std::printf("dims  : ");
  double capacity = 1;
  for (std::size_t m = 0; m < x.order(); ++m) {
    std::printf("%u%s", x.dim(m), m + 1 < x.order() ? " x " : "\n");
    capacity *= x.dim(m);
  }
  std::printf("nnz   : %llu\n", static_cast<unsigned long long>(x.nnz()));
  std::printf("density: %.3e\n", static_cast<double>(x.nnz()) / capacity);
  std::printf("norm  : %.6e\n", std::sqrt(x.norm_sq()));
  for (std::size_t m = 0; m < x.order(); ++m) {
    auto counts = x.slice_nnz(m);
    std::sort(counts.begin(), counts.end());
    offset_t nonempty = 0;
    for (const auto c : counts) {
      nonempty += c > 0 ? 1 : 0;
    }
    std::printf("mode %zu: %llu/%u slices non-empty, max slice %llu, median "
                "%llu\n",
                m, static_cast<unsigned long long>(nonempty), x.dim(m),
                static_cast<unsigned long long>(counts.back()),
                static_cast<unsigned long long>(counts[counts.size() / 2]));
  }
  return 0;
}

int cmd_convert(const Options& opts) {
  require(opts.positional().size() >= 3,
          "usage: tensor_tool convert <in> <out>");
  const CooTensor x = load_any(opts.positional()[1]);
  save_any(x, opts.positional()[2]);
  std::printf("converted %s -> %s (%llu non-zeros)\n",
              opts.positional()[1].c_str(), opts.positional()[2].c_str(),
              static_cast<unsigned long long>(x.nnz()));
  return 0;
}

/// --constraint accepts a full spec (`l1:0.05`, `box:0:1`, ...) via
/// parse_constraint_spec. Backwards compatibility: a bare kind with no
/// inline parameter takes its strength from --lambda (historical default
/// 0.1), and an explicit --lambda always wins.
ConstraintSpec parse_cli_constraint(const Options& opts) {
  const std::string spec_str = opts.get_string("constraint", "nonneg");
  ConstraintSpec spec = parse_constraint_spec(spec_str);
  if (opts.has("lambda") || spec_str.find(':') == std::string::npos) {
    const bool uses_lambda = spec.kind == ConstraintKind::kL1 ||
                             spec.kind == ConstraintKind::kNonNegativeL1 ||
                             spec.kind == ConstraintKind::kRidge;
    if (uses_lambda) {
      spec.lambda = static_cast<real_t>(opts.get_double("lambda", 0.1));
    }
  }
  return spec;
}

/// Map a CpdConfig::validate() field to the tensor_tool flag that sets it,
/// so diagnostics are actionable from the command line.
std::string cli_flag_for(const std::string& field) {
  if (field == "rank") return "--rank";
  if (field == "max_outer_iterations") return "--max-outer";
  if (field == "tolerance") return "--tol";
  if (field == "admm.block_size") return "--block";
  if (field == "leaf_format") return "--format";
  if (field == "mttkrp_kernel") return "--mttkrp-kernel";
  if (field == "checkpoint_path") return "--checkpoint";
  if (field == "checkpoint_every") return "--checkpoint-every";
  if (field == "robustness.max_recoveries") return "--max-recoveries";
  if (field.rfind("robustness", 0) == 0) return "--robust";
  if (field == "admm.adaptive.ratio") return "--adaptive-ratio";
  if (field == "admm.adaptive.rescale") return "--adaptive-rescale";
  if (field.rfind("admm.adaptive", 0) == 0) return "--adaptive-rho";
  if (field == "loss" || field.rfind("loss.", 0) == 0) return "--loss";
  if (field == "shards.spill_dir") return "--spill-dir";
  if (field == "shards.max_resident_bytes") return "--max-resident-mb";
  if (field.rfind("shards", 0) == 0) return "--shards";
  if (field.rfind("constraints", 0) == 0) return "--constraint/--lambda";
  return field;  // no dedicated flag; name the option itself
}

int cmd_cpd(const Options& opts) {
  require(opts.positional().size() >= 2,
          "usage: tensor_tool cpd <file> [options]");
  apply_threads_flag(opts);
  // --shards/--spill-dir/--max-resident-mb route the solve through the
  // sharded coordinator; the tiles are compiled per shard (possibly
  // out-of-core), so the whole-tensor CSF compile below is skipped.
  ShardOptions shard_opts;
  if (opts.has("shards")) {
    shard_opts.grid = parse_grid(opts.get_string("shards", ""));
  }
  shard_opts.spill_dir = opts.get_string("spill-dir", "");
  shard_opts.max_resident_bytes =
      int_flag<std::size_t>(opts, "max-resident-mb", 0, 0,
                            std::numeric_limits<std::size_t>::max() >> 20)
      << 20;
  const bool sharded = shard_opts.enabled();

  const std::string kernel_str = opts.get_string("mttkrp-kernel", "auto");
  MttkrpKernel kernel = MttkrpKernel::kAuto;
  if (kernel_str == "allmode") {
    kernel = MttkrpKernel::kAllMode;
  } else if (kernel_str == "onetree") {
    kernel = MttkrpKernel::kOneTree;
  } else if (kernel_str == "alto") {
    kernel = MttkrpKernel::kAlto;
  } else {
    require(kernel_str == "auto",
            "--mttkrp-kernel must be auto|allmode|onetree|alto");
  }

  // The single-tree kernels (onetree, and alto built on top of it) need
  // the one-mode compilation.
  const CsfStrategy strategy =
      (kernel == MttkrpKernel::kOneTree || kernel == MttkrpKernel::kAlto)
          ? CsfStrategy::kOneMode
          : CsfStrategy::kAllMode;

  CpdConfig config;
  config.with_mttkrp_kernel(kernel)
      .with_rank(int_flag<rank_t>(opts, "rank", 16, 1))
      .with_max_outer(int_flag<unsigned>(opts, "max-outer", 50, 0))
      .with_tolerance(static_cast<real_t>(opts.get_double("tol", 1e-5)))
      .with_seed(int_flag<std::uint64_t>(opts, "seed", 123, 0));
  config.admm.block_size = int_flag<std::size_t>(opts, "block", 50, 0);

  const std::string variant = opts.get_string("variant", "blocked");
  require(variant == "blocked" || variant == "base",
          "--variant must be blocked|base");
  config.variant =
      variant == "blocked" ? AdmmVariant::kBlocked : AdmmVariant::kBaseline;

  const std::string fmt = opts.get_string("format", "dense");
  if (fmt == "csr") {
    config.leaf_format = LeafFormat::kCsr;
  } else if (fmt == "csr-h") {
    config.leaf_format = LeafFormat::kHybrid;
  } else {
    require(fmt == "dense", "--format must be dense|csr|csr-h");
  }

  const ConstraintSpec constraint = parse_cli_constraint(opts);
  const std::string objective = opts.get_string("objective", "ls");
  require(objective == "ls" || objective == "observed",
          "--objective must be ls|observed");
  const LossSpec loss = parse_loss_spec(opts.get_string(
      "loss", objective == "observed" ? "frobenius:masked" : "frobenius"));
  require(objective == "ls" || (loss.kind == LossKind::kFrobenius &&
                                loss.masked),
          "--objective observed means --loss frobenius:masked; pass "
          "one or the other");
  const bool generalized_loss =
      loss.kind != LossKind::kFrobenius || loss.masked;

  if (opts.has("adaptive-rho") || opts.has("adaptive-ratio") ||
      opts.has("adaptive-rescale")) {
    config.admm.adaptive.enabled = true;
    config.admm.adaptive.ratio =
        static_cast<real_t>(opts.get_double("adaptive-ratio", 10.0));
    config.admm.adaptive.rescale =
        static_cast<real_t>(opts.get_double("adaptive-rescale", 2.0));
  }

  if (opts.has("robust") || opts.has("max-recoveries")) {
    config.admm.robustness.enabled = true;
    config.admm.robustness.max_recoveries =
        int_flag<unsigned>(opts, "max-recoveries", 3, 0);
  }

  config.with_constraints(ModeConstraints::broadcast(constraint));
  config.with_loss(loss);
  if (sharded) {
    config.with_shards(shard_opts);
  }
  if (const auto ck_path = opts.get("checkpoint")) {
    config.with_checkpoint(
        *ck_path, int_flag<unsigned>(opts, "checkpoint-every", 10, 0));
  }

  const auto resume_path = opts.get("resume");
  const auto couple_path = opts.get("couple");
  if (couple_path) {
    require(!resume_path && !opts.has("checkpoint"),
            "--couple does not support checkpoint/resume");
    require(!sharded, "--couple does not support --shards/--spill-dir");
  }

  // Every flag above is checked before the tensor is read: a bad value
  // fails fast, before the load and the CSF compile.
  const CooTensor x = load_any(opts.positional()[1], opts.has("wide-indices"));

  // Surface configuration problems as CLI diagnostics, each naming the flag
  // it concerns, before the CSF compile or any other work. Errors abort
  // with exit code 2.
  const ValidationReport report = config.validate(x.order());
  for (const ValidationIssue& issue : report.issues) {
    std::fprintf(stderr, "tensor_tool: %s: %s: %s\n",
                 to_string(issue.severity), cli_flag_for(issue.field).c_str(),
                 issue.message.c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr,
                 "tensor_tool: %zu configuration error(s); fix the flags "
                 "above and retry\n",
                 report.error_count());
    return 2;
  }

  std::optional<CsfSet> csf;
  if (sharded) {
    std::printf("loaded %llu non-zeros; sharding %s%s...\n",
                static_cast<unsigned long long>(x.nnz()),
                shard_opts.grid.empty() ? "1 cell"
                                        : grid_to_string(shard_opts.grid).c_str(),
                shard_opts.out_of_core() ? " (out-of-core)" : "");
  } else {
    std::printf("loaded %llu non-zeros; compiling CSF (%s)...\n",
                static_cast<unsigned long long>(x.nnz()), to_string(strategy));
    csf.emplace(x, strategy);
  }

  const bool progress = opts.has("progress");
  const auto metrics_path = opts.get("metrics-json");
  const auto chrome_path = opts.get("chrome-trace");
  // --event-log: structured lifecycle journal (recoveries, checkpoints)
  // for this solve. Installed process-globally for the command's lifetime.
  std::unique_ptr<obs::EventJournal> journal;
  if (const auto event_log = opts.get("event-log")) {
    journal = std::make_unique<obs::EventJournal>(*event_log);
    obs::EventJournal::install_global(journal.get());
  }
  if (chrome_path) {
    if (!obs::profiling_compiled()) {
      std::printf("note: spans not compiled in (build with "
                  "-DAOADMM_ENABLE_PROFILING=ON); %s will be empty\n",
                  chrome_path->c_str());
    }
    obs::profiling_start();
  }

  // Accumulates per-iteration snapshots as JSON while the solver runs.
  std::ostringstream iter_json;
  bool first_snapshot = true;
  if (progress || metrics_path) {
    config.on_iteration = [&](const obs::MetricsSnapshot& s) {
      if (progress) {
        double mttkrp = 0;
        for (const double sec : s.mode_mttkrp_seconds) {
          mttkrp += sec;
        }
        std::printf("iter %3u  err %.6f  %6.3fs  mttkrp %.3fs  admm %.3fs  "
                    "inner %llu  imbalance %.2f\n",
                    s.outer_iteration, static_cast<double>(s.relative_error),
                    s.seconds, mttkrp, s.admm_seconds,
                    static_cast<unsigned long long>(s.admm_inner_iterations),
                    s.thread_imbalance);
        std::fflush(stdout);
      }
      if (metrics_path) {
        iter_json << (first_snapshot ? "\n    " : ",\n    ");
        s.write_json(iter_json);
        first_snapshot = false;
      }
    };
  }

  const auto export_observability = [&] {
    if (metrics_path) {
      std::ofstream out(*metrics_path);
      require(static_cast<bool>(out),
              "cannot write metrics to " + *metrics_path);
      out << "{\n  \"iterations\": [" << iter_json.str()
          << (first_snapshot ? "]" : "\n  ]") << ",\n  \"registry\": ";
      obs::MetricsRegistry::global().write_json(out);
      out << "\n}\n";
      std::printf("metrics written to %s\n", metrics_path->c_str());
    }
    if (chrome_path) {
      obs::profiling_stop();
      std::ofstream out(*chrome_path);
      require(static_cast<bool>(out), "cannot write trace to " + *chrome_path);
      obs::write_chrome_trace(out);
      std::printf("chrome trace written to %s (open in chrome://tracing)\n",
                  chrome_path->c_str());
    }
  };

  if (resume_path) {
    std::printf("resuming from %s\n", resume_path->c_str());
  }
  CpdResult r;
  // --couple: joint matrix-tensor factorization sharing the --couple-mode
  // factor with the side matrix.
  std::optional<CoupledResult> coupled;
  ExchangeStats exchange{};
  TileResidency::Stats residency{};
  std::size_t shard_count = 1;
  if (couple_path) {
    CoupledMatrix cm;
    cm.y = read_matrix_file(*couple_path);
    cm.mode = int_flag<std::size_t>(opts, "couple-mode", 0, 0, x.order() - 1);
    cm.weight = static_cast<real_t>(opts.get_double("couple-weight", 1.0));
    cm.w_constraint =
        parse_constraint_spec(opts.get_string("couple-constraint", "none"));
    std::printf("coupling %zux%zu side matrix to mode %zu (weight %g)\n",
                cm.y.rows(), cm.y.cols(), cm.mode,
                static_cast<double>(cm.weight));
    coupled = coupled_factorize(*csf, config, {cm});
    r = coupled->cpd;
  } else if (sharded) {
    ShardedCpdSolver solver(x, config);
    shard_count = solver.plan().shard_count();
    std::printf("shard plan: %zu shard(s), %s grid, signature %016llx\n",
                shard_count, grid_to_string(solver.plan().grid).c_str(),
                static_cast<unsigned long long>(solver.plan().signature));
    r = resume_path ? solver.resume(*resume_path) : solver.solve();
    exchange = solver.exchange_stats();
    residency = solver.residency_stats();
  } else {
    CpdSolver solver(*csf, config);
    r = resume_path ? solver.resume(*resume_path) : solver.solve();
  }

  std::printf("\nvariant         : %s / %s leaf\n", to_string(config.variant),
              to_string(config.leaf_format));
  std::printf("mttkrp          : kernel %s, %s\n", to_string(kernel),
              mttkrp_isa_flavor());
  if (sharded) {
    std::printf("shards          : %zu  exchange %llu msgs / %.2f MiB%s\n",
                shard_count,
                static_cast<unsigned long long>(exchange.messages),
                static_cast<double>(exchange.bytes) / (1 << 20),
                shard_opts.out_of_core() ? "  (out-of-core)" : "");
    if (shard_opts.out_of_core()) {
      std::printf("tile cache      : %llu loads / %llu hits / %llu "
                  "evictions, %.2f MiB resident\n",
                  static_cast<unsigned long long>(residency.loads),
                  static_cast<unsigned long long>(residency.hits),
                  static_cast<unsigned long long>(residency.evictions),
                  static_cast<double>(residency.resident_bytes) / (1 << 20));
    }
  }
  if (generalized_loss) {
    std::printf("loss            : %s\n", to_cli_string(config.loss).c_str());
  }
  std::printf("outer iterations: %u (%s)\n", r.outer_iterations,
              r.converged ? "converged" : "iteration cap");
  std::printf("relative error  : %.6f%s\n",
              static_cast<double>(r.relative_error),
              generalized_loss ? "  (over observed entries)" : "");
  if (generalized_loss) {
    std::printf("loss objective  : %.6e\n", r.objective_value);
  }
  if (coupled) {
    for (std::size_t c = 0; c < coupled->matrix_relative_error.size(); ++c) {
      std::printf("matrix %zu error  : %.6f\n", c,
                  static_cast<double>(coupled->matrix_relative_error[c]));
    }
    std::printf("combined error  : %.6f  (the trace's measure)\n",
                static_cast<double>(coupled->combined_relative_error));
  }
  std::printf("time            : %.3f s  (MTTKRP %.0f%% / ADMM %.0f%% / "
              "other %.0f%%)\n",
              r.times.total_seconds, 100.0 * r.times.mttkrp_fraction(),
              100.0 * r.times.admm_fraction(),
              100.0 * r.times.other_fraction());
  for (std::size_t m = 0; m < r.factor_density.size(); ++m) {
    std::printf("factor %zu density: %.1f%%\n", m,
                100.0 * static_cast<double>(r.factor_density[m]));
  }
  if (!r.recovery.empty()) {
    std::printf("recoveries      : %s\n", r.recovery.summary().c_str());
    std::printf("%s", r.recovery.to_string().c_str());
  }

  if (const auto prefix = opts.get("save-factors")) {
    write_factors(r.factors, *prefix);
    std::printf("factors written to %s.mode*.mat\n", prefix->c_str());
    for (std::size_t c = 0; coupled && c < coupled->side_factors.size(); ++c) {
      const std::string path = *prefix + ".side" + std::to_string(c) + ".mat";
      write_matrix_file(coupled->side_factors[c], path);
      std::printf("side factor written to %s\n", path.c_str());
    }
  }

  // The trace as CSV, or as the fig-6-style JSON when the path ends in .json.
  if (const auto trace_path = opts.get("trace")) {
    std::ofstream out(*trace_path);
    require(static_cast<bool>(out), "cannot write trace to " + *trace_path);
    if (has_suffix(*trace_path, ".json")) {
      r.trace.write_json(out);
    } else {
      r.trace.write_csv(out);
    }
    std::printf("trace written to %s\n", trace_path->c_str());
  }
  export_observability();
  return 0;
}

int cmd_stream_replay(const Options& opts, const std::string& input) {
  apply_threads_flag(opts);
  const CooTensor events = load_any(input);

  ReplayConfig cfg;
  cfg.batches = int_flag<std::size_t>(opts, "batches", 8, 0);
  cfg.stream.time_mode = int_flag<std::size_t>(
      opts, "time-mode", events.order() - 1, 0, events.order() - 1);
  cfg.stream.window = int_flag<index_t>(opts, "window", 0, 0);
  cfg.stream.churn_threshold = opts.get_double("churn", 0.25);
  cfg.queries_per_refresh = int_flag<std::size_t>(opts, "queries", 100, 0);
  cfg.query_seed = int_flag<std::uint64_t>(opts, "seed", 123, 0);

  // Telemetry plane: live endpoint, file mode, event journal.
  if (opts.has("telemetry-port")) {
    cfg.telemetry.port = int_flag<int>(opts, "telemetry-port", 0, 0, 65535);
    // Announce the bound port on stdout so a scraper driving this process
    // (CI) can discover an ephemeral binding.
    cfg.telemetry.on_ready = [](std::uint16_t port) {
      std::printf("telemetry: listening on 127.0.0.1:%u\n",
                  static_cast<unsigned>(port));
      std::fflush(stdout);
    };
  }
  cfg.telemetry.file = opts.get_string("telemetry-file", "");
  cfg.telemetry.file_period_seconds = opts.get_double("telemetry-period", 1.0);
  cfg.telemetry.event_log = opts.get_string("event-log", "");
  cfg.telemetry.serve_seconds = opts.get_double("serve-seconds", 0.0);
  cfg.telemetry.stale_after_seconds = opts.get_double("stale-after", 0.0);
  cfg.telemetry.slo_query_p99_seconds = opts.get_double("slo-p99", 0.0);

  // Fault-tolerance plane: WAL, quarantine, supervised refresh.
  cfg.fault.wal_prefix = opts.get_string("wal", "");
  const std::string fsync = opts.get_string("wal-fsync", "never");
  if (fsync == "never") {
    cfg.fault.wal.fsync = WalFsync::kNever;
  } else if (fsync == "batch") {
    cfg.fault.wal.fsync = WalFsync::kEveryBatch;
  } else {
    cfg.fault.wal.fsync = WalFsync::kEveryN;
    cfg.fault.wal.fsync_every_n = parse_int<std::uint64_t>(
        fsync, "--wal-fsync (never, batch or a count)", 1);
  }
  cfg.fault.wal.segment_max_bytes = int_flag<std::uint64_t>(
      opts, "wal-segment-bytes", cfg.fault.wal.segment_max_bytes, 0);
  cfg.fault.wal.checkpoint_every_batches =
      int_flag<std::uint64_t>(opts, "wal-checkpoint-every", 0, 0);
  cfg.fault.quarantine_path = opts.get_string("quarantine", "");
  cfg.fault.quarantine_max_records =
      int_flag<std::uint64_t>(opts, "quarantine-max", 1024, 0);
  cfg.fault.supervisor.breaker_threshold =
      int_flag<unsigned>(opts, "breaker-threshold", 3, 0);
  cfg.fault.supervisor.breaker_cooldown_seconds =
      opts.get_double("breaker-cooldown", 5.0);
  cfg.fault.supervisor.backoff_initial_seconds =
      opts.get_double("backoff-initial", 0.5);
  cfg.fault.supervisor.backoff_max_seconds =
      opts.get_double("backoff-max", 30.0);
  cfg.fault.supervisor.refresh_deadline_seconds =
      opts.get_double("refresh-deadline", 0.0);

  cfg.cpd.with_rank(int_flag<rank_t>(opts, "rank", 16, 1))
      .with_max_outer(int_flag<unsigned>(opts, "max-outer", 50, 0))
      .with_tolerance(static_cast<real_t>(opts.get_double("tol", 1e-5)))
      .with_seed(int_flag<std::uint64_t>(opts, "seed", 123, 0))
      .with_constraints(ModeConstraints::broadcast(parse_cli_constraint(opts)));

  std::printf("replaying %llu events in up to %zu batches (time mode %zu%s, "
              "%zu queries/refresh)...\n",
              static_cast<unsigned long long>(events.nnz()), cfg.batches,
              cfg.stream.time_mode,
              cfg.stream.window > 0 ? ", windowed" : "",
              cfg.queries_per_refresh);

  const ReplayResult r = replay_stream(events, cfg);

  for (const RefreshReport& ref : r.refreshes) {
    std::printf("refresh %3llu  %s  outer %3u  err %.6f  grown %zu  "
                "compile %.3fs  solve %.3fs  epoch %llu  [%s]\n",
                static_cast<unsigned long long>(ref.refresh),
                ref.warm ? "warm" : "cold", ref.outer_iterations,
                static_cast<double>(ref.relative_error), ref.grown_rows,
                ref.compile_seconds, ref.solve_seconds,
                static_cast<unsigned long long>(ref.epoch),
                obs::to_string(ref.trace).c_str());
  }
  std::printf("\ningest : %llu appended, %llu overwritten, %llu evicted, "
              "%llu late-dropped\n",
              static_cast<unsigned long long>(r.ingest.appended),
              static_cast<unsigned long long>(r.ingest.overwritten),
              static_cast<unsigned long long>(r.ingest.evicted),
              static_cast<unsigned long long>(r.ingest.late_dropped));
  std::printf("compile: %llu full rebuilds, %llu value patches, %llu cached\n",
              static_cast<unsigned long long>(r.ingest.full_rebuilds),
              static_cast<unsigned long long>(r.ingest.value_patches),
              static_cast<unsigned long long>(r.ingest.cached_compiles));
  std::printf("serve  : %llu snapshots published, %llu queries\n",
              static_cast<unsigned long long>(r.final_epoch),
              static_cast<unsigned long long>(r.queries));
  std::printf("total  : %.3f s, final nnz %llu\n", r.total_seconds,
              static_cast<unsigned long long>(r.final_nnz));
  if (!cfg.fault.wal_prefix.empty()) {
    std::printf("wal: recovered %llu batches (checkpoint %s, %llu skipped%s), "
                "last seq %llu\n",
                static_cast<unsigned long long>(r.wal.records_recovered),
                r.wal.checkpoint_loaded ? "yes" : "no",
                static_cast<unsigned long long>(r.wal.records_skipped),
                r.wal.torn_tail ? ", torn tail" : "",
                static_cast<unsigned long long>(r.wal.last_seq));
  }
  std::printf("state digest : %016llx\n",
              static_cast<unsigned long long>(r.state_digest));
  if (r.refresh_failures > 0 || r.refresh_skipped > 0 || r.quarantined > 0 ||
      r.breaker != BreakerState::kClosed) {
    std::printf("supervisor : %llu refresh failures (first: %s), "
                "%llu skipped, %llu quarantined, breaker %s\n",
                static_cast<unsigned long long>(r.refresh_failures),
                r.first_refresh_error.empty() ? "-"
                                              : r.first_refresh_error.c_str(),
                static_cast<unsigned long long>(r.refresh_skipped),
                static_cast<unsigned long long>(r.quarantined),
                to_string(r.breaker));
  }
  if (!cfg.telemetry.event_log.empty()) {
    std::printf("journal: %llu events written to %s\n",
                static_cast<unsigned long long>(r.journal_events),
                cfg.telemetry.event_log.c_str());
  }
  if (!cfg.telemetry.file.empty()) {
    std::printf("telemetry file: %s (+.health)\n",
                cfg.telemetry.file.c_str());
  }

  if (const auto metrics_path = opts.get("metrics-json")) {
    std::ofstream out(*metrics_path);
    require(static_cast<bool>(out), "cannot write metrics to " + *metrics_path);
    out << "{\n  \"refreshes\": [";
    for (std::size_t i = 0; i < r.refreshes.size(); ++i) {
      const RefreshReport& ref = r.refreshes[i];
      out << (i == 0 ? "\n    " : ",\n    ") << "{\"refresh\": " << ref.refresh
          << ", \"warm\": " << (ref.warm ? "true" : "false")
          << ", \"grown_rows\": " << ref.grown_rows
          << ", \"outer_iterations\": " << ref.outer_iterations
          << ", \"relative_error\": " << ref.relative_error
          << ", \"converged\": " << (ref.converged ? "true" : "false")
          << ", \"compile_seconds\": " << ref.compile_seconds
          << ", \"solve_seconds\": " << ref.solve_seconds
          << ", \"epoch\": " << ref.epoch << ", ";
      obs::write_trace_json_fields(out, ref.trace);
      out << "}";
    }
    out << (r.refreshes.empty() ? "]" : "\n  ]") << ",\n  \"registry\": ";
    obs::MetricsRegistry::global().write_json(out);
    out << "\n}\n";
    std::printf("metrics written to %s\n", metrics_path->c_str());
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: tensor_tool <generate|stats|convert|cpd|stream-replay>"
               " [args]\n"
               "see the header comment of examples/tensor_tool.cpp\n");
}

/// Run the command `opts` names; returns its exit code.
int run_command(const Options& opts) {
  // Flag spelling: `tensor_tool --stream-replay t.tns [...]` (the flag
  // consumes the input path as its value).
  if (opts.has("stream-replay")) {
    return cmd_stream_replay(opts, opts.get_string("stream-replay", ""));
  }
  if (opts.positional().empty()) {
    usage();
    return 2;
  }
  const std::string& cmd = opts.positional()[0];
  if (cmd == "generate") {
    return cmd_generate(opts);
  }
  if (cmd == "stats") {
    return cmd_stats(opts);
  }
  if (cmd == "convert") {
    return cmd_convert(opts);
  }
  if (cmd == "cpd") {
    return cmd_cpd(opts);
  }
  if (cmd == "stream-replay") {
    require(opts.positional().size() >= 2,
            "usage: tensor_tool stream-replay <file> [options]");
    return cmd_stream_replay(opts, opts.positional()[1]);
  }
  usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Default to chatty; AOADMM_LOG_LEVEL (already applied at startup) wins.
  if (std::getenv("AOADMM_LOG_LEVEL") == nullptr) {
    set_log_level(LogLevel::kInfo);
  }
  try {
    if (testing::arm_faults_from_env()) {
      std::fprintf(stderr,
                   "tensor_tool: AOADMM_FAULT_* set — fault injection is "
                   "armed\n");
    }
    const Options opts(argc, argv);
    const int rc = run_command(opts);
    // A misspelt or unsupported flag would otherwise be dropped silently.
    for (const std::string& name : opts.unused()) {
      std::fprintf(stderr,
                   "tensor_tool: warning: --%s is not used by this command "
                   "and was ignored\n",
                   name.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    // aoadmm::Error and the standard library's own (bad_alloc on a tensor
    // too large for memory, say) alike.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
