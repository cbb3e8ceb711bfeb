#include "core/config.hpp"

#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace aoadmm {

ModeConstraints ModeConstraints::per_mode(std::vector<ConstraintSpec> specs) {
  if (specs.empty()) {
    throw InvalidArgument(
        "ModeConstraints::per_mode: need at least one spec (use broadcast() "
        "for a single constraint applied to all modes)");
  }
  ModeConstraints c;
  c.specs_ = std::move(specs);
  return c;
}

void ModeConstraints::check_order(std::size_t order) const {
  if (!broadcasts() && specs_.size() != order) {
    std::ostringstream os;
    os << "ModeConstraints holds " << specs_.size()
       << " per-mode specs but the tensor has " << order
       << " modes; give one spec per mode or a single broadcast spec";
    throw InvalidArgument(os.str());
  }
}

const char* to_string(ValidationIssue::Severity s) noexcept {
  switch (s) {
    case ValidationIssue::Severity::kError:
      return "error";
    case ValidationIssue::Severity::kWarning:
      return "warning";
  }
  return "?";
}

bool ValidationReport::ok() const noexcept { return error_count() == 0; }

std::size_t ValidationReport::error_count() const noexcept {
  std::size_t n = 0;
  for (const ValidationIssue& i : issues) {
    n += i.severity == ValidationIssue::Severity::kError ? 1 : 0;
  }
  return n;
}

std::size_t ValidationReport::warning_count() const noexcept {
  return issues.size() - error_count();
}

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const ValidationIssue& i : issues) {
    os << aoadmm::to_string(i.severity) << " " << i.field << ": " << i.message
       << "\n";
  }
  return os.str();
}

namespace {

void check_constraint_spec(const ConstraintSpec& spec, const std::string& field,
                           ValidationReport& report) {
  using Severity = ValidationIssue::Severity;
  const auto add = [&](Severity sev, std::string msg) {
    report.issues.push_back({sev, field, std::move(msg)});
  };
  switch (spec.kind) {
    case ConstraintKind::kL1:
    case ConstraintKind::kNonNegativeL1:
    case ConstraintKind::kRidge:
      if (spec.lambda < 0) {
        add(Severity::kError, "regularization strength lambda must be >= 0");
      } else if (spec.lambda == 0) {
        add(Severity::kWarning,
            "lambda is 0, so this regularizer is a no-op; use kind=none (or "
            "nonneg for nnl1) to make that explicit");
      }
      break;
    case ConstraintKind::kBox:
      if (spec.lo > spec.hi) {
        add(Severity::kError,
            "box bounds are inverted (lo > hi); swap them or widen the box");
      }
      break;
    case ConstraintKind::kL2Ball:
      if (spec.hi <= 0) {
        add(Severity::kError,
            "l2ball radius (hi) must be positive; every factor row would "
            "collapse to zero");
      }
      break;
    default:
      break;
  }
}

bool induces_factor_sparsity(ConstraintKind kind) {
  switch (kind) {
    case ConstraintKind::kNonNegative:
    case ConstraintKind::kL1:
    case ConstraintKind::kNonNegativeL1:
    case ConstraintKind::kBox:  // lo = 0 clamps to exact zeros
      return true;
    default:
      return false;
  }
}

}  // namespace

ValidationReport CpdConfig::validate(std::size_t order) const {
  using Severity = ValidationIssue::Severity;
  ValidationReport report;
  const auto add = [&](Severity sev, const char* field, std::string msg) {
    report.issues.push_back({sev, field, std::move(msg)});
  };

  if (rank == 0) {
    add(Severity::kError, "rank", "rank must be positive");
  } else if (rank > 2048) {
    add(Severity::kWarning, "rank",
        "rank > 2048: each MTTKRP output and ADMM scratch holds rank doubles "
        "per row; expect heavy memory use and slow F x F Cholesky solves");
  }

  if (max_outer_iterations == 0) {
    add(Severity::kError, "max_outer_iterations",
        "max_outer_iterations must be positive");
  }
  if (tolerance < 0) {
    add(Severity::kError, "tolerance",
        "tolerance must be >= 0 (it bounds the per-iteration error "
        "improvement)");
  } else if (tolerance == 0) {
    add(Severity::kWarning, "tolerance",
        "tolerance 0 never converges early; the solver always runs all "
        "max_outer_iterations");
  }

  if (admm.max_iterations == 0) {
    add(Severity::kError, "admm.max_iterations",
        "admm.max_iterations must be positive");
  }
  if (!(admm.tolerance > 0)) {
    add(Severity::kError, "admm.tolerance",
        "admm.tolerance must be positive (the inner loop would never stop "
        "before its iteration cap)");
  }
  if (!(admm.relaxation > 0 && admm.relaxation < 2)) {
    add(Severity::kError, "admm.relaxation",
        "admm.relaxation must lie in (0, 2); 1.0 disables over-relaxation");
  }
  if (admm.block_size > 0 && admm.block_size < 4) {
    add(Severity::kWarning, "admm.block_size",
        "block sizes below 4 rows pay per-block overhead on every inner "
        "iteration; the paper found ~50 optimal, 0 selects the analytical "
        "model");
  }
  if (admm.block_size > 65536) {
    add(Severity::kWarning, "admm.block_size",
        "very large blocks forfeit the cache residency and per-block "
        "convergence the blocked variant exists for; prefer <= 512");
  }

  const RobustnessOptions& rb = admm.robustness;
  if (rb.enabled) {
    if (rb.cholesky_max_attempts == 0) {
      add(Severity::kError, "robustness.cholesky_max_attempts",
          "guarded Cholesky needs at least one jitter attempt");
    }
    if (!(rb.cholesky_initial_jitter > 0)) {
      add(Severity::kError, "robustness.cholesky_initial_jitter",
          "initial jitter must be positive (it seeds the diagonal ridge "
          "escalation)");
    }
    if (!(rb.cholesky_jitter_growth > 1)) {
      add(Severity::kError, "robustness.cholesky_jitter_growth",
          "jitter growth must exceed 1 or the escalation never escalates");
    }
    if (!(rb.divergence_factor > 1)) {
      add(Severity::kError, "robustness.divergence_factor",
          "divergence_factor must exceed 1 (residual growth past this factor "
          "triggers a restart; <= 1 would flag ordinary wobble)");
    }
    if (!(rb.rho_rescale > 1)) {
      add(Severity::kError, "robustness.rho_rescale",
          "rho_rescale must exceed 1 so each restart strengthens the "
          "penalty");
    }
    if (rb.max_recoveries == 0) {
      add(Severity::kWarning, "robustness.max_recoveries",
          "max_recoveries is 0: divergence is detected but never retried; "
          "the solve is abandoned on the first blow-up");
    }
  }

  const AdaptiveRhoOptions& ad = admm.adaptive;
  if (ad.enabled) {
    if (!(ad.ratio > 1)) {
      add(Severity::kError, "admm.adaptive.ratio",
          "adaptive.ratio must exceed 1 (a rebalance fires when one residual "
          "exceeds ratio times the other; <= 1 would rescale every check)");
    }
    if (!(ad.rescale > 1)) {
      add(Severity::kError, "admm.adaptive.rescale",
          "adaptive.rescale must exceed 1 so a rebalance actually moves rho");
    }
  }

  // --- Loss / data-fidelity term ---
  const bool generalized_loss =
      loss.kind != LossKind::kFrobenius || loss.masked;
  if (loss.kind == LossKind::kHuber && !(loss.huber_delta > 0)) {
    add(Severity::kError, "loss.huber_delta",
        "huber delta must be positive (it is the width of the quadratic "
        "region; at 0 use loss=l1 instead)");
  }
  if (generalized_loss && leaf_format != LeafFormat::kDense) {
    add(Severity::kError, "loss",
        std::string("loss ") + to_cli_string(loss) +
            " takes the generalized per-row split solve, which walks the CSF "
            "tree directly and supports only leaf_format=dense");
  }
  if (generalized_loss && (mttkrp_kernel == MttkrpKernel::kDimTree ||
                           mttkrp_kernel == MttkrpKernel::kAlto)) {
    add(Severity::kError, "loss",
        std::string("loss ") + to_cli_string(loss) +
            " takes the generalized per-row split solve, which needs "
            "mode-rooted trees (CsfStrategy::kAllMode); the " +
            to_string(mttkrp_kernel) +
            " kernel caches intermediates over a single shared tree and "
            "cannot serve it — use mttkrp_kernel=auto or allmode");
  }
  if (loss.kind == LossKind::kKL) {
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      const ConstraintKind k = constraints.specs()[i].kind;
      const bool sign_safe =
          k == ConstraintKind::kNonNegative ||
          k == ConstraintKind::kNonNegativeL1 ||
          k == ConstraintKind::kSimplex ||
          (k == ConstraintKind::kBox && constraints.specs()[i].lo >= 0);
      if (!sign_safe) {
        std::ostringstream field;
        field << "constraints[" << i << "]";
        add(Severity::kWarning, field.str().c_str(),
            std::string("KL loss assumes a nonnegative model, but constraint "
                        "'") +
                to_cli_string(constraints.specs()[i]) +
                "' permits negative factor entries; the model estimate is "
                "floored at a tiny positive value, which can stall "
                "convergence — prefer nonneg/simplex/nnl1 constraints");
      }
    }
  }

  if (!(sparsity_threshold >= 0 && sparsity_threshold <= 1)) {
    add(Severity::kError, "sparsity_threshold",
        "sparsity_threshold is a density fraction and must lie in [0, 1]");
  }

  // Cross-field: a sparse leaf format only ever pays off when some
  // constraint can produce exact zeros in a factor.
  if (leaf_format != LeafFormat::kDense) {
    bool any_sparsity = false;
    for (const ConstraintSpec& spec : constraints.specs()) {
      any_sparsity = any_sparsity || induces_factor_sparsity(spec.kind);
    }
    if (!any_sparsity) {
      add(Severity::kWarning, "leaf_format",
          std::string("leaf format ") + to_string(leaf_format) +
              " requested, but no configured constraint can produce factor "
              "sparsity; the dense kernel will be used every iteration and "
              "the density measurement is pure overhead");
    }
  }

  // The cached-intermediate kernels read the raw factors every refresh, so
  // a compressed leaf mirror can never be consulted: reject rather than
  // silently ignore the leaf_format request.
  if ((mttkrp_kernel == MttkrpKernel::kDimTree ||
       mttkrp_kernel == MttkrpKernel::kAlto) &&
      leaf_format != LeafFormat::kDense) {
    add(Severity::kError, "mttkrp_kernel",
        std::string("the ") + to_string(mttkrp_kernel) +
            " MTTKRP kernel supports only the DENSE leaf format, but "
            "leaf_format is " +
            to_string(leaf_format));
  }

  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    add(Severity::kError, "checkpoint_path",
        "checkpoint_every is set but checkpoint_path is empty; give a file "
        "path to write checkpoints to");
  }
  if (!checkpoint_path.empty() && checkpoint_every == 0) {
    add(Severity::kWarning, "checkpoint_every",
        "checkpoint_path is set but checkpoint_every is 0; no checkpoints "
        "will be written");
  }

  // --- Sharded / out-of-core solve (dist/sharded_solver.hpp) ---
  if (shards.enabled()) {
    if (order > 0 && !shards.grid.empty() && shards.grid.size() != order) {
      std::ostringstream os;
      os << "shard grid has " << shards.grid.size()
         << " extents for an order-" << order
         << " tensor; give one extent per mode (e.g. --shards=2x2x1)";
      add(Severity::kError, "shards.grid", os.str());
    }
    for (std::size_t m = 0; m < shards.grid.size(); ++m) {
      if (shards.grid[m] == 0) {
        std::ostringstream os;
        os << "grid extent for mode " << m
           << " is 0; every extent must be >= 1";
        add(Severity::kError, "shards.grid", os.str());
      }
    }
    if (shards.shard_count() > 256) {
      add(Severity::kWarning, "shards.grid",
          "more than 256 shards: each shard is a worker thread plus a tile; "
          "per-shard overhead will dominate unless the tensor is enormous");
    }
    if (shards.max_resident_bytes > 0 && shards.spill_dir.empty()) {
      add(Severity::kError, "shards.max_resident_bytes",
          "a residency budget only applies to out-of-core mode; also set "
          "spill_dir (CLI: --spill-dir) or drop the budget");
    }
    const bool generalized =
        loss.kind != LossKind::kFrobenius || loss.masked;
    if (generalized) {
      add(Severity::kError, "shards",
          std::string("loss ") + to_cli_string(loss) +
              " takes the generalized per-row split solve, which the sharded "
              "coordinator does not run; use the unsharded solver or the "
              "Frobenius loss");
    }
    if (leaf_format != LeafFormat::kDense) {
      add(Severity::kError, "shards",
          "sharded solves keep whole factor blocks resident per shard and "
          "support only leaf_format=dense");
    }
    if (mttkrp_kernel != MttkrpKernel::kAuto &&
        mttkrp_kernel != MttkrpKernel::kOneTree) {
      add(Severity::kError, "mttkrp_kernel",
          std::string("sharded solves compile one tree per tile and serve "
                      "every mode from it (the one-tree kernels); "
                      "mttkrp_kernel=") +
              to_string(mttkrp_kernel) + " cannot run per shard — use auto "
              "or onetree");
    }
  }

  if (order > 0 && !constraints.broadcasts() &&
      constraints.size() != order) {
    std::ostringstream os;
    os << "got " << constraints.size() << " per-mode specs for an order-"
       << order << " tensor; give one per mode or a single broadcast spec";
    add(Severity::kError, "constraints", os.str());
  }
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    std::ostringstream field;
    field << "constraints[" << i << "]";
    check_constraint_spec(constraints.specs()[i], field.str(), report);
  }

  return report;
}

}  // namespace aoadmm
