#include "core/solver.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/cpd_impl.hpp"
#include "core/outer_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace aoadmm {
namespace {

/// Outer-loop registry handles the CpdSolver reports into; registered once
/// per process.
const detail::LoopMetrics& cpd_loop_metrics() {
  static const detail::LoopMetrics m = [] {
    auto& reg = obs::MetricsRegistry::global();
    detail::LoopMetrics out = detail::LoopMetrics::family("cpd");
    out.sparse_mttkrp_calls = reg.counter("cpd/sparse_mttkrp_calls");
    out.mttkrp_seconds = reg.counter("cpd/mttkrp_seconds");
    out.admm_seconds = reg.counter("cpd/admm_seconds");
    return out;
  }();
  return m;
}

}  // namespace

CpdSolver::CpdSolver(const CsfSet& csf, CpdConfig config)
    : csf_(csf),
      config_(std::move(config)),
      state_(csf.order()) {
  const std::size_t order = csf_.order();
  AOADMM_CHECK(order >= 2);

  validation_ = config_.validate(order);
  if (!validation_.ok()) {
    throw InvalidArgument("invalid CpdConfig:\n" + validation_.to_string());
  }
  state_.rng = Rng(config_.seed);
  state_.build_prox(config_.constraints);

  loss_ = make_loss(config_.loss);
  if (!loss_->quadratic()) {
    // The generalized path assembles per-row systems from mode-rooted
    // subtrees: validate() already rejects the config-side combinations
    // (the ALTO kernel, compressed leaves); the CsfSet itself is checked
    // here.
    if (csf_.strategy() != CsfStrategy::kAllMode) {
      throw InvalidArgument(
          std::string("loss ") + loss_->name() +
          " assembles per-row systems from mode-rooted trees; compile the "
          "tensor with CsfStrategy::kAllMode");
    }
    // Domain check (e.g. KL rejects negative data) — one pass, fail early
    // with the offending value instead of NaN-ing mid-solve.
    for (const real_t v : csf_.for_mode(0).vals()) {
      loss_->check_datum(v);
    }
  }

  // Kernel knob vs. the compilation actually handed in. validate() can only
  // see the config; the CsfSet is ground truth for what kernels can run.
  resolved_kernel_ = detail::resolve_kernel(csf_, config_.mttkrp_kernel,
                                            config_.leaf_format);
  x_norm_sq_ = csf_.norm_sq();
}

CpdResult CpdSolver::solve() {
  AOADMM_PROFILE_SCOPE("cpd/aoadmm");
  {
    AOADMM_PROFILE_SCOPE("cpd/init");
    state_.rng = Rng(config_.seed);
    detail::init_factors_into(csf_, config_.rank, state_.rng, x_norm_sq_,
                              state_.factors);
  }
  state_.zero_duals(csf_.dims(), config_.rank);
  return run(1, std::numeric_limits<real_t>::infinity(), CpdResult{});
}

CpdResult CpdSolver::solve_warm(const KruskalTensor& model) {
  AOADMM_PROFILE_SCOPE("cpd/aoadmm");
  const std::size_t order = csf_.order();
  const auto& dims = csf_.dims();
  if (model.order() != order) {
    throw InvalidArgument("warm start: model order " +
                          std::to_string(model.order()) +
                          " does not match tensor order " +
                          std::to_string(order));
  }
  if (model.rank() != config_.rank) {
    throw InvalidArgument("warm start: model rank " +
                          std::to_string(model.rank()) +
                          " does not match configured rank " +
                          std::to_string(config_.rank));
  }
  for (std::size_t m = 0; m < order; ++m) {
    if (model.factors()[m].rows() != dims[m]) {
      throw InvalidArgument("warm start: factor " + std::to_string(m) +
                            " has " +
                            std::to_string(model.factors()[m].rows()) +
                            " rows, tensor mode has " +
                            std::to_string(dims[m]));
    }
  }

  state_.factors = model.factors();
  // Fold the component weights into mode 0 so the seeded iterate represents
  // the same tensor the model does.
  Matrix& a0 = state_.factors[0];
  const std::vector<real_t>& lambda = model.lambda();
  for (std::size_t i = 0; i < a0.rows(); ++i) {
    real_t* __restrict row = a0.data() + i * a0.cols();
    for (std::size_t f = 0; f < a0.cols(); ++f) {
      row[f] *= lambda[f];
    }
  }

  // Keep the session's duals when a prior run left them behind — they
  // encode the constraint geometry near the warm iterate. A fresh session
  // starts them at zero like a cold solve.
  bool duals_usable = state_.duals.size() == order;
  for (std::size_t m = 0; duals_usable && m < order; ++m) {
    duals_usable = state_.duals[m].rows() == dims[m] &&
                   state_.duals[m].cols() == config_.rank;
  }
  if (!duals_usable) {
    state_.zero_duals(csf_.dims(), config_.rank);
  }
  return run(1, std::numeric_limits<real_t>::infinity(), CpdResult{});
}

CpdResult CpdSolver::resume(const std::string& checkpoint_path) {
  AOADMM_PROFILE_SCOPE("cpd/aoadmm");
  CpdCheckpoint ck = read_checkpoint_file(checkpoint_path);
  CpdResult result = detail::resume_into(ck, csf_.dims(), config_.rank, state_);
  return run(ck.outer_iteration + 1, ck.prev_error, std::move(result));
}

/// The generalized path for non-quadratic or masked losses: the per-row
/// two-split ADMM of core/loss_solve.hpp assembles each row's system inside
/// the update, and convergence is judged on the loss objective.
class CpdSolver::LossStep final : public detail::OuterLoopStep {
 public:
  explicit LossStep(CpdSolver& s) : s_(s), st_(s.state_) {
    if (!s.loss_->masked() && s.loss_->zero_fill_slope() != real_t{0}) {
      zero_fill_s_.resize(s.config_.rank);
      colsum_.resize(s.config_.rank);
    }
  }

  const detail::SolverState& state() const override { return st_; }

  void begin_run() override {
    // Fresh split state for every entry point: t/u_t warm-start only across
    // the outer iterations of this run, which keeps repeated solve() calls
    // on one session deterministic.
    s_.loss_ws_.reset(s_.csf_);

    // Rows with no observations carry no data signal: pin them at prox(0)
    // once so they cannot pollute the other modes' row systems.
    for (std::size_t m = 0; m < st_.factors.size(); ++m) {
      Matrix& a = st_.factors[m];
      std::vector<bool> observed(a.rows(), false);
      for (const index_t i : s_.csf_.for_mode(m).fids(0)) {
        observed[i] = true;
      }
      for (std::size_t i = 0; i < observed.size(); ++i) {
        if (!observed[i]) {
          auto row = a.row(i);
          std::fill(row.begin(), row.end(), real_t{0});
          st_.prox[m]->apply(a, i, i + 1, real_t{1});
        }
      }
    }
  }

  detail::ModeSystem produce_k(unsigned outer, std::size_t m,
                               bool retry) override {
    (void)outer;
    (void)retry;
    if (!zero_fill_s_.empty()) {
      // s[f] = Π_{n≠m} colsum_n[f]: the model mass a unit of h[f]
      // contributes across the whole slice, observed or not.
      const std::size_t f = zero_fill_s_.size();
      std::fill(zero_fill_s_.begin(), zero_fill_s_.end(), real_t{1});
      for (std::size_t n = 0; n < st_.factors.size(); ++n) {
        if (n == m) {
          continue;
        }
        const Matrix& a = st_.factors[n];
        std::fill(colsum_.begin(), colsum_.end(), real_t{0});
        for (std::size_t i = 0; i < a.rows(); ++i) {
          const real_t* row = a.data() + i * f;
          for (std::size_t col = 0; col < f; ++col) {
            colsum_[col] += row[col];
          }
        }
        for (std::size_t col = 0; col < f; ++col) {
          zero_fill_s_[col] *= colsum_[col];
        }
      }
    }
    // No K: the update assembles each row's system from the mode's tree.
    return {};
  }

  detail::ModeUpdateStats update(unsigned outer, std::size_t m,
                                 CpdResult& result) override {
    const LossUpdateResult lr = loss_mode_update(
        s_.csf_.for_mode(m), st_.factors, st_.duals[m], m, *s_.loss_,
        *st_.prox[m], s_.config_.admm,
        {zero_fill_s_.data(), zero_fill_s_.size()}, s_.loss_ws_.modes[m]);
    detail::record_inner_solve(lr, outer, m, result);
    // Row-system assembly is this path's MTTKRP: book it there.
    return {lr.iterations, lr.primal_residual, lr.dual_residual,
            lr.assemble_seconds};
  }

  detail::LoopFit fit(unsigned outer, CpdResult& result) override {
    const LossObjective lo = loss_objective(s_.csf_.for_mode(0), st_.factors,
                                            *s_.loss_, s_.x_norm_sq_);
    result.objective_value = lo.objective;
    result.relative_error = lo.observed_relative_error;
    result.objective_trace.push_back(lo.objective);
    AOADMM_LOG_DEBUG << "outer " << outer << " objective " << lo.objective
                     << " observed_relative_error "
                     << lo.observed_relative_error;
    // Converge on the objective's relative decrease: KL on counts can sit
    // in the thousands, far from the unit scale of a relative error.
    return {lo.observed_relative_error, lo.objective, true};
  }

  CpdSolver& s_;
  detail::SolverState& st_;
  // Unmasked losses with a zero-fill slope only (empty otherwise).
  std::vector<real_t> zero_fill_s_;
  std::vector<real_t> colsum_;
};

CpdResult CpdSolver::run(unsigned start_outer, real_t prev_error,
                         CpdResult result) {
  const detail::OuterLoop loop(config_, cpd_loop_metrics());
  if (loss_->quadratic()) {
    detail::LocalStep step(csf_, config_, resolved_kernel_, x_norm_sq_,
                           state_);
    return loop.run(step, start_outer, prev_error, std::move(result));
  }
  AOADMM_PROFILE_SCOPE("cpd/loss");
  LossStep step(*this);
  // prev_error tracked relative error; the objective gets a fresh baseline
  // on every entry.
  return loop.run(step, start_outer, std::numeric_limits<double>::infinity(),
                  std::move(result));
}

}  // namespace aoadmm
