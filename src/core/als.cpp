#include <limits>

#include "core/cpd_impl.hpp"
#include "core/outer_loop.hpp"
#include "core/solver.hpp"
#include "la/cholesky.hpp"
#include "obs/profile.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

/// ALS as a step of the shared outer loop: the local step's MTTKRP, Grams
/// and fit, with the unconstrained least-squares solve in place of ADMM
/// (§II.C: "when no constraints are enforced, AO becomes ALS").
class AlsStep final : public detail::LocalStep {
 public:
  AlsStep(const CsfSet& csf, const CpdConfig& config, MttkrpKernel kernel,
          real_t ridge, detail::SolverState& state)
      : LocalStep(csf, config, kernel, csf.norm_sq(), state), ridge_(ridge) {}

  void begin_run() override {
    {
      AOADMM_PROFILE_SCOPE("cpd/init");
      Rng rng(config_.seed);
      detail::init_factors_into(csf_, config_.rank, rng, x_norm_sq_,
                                state_.factors);
    }
    LocalStep::begin_run();
  }

  detail::ModeSystem produce_k(unsigned outer, std::size_t m,
                               bool retry) override {
    const detail::ModeSystem sys = LocalStep::produce_k(outer, m, retry);
    if (!retry) {
      // A touch of ridge keeps the normal equations positive definite even
      // when a factor momentarily loses rank.
      Matrix& g = state_.ws.gram_prod;
      const real_t eps = ridge_ + real_t{1e-12};
      for (std::size_t i = 0; i < g.rows(); ++i) {
        g(i, i) += eps;
      }
    }
    return sys;
  }

  detail::ModeUpdateStats update(unsigned outer, std::size_t m,
                                 CpdResult& result) override {
    // Unlike the ADMM path, whose ρ = tr(G)/F ridge keeps the system
    // well-conditioned, ALS adds only a tiny fixed ridge — on badly scaled
    // rank-deficient data roundoff can swamp it and the plain Cholesky
    // throws. The guarded variant escalates instead. The solve runs in
    // place on the factor, so K stays intact for the fit.
    AOADMM_PROFILE_SCOPE("cpd/solve");
    Matrix& a = state_.factors[m];
    a = state_.ws.mttkrp_out;
    const RobustnessOptions& rb = config_.admm.robustness;
    if (rb.enabled) {
      const CholeskyReport cr = solve_normal_equations_guarded(
          state_.ws.gram_prod, a,
          {rb.cholesky_max_attempts, rb.cholesky_initial_jitter,
           rb.cholesky_jitter_growth});
      if (cr.attempts > 0) {
        result.recovery.add({RecoveryKind::kCholeskyJitter, outer, m,
                             cr.attempts, static_cast<double>(cr.jitter),
                             std::string(), {}});
      }
    } else {
      solve_normal_equations(state_.ws.gram_prod, a);
    }
    return {};
  }

 private:
  const real_t ridge_;
};

}  // namespace

CpdResult cpd_als(const CsfSet& csf, const CpdConfig& config, real_t ridge) {
  AOADMM_PROFILE_SCOPE("cpd/als");
  const std::size_t order = csf.order();
  AOADMM_CHECK(order >= 2);
  AOADMM_CHECK(ridge >= 0);
  // ALS always reads dense leaf factors.
  CpdConfig als_config = config;
  als_config.leaf_format = LeafFormat::kDense;
  detail::check_frobenius_config(als_config, order, "cpd_als");
  const MttkrpKernel kernel = detail::resolve_kernel(
      csf, als_config.mttkrp_kernel, LeafFormat::kDense, als_config.rank);

  static const detail::LoopMetrics metrics =
      detail::LoopMetrics::family("als");
  detail::SolverState state(order);
  AlsStep step(csf, als_config, kernel, ridge, state);
  return detail::OuterLoop(als_config, metrics)
      .run(step, 1, std::numeric_limits<double>::infinity(), CpdResult{});
}

}  // namespace aoadmm
