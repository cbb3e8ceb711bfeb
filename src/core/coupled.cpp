#include "core/coupled.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "core/cpd_impl.hpp"
#include "core/outer_loop.hpp"
#include "la/blas.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

/// ‖Y − A Wᵀ‖_F² by direct evaluation (the side matrices are dense and
/// small next to the tensor).
double matrix_resid_sq(const Matrix& y, const Matrix& a, const Matrix& w) {
  const Matrix model = matmul(a, transpose(w));
  double resid = 0;
  const real_t* ym = y.data();
  const real_t* mm = model.data();
  const std::size_t n = y.rows() * y.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(ym[i]) - static_cast<double>(mm[i]);
    resid += d * d;
  }
  return resid;
}

/// The coupled step: the local step with each coupling folded into the
/// shared mode's normal equations (K += β Y W, G += β WᵀW); the side
/// factors are updated, and the combined fit measured, at the end of each
/// outer iteration.
class CoupledStep final : public detail::LocalStep {
 public:
  CoupledStep(const CsfSet& csf, const CpdConfig& config,
              const std::vector<CoupledMatrix>& couplings,
              MttkrpKernel kernel, detail::SolverState& state,
              CoupledResult& out)
      : LocalStep(csf, config, kernel,
                  detail::tensor_norm_sq(csf.for_mode(0)), state),
        couplings_(couplings), out_(out) {
    const std::size_t f = config.rank;
    state.build_prox(config.constraints);
    state.zero_duals(csf.dims(), config.rank);
    Rng init_rng(config.seed);
    detail::init_factors_into(csf, config.rank, init_rng, x_norm_sq_,
                              state.factors);

    // Side factors: seeded uniform like the tensor factors, one RNG stream
    // per coupling so adding a coupling never perturbs the others.
    out_.side_factors.resize(couplings.size());
    w_prox_.resize(couplings.size());
    w_duals_.resize(couplings.size());
    coupled_norm_sq_ = static_cast<double>(x_norm_sq_);
    for (std::size_t c = 0; c < couplings.size(); ++c) {
      const std::size_t j = couplings[c].y.cols();
      Matrix& w = out_.side_factors[c];
      w.resize(j, f);
      Rng rng(config.seed + 0x9e3779b9u * (c + 1));
      for (real_t& v : w.flat()) {
        v = rng.uniform();
      }
      w_prox_[c] = make_prox(couplings[c].w_constraint);
      w_duals_[c].resize(j, f);
      coupled_norm_sq_ += static_cast<double>(couplings[c].weight) *
                          static_cast<double>(fro_norm_sq(couplings[c].y));
    }
    out_.matrix_relative_error.assign(couplings.size(), 1);
    g_side_.resize(f, f);
  }

  detail::ModeSystem produce_k(unsigned outer, std::size_t m,
                               bool retry) override {
    detail::ModeSystem sys = LocalStep::produce_k(outer, m, retry);
    k_ = sys.k;
    for (std::size_t c = 0; c < couplings_.size(); ++c) {
      if (couplings_[c].mode != m) {
        continue;
      }
      const real_t beta = couplings_[c].weight;
      if (!retry) {
        gram(out_.side_factors[c], g_side_);
        axpy(beta, g_side_.flat(), state_.ws.gram_prod.flat());
      }
      // Augment a copy so ws.mttkrp_out stays the pure MTTKRP the tensor
      // fit expects.
      if (k_ != &k_aug_) {
        k_aug_ = *sys.k;
        k_ = &k_aug_;
      }
      const Matrix yw = matmul(couplings_[c].y, out_.side_factors[c]);
      axpy(beta, yw.flat(), k_aug_.flat());
    }
    sys.k = k_;
    return sys;
  }

  detail::ModeUpdateStats update(unsigned outer, std::size_t m,
                                 CpdResult& result) override {
    return detail::admm_mode_update(
        config_.variant, state_.factors[m], state_.duals[m], *k_,
        state_.ws.gram_prod, *state_.prox[m], config_.admm, state_.ws.admm,
        outer, m, result);
  }

  detail::LoopFit fit(unsigned outer, CpdResult& result) override {
    const std::vector<Matrix>& factors = state_.factors;
    // Side-factor updates: min β‖Y − A Wᵀ‖² + r(W) — normal equations
    // K_W = YᵀA, G_W = AᵀA (β scales both sides and cancels). Side factor
    // c reports its recoveries as mode order + c.
    for (std::size_t c = 0; c < couplings_.size(); ++c) {
      const Matrix& a = factors[couplings_[c].mode];
      const Matrix kw = matmul_tn(couplings_[c].y, a);
      gram(a, g_side_);
      detail::admm_mode_update(config_.variant, out_.side_factors[c],
                               w_duals_[c], kw, g_side_, *w_prox_[c],
                               config_.admm, w_scratch_, outer,
                               factors.size() + c, result);
    }

    // Combined fit over the tensor and every coupled matrix.
    const real_t tensor_err = LocalStep::fit(outer, result).error;
    double resid_sq = static_cast<double>(tensor_err) *
                      static_cast<double>(tensor_err) *
                      static_cast<double>(x_norm_sq_);
    for (std::size_t c = 0; c < couplings_.size(); ++c) {
      const double mr = matrix_resid_sq(
          couplings_[c].y, factors[couplings_[c].mode], out_.side_factors[c]);
      const double y_norm = static_cast<double>(fro_norm_sq(couplings_[c].y));
      out_.matrix_relative_error[c] =
          y_norm > 0 ? static_cast<real_t>(std::sqrt(mr / y_norm))
                     : static_cast<real_t>(std::sqrt(mr));
      resid_sq += static_cast<double>(couplings_[c].weight) * mr;
    }
    const real_t combined =
        coupled_norm_sq_ > 0
            ? static_cast<real_t>(std::sqrt(resid_sq / coupled_norm_sq_))
            : static_cast<real_t>(std::sqrt(resid_sq));
    out_.combined_relative_error = combined;
    return {combined, combined, false};
  }

 private:
  const std::vector<CoupledMatrix>& couplings_;
  CoupledResult& out_;
  double coupled_norm_sq_ = 0;
  std::vector<std::unique_ptr<ProxOperator>> w_prox_;
  std::vector<Matrix> w_duals_;
  AdmmScratch w_scratch_;  // separate: W row counts differ from the modes'
  Matrix k_aug_;           // augmented K for coupled modes
  const Matrix* k_ = nullptr;  // the K the next update reads
  Matrix g_side_;          // WᵀW / AᵀA for the coupling terms
};

}  // namespace

CoupledResult coupled_factorize(const CsfSet& csf, const CpdConfig& config,
                                const std::vector<CoupledMatrix>& couplings) {
  const std::size_t order = csf.order();
  const auto& dims = csf.dims();
  AOADMM_CHECK(order >= 2);

  detail::check_frobenius_config(config, order, "coupled_factorize");
  for (std::size_t c = 0; c < couplings.size(); ++c) {
    const CoupledMatrix& cm = couplings[c];
    if (cm.mode >= order) {
      throw InvalidArgument("coupling " + std::to_string(c) + ": mode " +
                            std::to_string(cm.mode) +
                            " out of range for an order-" +
                            std::to_string(order) + " tensor");
    }
    if (cm.y.rows() != static_cast<std::size_t>(dims[cm.mode])) {
      throw InvalidArgument(
          "coupling " + std::to_string(c) + ": side matrix has " +
          std::to_string(cm.y.rows()) + " rows but mode " +
          std::to_string(cm.mode) + " has dimension " +
          std::to_string(dims[cm.mode]));
    }
    if (!(cm.weight > 0)) {
      throw InvalidArgument("coupling " + std::to_string(c) +
                            ": weight must be positive");
    }
  }
  const MttkrpKernel kernel = detail::resolve_kernel(
      csf, config.mttkrp_kernel, config.leaf_format, config.rank);

  CoupledResult result;
  detail::SolverState state(order);
  CoupledStep step(csf, config, couplings, kernel, state, result);
  result.cpd = detail::OuterLoop(config, detail::LoopMetrics::shared())
                   .run(step, 1, std::numeric_limits<double>::infinity(),
                        CpdResult{});
  return result;
}

}  // namespace aoadmm
