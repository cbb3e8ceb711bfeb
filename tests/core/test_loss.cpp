#include "core/loss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/eval.hpp"
#include "core/loss_solve.hpp"
#include "core/prox.hpp"
#include "core/solver.hpp"
#include "tensor/synthetic.hpp"
#include "tensor/transform.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

// ---------------------------------------------------------------------------
// Prox closed forms. Each prox must solve argmin_t g(x,t) + rho/2 (t-v)^2;
// we check the analytic spot values AND, generically, that the returned
// point beats a grid of perturbations (catches wrong-branch bugs at the
// Huber boundary and the KL domain edge).
// ---------------------------------------------------------------------------

double prox_objective(const Loss& loss, real_t x, real_t v, real_t rho,
                      real_t t) {
  return static_cast<double>(loss.value(x, t)) +
         0.5 * rho * (t - v) * (t - v);
}

void expect_prox_minimizes(const Loss& loss, real_t x, real_t v, real_t rho) {
  const real_t t = loss.prox(x, v, rho);
  ASSERT_TRUE(std::isfinite(t));
  const double at = prox_objective(loss, x, v, rho, t);
  for (const real_t eps : {1e-4, 1e-2, 0.1, 0.5}) {
    for (const int sign : {-1, 1}) {
      const real_t cand = t + sign * static_cast<real_t>(eps);
      if (loss.name() == "kl" && cand < 0) {
        continue;  // outside the KL domain
      }
      EXPECT_GE(prox_objective(loss, x, v, rho, cand), at - 1e-9)
          << loss.name() << " prox(" << x << ", " << v << ", " << rho
          << ") = " << t << " beaten at offset " << sign * eps;
    }
  }
}

TEST(LossProx, FrobeniusClosedForm) {
  const auto loss = make_loss({LossKind::kFrobenius, 1.0, true});
  // argmin_t 1/2 (t-x)^2 + rho/2 (t-v)^2 = (x + rho v) / (1 + rho).
  EXPECT_NEAR(loss->prox(2.0, 6.0, 1.0), 4.0, 1e-12);
  EXPECT_NEAR(loss->prox(-1.0, 3.0, 3.0), (-1.0 + 9.0) / 4.0, 1e-12);
  for (const real_t x : {-2.0, 0.0, 1.5}) {
    for (const real_t v : {-1.0, 0.5, 4.0}) {
      for (const real_t rho : {0.1, 1.0, 10.0}) {
        expect_prox_minimizes(*loss, x, v, rho);
      }
    }
  }
}

TEST(LossProx, KlPositiveCountSatisfiesOptimality) {
  const auto loss = make_loss({LossKind::kKL});
  // Stationarity of t - x log t + rho/2 (t-v)^2: 1 - x/t + rho (t - v) = 0.
  for (const real_t x : {1.0, 4.0, 17.0}) {
    for (const real_t v : {-0.5, 0.2, 3.0}) {
      for (const real_t rho : {0.5, 2.0, 8.0}) {
        const real_t t = loss->prox(x, v, rho);
        ASSERT_GT(t, 0.0);
        EXPECT_NEAR(1.0 - x / t + rho * (t - v), 0.0, 1e-8);
      }
    }
  }
}

TEST(LossProx, KlZeroCountSoftThresholdsAtZero) {
  const auto loss = make_loss({LossKind::kKL});
  // x = 0: argmin_t t + rho/2 (t-v)^2 over t >= 0 is max(v - 1/rho, 0).
  EXPECT_NEAR(loss->prox(0.0, 3.0, 1.0), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(loss->prox(0.0, 0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(loss->prox(0.0, -4.0, 2.0), 0.0);
}

TEST(LossProx, KlRejectsNegativeData) {
  const auto loss = make_loss({LossKind::kKL});
  EXPECT_THROW(loss->check_datum(-0.25), InvalidArgument);
  EXPECT_NO_THROW(loss->check_datum(0.0));
  EXPECT_NO_THROW(loss->check_datum(7.0));
}

TEST(LossProx, HuberQuadraticInsideLinearOutside) {
  const real_t delta = 0.5;
  const auto loss = make_loss({LossKind::kHuber, delta});
  // Inside the quadratic region the answer matches Frobenius; far outside
  // it is the linear-slope shift v -+ delta/rho.
  const real_t rho = 2.0;
  EXPECT_NEAR(loss->prox(1.0, 1.1, rho), (1.0 + rho * 1.1) / (1 + rho), 1e-12);
  EXPECT_NEAR(loss->prox(0.0, 10.0, rho), 10.0 - delta / rho, 1e-12);
  EXPECT_NEAR(loss->prox(0.0, -10.0, rho), -10.0 + delta / rho, 1e-12);
  for (const real_t x : {-1.0, 0.0, 2.0}) {
    for (const real_t v : {-5.0, -0.3, 0.4, 6.0}) {
      for (const real_t rho2 : {0.25, 1.0, 4.0}) {
        expect_prox_minimizes(*loss, x, v, rho2);
      }
    }
  }
}

TEST(LossProx, L1SoftThresholdsAroundTheDatum) {
  const auto loss = make_loss({LossKind::kL1});
  // argmin_t |t-x| + rho/2 (t-v)^2 = x + soft(v - x, 1/rho).
  EXPECT_NEAR(loss->prox(1.0, 4.0, 0.5), 2.0, 1e-12);   // shrink by 2
  EXPECT_DOUBLE_EQ(loss->prox(1.0, 1.5, 1.0), 1.0);     // inside the band
  EXPECT_NEAR(loss->prox(2.0, -3.0, 1.0), -2.0, 1e-12);
  for (const real_t x : {-2.0, 0.0, 3.0}) {
    for (const real_t v : {-4.0, 0.1, 5.0}) {
      for (const real_t rho : {0.5, 2.0}) {
        expect_prox_minimizes(*loss, x, v, rho);
      }
    }
  }
}

TEST(LossProx, ValueClampsDomainEdgesToStayFinite) {
  // KL at t = 0 would be x·log 0 = inf; value() clamps the model into the
  // loss's domain so a transient infeasible iterate cannot poison the
  // objective report.
  const auto kl = make_loss({LossKind::kKL});
  EXPECT_TRUE(std::isfinite(kl->value(3.0, 0.0)));
  EXPECT_TRUE(std::isfinite(kl->value(3.0, -0.5)));
  for (const LossKind k :
       {LossKind::kFrobenius, LossKind::kHuber, LossKind::kL1}) {
    LossSpec spec;
    spec.kind = k;
    const auto loss = make_loss(spec);
    EXPECT_TRUE(std::isfinite(loss->value(1.0, -2.0))) << loss->name();
  }
}

TEST(Loss, FactoryEnforcesParameters) {
  EXPECT_THROW(make_loss({LossKind::kHuber, 0.0}), InvalidArgument);
  EXPECT_THROW(make_loss({LossKind::kHuber, -1.0}), InvalidArgument);
  // Huber and l1 are observed-only by definition: masked is forced on.
  EXPECT_TRUE(make_loss({LossKind::kHuber, 1.0, false})->masked());
  EXPECT_TRUE(make_loss({LossKind::kL1, 1.0, false})->masked());
  EXPECT_FALSE(make_loss({LossKind::kFrobenius})->masked());
  EXPECT_FALSE(make_loss({LossKind::kKL})->masked());
  EXPECT_TRUE(make_loss({LossKind::kFrobenius})->quadratic());
  EXPECT_FALSE(make_loss({LossKind::kFrobenius, 1.0, true})->quadratic());
}

// ---------------------------------------------------------------------------
// Spec parsing round-trips: every accepted spelling, for losses AND
// constraints, must survive parse -> to_cli_string -> parse.
// ---------------------------------------------------------------------------

TEST(LossSpec, EverySpellingRoundTrips) {
  const std::vector<std::string> spellings = {
      "frobenius", "fro", "ls", "frobenius:masked", "fro:masked",
      "kl", "poisson", "kl:masked",
      "huber", "huber:0.5", "huber:2", "huber:0.25:masked",
      "l1", "l1:masked",
  };
  for (const std::string& s : spellings) {
    const LossSpec a = parse_loss_spec(s);
    const std::string canon = to_cli_string(a);
    const LossSpec b = parse_loss_spec(canon);
    EXPECT_EQ(a.kind, b.kind) << s << " -> " << canon;
    EXPECT_EQ(a.masked, b.masked) << s << " -> " << canon;
    EXPECT_DOUBLE_EQ(a.huber_delta, b.huber_delta) << s << " -> " << canon;
    // Canonical spellings are a fixed point.
    EXPECT_EQ(to_cli_string(b), canon) << s;
  }
}

TEST(LossSpec, ParsedFieldsAreCorrect) {
  EXPECT_EQ(parse_loss_spec("kl").kind, LossKind::kKL);
  EXPECT_EQ(parse_loss_spec("poisson").kind, LossKind::kKL);
  EXPECT_FALSE(parse_loss_spec("kl").masked);
  EXPECT_TRUE(parse_loss_spec("kl:masked").masked);
  EXPECT_DOUBLE_EQ(parse_loss_spec("huber:0.75").huber_delta, 0.75);
  EXPECT_TRUE(parse_loss_spec("frobenius:masked").masked);
  EXPECT_EQ(parse_loss_spec("ls").kind, LossKind::kFrobenius);
}

TEST(LossSpec, RejectsUnknownSpellings) {
  for (const std::string bad :
       {"gauss", "kl:0.5", "huber:abc", "l1:0.5", "frobenius:0.1",
        "huber:", "", "kl:masked:extra"}) {
    EXPECT_THROW(parse_loss_spec(bad), InvalidArgument) << bad;
  }
}

TEST(ConstraintSpec, EverySpellingRoundTrips) {
  const std::vector<std::string> spellings = {
      "none", "nonneg", "simplex",
      "l1", "l1:0.05", "nnl1", "nnl1:0.2", "ridge", "ridge:0.3",
      "box", "box:-1:2", "box:0.5:1.5",
      "l2ball", "l2ball:2.5",
  };
  for (const std::string& s : spellings) {
    const ConstraintSpec a = parse_constraint_spec(s);
    const std::string canon = to_cli_string(a);
    const ConstraintSpec b = parse_constraint_spec(canon);
    EXPECT_EQ(a.kind, b.kind) << s << " -> " << canon;
    EXPECT_DOUBLE_EQ(a.lambda, b.lambda) << s << " -> " << canon;
    EXPECT_DOUBLE_EQ(a.lo, b.lo) << s << " -> " << canon;
    EXPECT_DOUBLE_EQ(a.hi, b.hi) << s << " -> " << canon;
    EXPECT_EQ(to_cli_string(b), canon) << s;
  }
}

TEST(ConstraintSpec, RejectsUnknownSpellings) {
  for (const std::string bad :
       {"frob", "l1:0.1:2", "simplex:1", "box:1", "box:a:b", "l2ball:1:2",
        "none:0", ""}) {
    EXPECT_THROW(parse_constraint_spec(bad), InvalidArgument) << bad;
  }
}

// ---------------------------------------------------------------------------
// End-to-end recovery on seeded synthetic ground truth.
// ---------------------------------------------------------------------------

/// Dense model value at `coord` under rank-F factors.
real_t model_at(const std::vector<Matrix>& factors,
                const std::vector<index_t>& coord) {
  const rank_t rank = static_cast<rank_t>(factors[0].cols());
  real_t v = 0;
  for (rank_t c = 0; c < rank; ++c) {
    real_t prod = 1;
    for (std::size_t m = 0; m < factors.size(); ++m) {
      prod *= factors[m](coord[m], c);
    }
    v += prod;
  }
  return v;
}

/// Relative error of the reconstructed model against the true dense model,
/// over every cell of the tensor.
double model_relative_error(const std::vector<Matrix>& truth,
                            const std::vector<Matrix>& recovered,
                            const std::vector<index_t>& dims) {
  std::vector<index_t> coord(dims.size(), 0);
  double num = 0, den = 0;
  bool done = false;
  while (!done) {
    const double t = model_at(truth, coord);
    const double r = model_at(recovered, coord);
    num += (t - r) * (t - r);
    den += t * t;
    done = true;
    for (std::size_t m = 0; m < dims.size(); ++m) {
      if (++coord[m] < dims[m]) {
        done = false;
        break;
      }
      coord[m] = 0;
    }
  }
  return std::sqrt(num / den);
}

/// Knuth Poisson sampler — fine for the modest rates used here.
offset_t sample_poisson(Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  double p = 1;
  offset_t k = 0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

/// The objective trace must be monotone non-increasing up to the
/// numerical wobble of warm-started inner ADMM splits (the inner loops run
/// to a loose tolerance, so consecutive objectives can rise by a sliver of
/// the objective scale before the outer convergence check stops the run).
void expect_monotone(const std::vector<double>& objective_trace) {
  ASSERT_FALSE(objective_trace.empty());
  const double slack =
      5e-3 * std::max({1.0, std::abs(objective_trace.front()),
                       std::abs(objective_trace.back())});
  for (std::size_t i = 1; i < objective_trace.size(); ++i) {
    EXPECT_LE(objective_trace[i], objective_trace[i - 1] + slack)
        << "objective rose at outer iteration " << i + 1;
  }
}

TEST(LossRecovery, KlRecoversPoissonRates) {
  // Seeded ground truth: nonneg rank-3 rate tensor, every cell an
  // independent Poisson draw. KL (the Poisson ML loss) must recover the
  // rates through the counting noise.
  const std::vector<index_t> dims = {12, 10, 8};
  const rank_t true_rank = 3;
  Rng rng(91);
  std::vector<Matrix> truth;
  for (const index_t d : dims) {
    truth.push_back(Matrix::random_uniform(d, true_rank, rng, 1.0, 3.0));
  }
  CooTensor x(dims);
  std::vector<index_t> coord(dims.size(), 0);
  bool done = false;
  while (!done) {
    const offset_t count = sample_poisson(rng, model_at(truth, coord));
    if (count > 0) {
      x.add(coord, static_cast<real_t>(count));
    }
    done = true;
    for (std::size_t m = 0; m < dims.size(); ++m) {
      if (++coord[m] < dims[m]) {
        done = false;
        break;
      }
      coord[m] = 0;
    }
  }

  CpdConfig cfg;
  cfg.with_rank(true_rank)
      .with_seed(17)
      .with_loss({LossKind::kKL})
      .with_constraints(
          ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  cfg.max_outer_iterations = 80;
  cfg.tolerance = 1e-7;
  const CsfSet csf(x);
  CpdSolver solver(csf, cfg);
  const CpdResult r = solver.solve();

  EXPECT_GT(r.outer_iterations, 1u);
  ASSERT_EQ(r.objective_trace.size(), r.outer_iterations);
  expect_monotone(r.objective_trace);
  // The KL objective t - x log t is legitimately negative at a good fit;
  // it must be finite and equal to the last trace entry.
  EXPECT_TRUE(std::isfinite(r.objective_value));
  EXPECT_DOUBLE_EQ(r.objective_value, r.objective_trace.back());
  const double err = model_relative_error(truth, r.factors, dims);
  EXPECT_LT(err, 0.25) << "KL failed to recover the seeded Poisson rates";
  for (const Matrix& f : r.factors) {
    for (const real_t v : f.flat()) {
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(LossRecovery, HuberShrugsOffOutliersWhereFrobeniusCannot) {
  // Seeded ground truth plus sparse gross corruption: 5% of cells get a
  // large additive spike. Huber must land near the CLEAN model; the
  // Frobenius fast path on the same data is dragged off by the outliers.
  const std::vector<index_t> dims = {11, 9, 8};
  const rank_t true_rank = 3;
  Rng rng(37);
  std::vector<Matrix> truth;
  for (const index_t d : dims) {
    truth.push_back(Matrix::random_uniform(d, true_rank, rng, 0.3, 1.0));
  }
  CooTensor x(dims);
  std::vector<index_t> coord(dims.size(), 0);
  bool done = false;
  while (!done) {
    real_t v = model_at(truth, coord);
    if (rng.uniform() < 0.05) {
      v += 10.0;  // gross outlier
    }
    x.add(coord, v);
    done = true;
    for (std::size_t m = 0; m < dims.size(); ++m) {
      if (++coord[m] < dims[m]) {
        done = false;
        break;
      }
      coord[m] = 0;
    }
  }
  const CsfSet csf(x);

  CpdConfig huber_cfg;
  huber_cfg.with_rank(true_rank)
      .with_seed(5)
      .with_loss(parse_loss_spec("huber:0.1"))
      .with_constraints(
          ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  huber_cfg.max_outer_iterations = 80;
  huber_cfg.tolerance = 1e-7;
  CpdSolver huber_solver(csf, huber_cfg);
  const CpdResult hr = huber_solver.solve();
  ASSERT_EQ(hr.objective_trace.size(), hr.outer_iterations);
  expect_monotone(hr.objective_trace);

  CpdConfig fro_cfg;
  fro_cfg.with_rank(true_rank).with_seed(5).with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  fro_cfg.max_outer_iterations = 80;
  fro_cfg.tolerance = 1e-7;
  CpdSolver fro_solver(csf, fro_cfg);
  const CpdResult fr = fro_solver.solve();

  const double huber_err = model_relative_error(truth, hr.factors, dims);
  const double fro_err = model_relative_error(truth, fr.factors, dims);
  EXPECT_LT(huber_err, 0.25)
      << "huber failed to recover the clean ground truth";
  EXPECT_LT(huber_err, fro_err)
      << "huber should beat least squares under gross corruption";
}

TEST(LossRecovery, MaskedFrobeniusFitsObservedEntriesOnly) {
  // A sparsely OBSERVED low-rank tensor: unmasked least squares must treat
  // the missing cells as zeros and plateau high; the masked loss fits the
  // observed entries tightly.
  const std::vector<index_t> dims = {14, 12, 10};
  const rank_t true_rank = 3;
  Rng rng(53);
  std::vector<Matrix> truth;
  for (const index_t d : dims) {
    truth.push_back(Matrix::random_uniform(d, true_rank, rng, 0.2, 1.0));
  }
  CooTensor x(dims);
  std::vector<index_t> coord(dims.size(), 0);
  bool done = false;
  while (!done) {
    if (rng.uniform() < 0.35) {
      x.add(coord, model_at(truth, coord));
    }
    done = true;
    for (std::size_t m = 0; m < dims.size(); ++m) {
      if (++coord[m] < dims[m]) {
        done = false;
        break;
      }
      coord[m] = 0;
    }
  }
  const CsfSet csf(x);

  CpdConfig cfg;
  cfg.with_rank(true_rank)
      .with_seed(3)
      .with_loss(parse_loss_spec("frobenius:masked"))
      .with_constraints(ModeConstraints::broadcast({ConstraintKind::kNone}));
  cfg.max_outer_iterations = 120;
  cfg.tolerance = 1e-9;
  CpdSolver solver(csf, cfg);
  const CpdResult r = solver.solve();

  EXPECT_LT(r.relative_error, 0.05)
      << "masked frobenius should fit the observed entries tightly";
  expect_monotone(r.objective_trace);
}

TEST(LossRecovery, L1ObjectiveDecreasesAndFits) {
  const CooTensor x = testing::dense_lowrank_tensor({10, 9, 8}, 3, 0.02, 29);
  const CsfSet csf(x);
  CpdConfig cfg;
  cfg.with_rank(4)
      .with_seed(7)
      .with_loss({LossKind::kL1})
      .with_constraints(
          ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  cfg.max_outer_iterations = 60;
  cfg.tolerance = 1e-8;
  CpdSolver solver(csf, cfg);
  const CpdResult r = solver.solve();
  ASSERT_GE(r.objective_trace.size(), 2u);
  expect_monotone(r.objective_trace);
  EXPECT_LT(r.objective_trace.back(), r.objective_trace.front());
  EXPECT_LT(r.relative_error, 0.25);
}

TEST(LossSolve, RowSystemThatIsNotPositiveDefiniteThrowsNumericalError) {
  // One non-zero per mode-0 row makes every row Gram rank one, and with
  // factor entries of 1e12 the "+ I" that should make it definite rounds
  // away. The failure must reach the caller as an exception, not end the
  // process from inside the parallel region.
  CooTensor x({3, 3, 3});
  for (index_t i = 0; i < 3; ++i) {
    const index_t c[3] = {i, i, static_cast<index_t>((i + 1) % 3)};
    x.add({c, 3}, 1.0 + i);
  }
  const CsfSet csf(x);
  std::vector<Matrix> factors(3, Matrix(3, 3));
  for (Matrix& a : factors) {
    for (real_t& v : a.flat()) {
      v = 1e12;
    }
  }
  Matrix u_h(3, 3);
  LossWorkspace ws;
  ws.reset(csf);
  const auto loss = make_loss({LossKind::kKL});
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  EXPECT_THROW(loss_mode_update(csf.for_mode(0), factors, u_h, 0, *loss,
                                *prox, AdmmOptions{}, {}, ws.modes[0]),
               NumericalError);
}

TEST(LossSolve, RowSystemThatIsNotPositiveDefiniteTakesARidgeWhenRobust) {
  // The same rank-one row systems as above: with the guard rails on, the
  // row factorization escalates a diagonal ridge instead of throwing, and
  // reports it through the result the solver journals.
  CooTensor x({3, 3, 3});
  for (index_t i = 0; i < 3; ++i) {
    const index_t c[3] = {i, i, static_cast<index_t>((i + 1) % 3)};
    x.add({c, 3}, 1.0 + i);
  }
  const CsfSet csf(x);
  std::vector<Matrix> factors(3, Matrix(3, 3));
  for (Matrix& a : factors) {
    for (real_t& v : a.flat()) {
      v = 1e12;
    }
  }
  Matrix u_h(3, 3);
  LossWorkspace ws;
  ws.reset(csf);
  const auto loss = make_loss({LossKind::kKL});
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmOptions opts;
  opts.robustness.enabled = true;
  const LossUpdateResult r = loss_mode_update(
      csf.for_mode(0), factors, u_h, 0, *loss, *prox, opts, {}, ws.modes[0]);
  EXPECT_GT(r.cholesky_attempts, 0u);
  EXPECT_GT(r.cholesky_jitter, 0.0);
  for (const real_t v : factors[0].flat()) {
    EXPECT_TRUE(std::isfinite(v)) << v;
  }
}

TEST(LossDeterminism, RepeatedSolvesAreBitwiseIdentical) {
  // The objective and fit are sums over threads. A fixed root partition and
  // a thread-ordered merge make repeated solves agree to the last bit at any
  // thread count — objective trace, error trace and factors alike.
  const CooTensor x = testing::random_coo({60, 50, 40}, 6000, 31);
  const CsfSet csf(x);
  for (const char* spec : {"kl", "huber", "frobenius:masked"}) {
    CpdConfig cfg;
    cfg.with_rank(4)
        .with_seed(5)
        .with_loss(parse_loss_spec(spec))
        .with_constraints(
            ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
    cfg.max_outer_iterations = 6;
    cfg.tolerance = 0;
    CpdSolver solver(csf, cfg);
    const CpdResult a = solver.solve();
    for (int rep = 0; rep < 3; ++rep) {
      const CpdResult b = solver.solve();
      ASSERT_EQ(a.objective_trace, b.objective_trace) << spec;
      ASSERT_EQ(a.trace.size(), b.trace.size()) << spec;
      for (std::size_t i = 0; i < a.trace.size(); ++i) {
        ASSERT_EQ(a.trace.points()[i].relative_error,
                  b.trace.points()[i].relative_error)
            << spec << " outer " << i + 1;
      }
      for (std::size_t m = 0; m < a.factors.size(); ++m) {
        const auto fa = a.factors[m].flat();
        const auto fb = b.factors[m].flat();
        for (std::size_t i = 0; i < fa.size(); ++i) {
          ASSERT_EQ(fa[i], fb[i]) << spec << " factor " << m << " entry " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Observed-only ("weighted") CPD: the frobenius:masked loss fits the stored
// non-zeros only, so an unobserved cell means "unknown", not "zero".
// ---------------------------------------------------------------------------

/// Sparse samples of a dense low-rank model — the regime where observed-
/// only CPD shines (unobserved ≠ zero).
CooTensor sampled_lowrank(std::uint64_t seed = 5) {
  SyntheticSpec spec;
  spec.dims = {40, 35, 30};
  spec.nnz = 6000;  // ~14% of cells
  spec.true_rank = 3;
  spec.noise = 0.02;
  spec.zipf_alpha = {0.0};
  spec.seed = seed;
  return make_synthetic(spec);
}

CpdConfig masked_config(
    const ModeConstraints& constraints =
        ModeConstraints::broadcast({ConstraintKind::kNonNegative})) {
  CpdConfig c;
  c.with_rank(4)
      .with_max_outer(30)
      .with_tolerance(1e-6)
      .with_loss(parse_loss_spec("frobenius:masked"))
      .with_constraints(constraints);
  c.admm.max_iterations = 15;
  return c;
}

CpdResult masked_solve(const CsfSet& csf, const CpdConfig& cfg) {
  CpdSolver solver(csf, cfg);
  return solver.solve();
}

TEST(Wcpd, FitsObservedEntriesTightly) {
  // Standard CPD cannot fit 14%-observed data (the zeros dominate);
  // observed-only CPD must reach near the noise floor on Ω.
  const CooTensor x = sampled_lowrank();
  const CsfSet csf(x);
  const CpdResult r = masked_solve(csf, masked_config());
  EXPECT_LT(r.relative_error, 0.08);
  EXPECT_GT(r.outer_iterations, 1u);
}

TEST(Wcpd, BeatsUnweightedCpdOnHeldOutData) {
  // The motivating comparison: train both on 80% of the samples, compare
  // held-out RMSE. Observed-only must win decisively.
  const CooTensor x = sampled_lowrank(6);
  Rng rng(7);
  const TrainTestSplit split = split_train_test(x, 0.2, rng);
  const CsfSet csf(split.train);

  const CpdResult rw = masked_solve(csf, masked_config());
  const PredictionMetrics mw = evaluate_predictions(split.test, rw.factors);

  CpdConfig unweighted;
  unweighted.with_rank(4).with_max_outer(30).with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  const CpdResult ru = masked_solve(csf, unweighted);
  const PredictionMetrics mu = evaluate_predictions(split.test, ru.factors);

  EXPECT_LT(mw.rmse, 0.5 * mu.rmse)
      << "observed-only rmse " << mw.rmse << " vs unweighted " << mu.rmse;
}

TEST(Wcpd, NonNegativityHolds) {
  const CooTensor x = sampled_lowrank(8);
  const CsfSet csf(x);
  const CpdResult r = masked_solve(csf, masked_config());
  for (const Matrix& f : r.factors) {
    for (const real_t v : f.flat()) {
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(Wcpd, SimplexConstraintHolds) {
  const CooTensor x = sampled_lowrank(9);
  const CsfSet csf(x);
  CpdConfig cfg = masked_config(ModeConstraints::per_mode(
      {{ConstraintKind::kNonNegative},
       {ConstraintKind::kNonNegative},
       {ConstraintKind::kSimplex}}));
  cfg.max_outer_iterations = 10;
  const CpdResult r = masked_solve(csf, cfg);
  for (std::size_t i = 0; i < r.factors[2].rows(); ++i) {
    real_t sum = 0;
    for (std::size_t c = 0; c < r.factors[2].cols(); ++c) {
      EXPECT_GE(r.factors[2](i, c), -1e-12);
      sum += r.factors[2](i, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Wcpd, ErrorNonIncreasing) {
  const CooTensor x = sampled_lowrank(10);
  const CsfSet csf(x);
  CpdConfig cfg = masked_config();
  cfg.tolerance = 0;
  cfg.max_outer_iterations = 12;
  cfg.admm.max_iterations = 40;
  cfg.admm.tolerance = 1e-6;
  const CpdResult r = masked_solve(csf, cfg);
  const auto& pts = r.trace.points();
  ASSERT_GE(pts.size(), 3u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i].relative_error, pts[i - 1].relative_error + 1e-4);
  }
}

TEST(Wcpd, DeterministicInSeed) {
  const CooTensor x = sampled_lowrank(11);
  const CsfSet csf(x);
  CpdConfig cfg = masked_config();
  cfg.max_outer_iterations = 6;
  const CpdResult a = masked_solve(csf, cfg);
  const CpdResult b = masked_solve(csf, cfg);
  EXPECT_DOUBLE_EQ(a.relative_error, b.relative_error);
  EXPECT_EQ(a.objective_trace, b.objective_trace);
}

TEST(Wcpd, EmptyRowsArePinnedAtProxOfZero) {
  // Build a tensor where mode-0 row 3 never appears.
  CooTensor x({5, 4, 4});
  Rng rng(12);
  std::vector<index_t> c(3);
  for (int n = 0; n < 60; ++n) {
    c[0] = static_cast<index_t>(rng.uniform_index(5));
    if (c[0] == 3) {
      c[0] = 2;
    }
    c[1] = static_cast<index_t>(rng.uniform_index(4));
    c[2] = static_cast<index_t>(rng.uniform_index(4));
    x.add(c, rng.uniform(0.5, 1.5));
  }
  x.deduplicate();
  const CsfSet csf(x);
  CpdConfig cfg = masked_config();
  cfg.max_outer_iterations = 5;
  const CpdResult r = masked_solve(csf, cfg);
  for (std::size_t col = 0; col < r.factors[0].cols(); ++col) {
    EXPECT_DOUBLE_EQ(r.factors[0](3, col), 0.0);
  }
}

TEST(Wcpd, FourModeTensorWorks) {
  SyntheticSpec spec;
  spec.dims = {12, 10, 8, 9};
  spec.nnz = 2000;
  spec.true_rank = 2;
  spec.noise = 0.02;
  spec.seed = 13;
  const CooTensor x = make_synthetic(spec);
  const CsfSet csf(x);
  CpdConfig cfg = masked_config();
  cfg.rank = 3;
  const CpdResult r = masked_solve(csf, cfg);
  EXPECT_EQ(r.factors.size(), 4u);
  EXPECT_LT(r.relative_error, 0.25);
}

TEST(Wcpd, RejectsOneModeStrategy) {
  // Per-row systems are assembled from mode-rooted trees.
  const CooTensor x = testing::random_coo({6, 6, 6}, 30, 14);
  const CsfSet csf(x, CsfStrategy::kOneMode);
  EXPECT_THROW(CpdSolver(csf, masked_config()), InvalidArgument);
}

TEST(Wcpd, UnderdeterminedRowsStayFinite) {
  // Rank 6 but some slices hold < 6 observations. The split's row system
  // BᵀB + I is positive definite however few observations a row has, so no
  // ridge is needed to keep the factors finite.
  const CooTensor x = testing::random_coo({50, 10, 10}, 150, 15);
  const CsfSet csf(x);
  CpdConfig cfg = masked_config(
      ModeConstraints::broadcast({ConstraintKind::kNone}));
  cfg.rank = 6;
  cfg.max_outer_iterations = 5;
  const CpdResult r = masked_solve(csf, cfg);
  for (const Matrix& f : r.factors) {
    for (const real_t v : f.flat()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(LossRecovery, GeneralizedTraceWritesFig6StyleJson) {
  const CooTensor x = testing::dense_lowrank_tensor({8, 7, 6}, 2, 0.05, 19);
  const CsfSet csf(x);
  CpdConfig cfg;
  cfg.with_rank(3)
      .with_seed(11)
      .with_loss({LossKind::kKL})
      .with_constraints(
          ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  cfg.max_outer_iterations = 15;
  cfg.tolerance = 1e-9;
  CpdSolver solver(csf, cfg);
  const CpdResult r = solver.solve();

  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.size(), r.outer_iterations);
  std::ostringstream os;
  r.trace.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"relative_error\""), std::string::npos);
  EXPECT_NE(json.find("\"iter\""), std::string::npos);
}

}  // namespace
}  // namespace aoadmm
