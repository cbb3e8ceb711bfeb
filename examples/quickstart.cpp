// Quickstart: the smallest complete use of the library.
//
//   1. Generate (or load) a sparse tensor.
//   2. Compile it to CSF.
//   3. Run a constrained CPD with AO-ADMM.
//   4. Inspect fit, timing breakdown, and the factors.
//
// Build & run:  ./quickstart [--rank 8] [--constraint nonneg] [--lambda 0.1]
#include <cstdio>

#include "core/solver.hpp"
#include "tensor/synthetic.hpp"
#include "util/options.hpp"

using namespace aoadmm;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto rank = static_cast<rank_t>(opts.get_int("rank", 8));
  ConstraintSpec constraint;
  constraint.kind = parse_constraint_kind(opts.get_string("constraint",
                                                          "nonneg"));
  constraint.lambda = static_cast<real_t>(opts.get_double("lambda", 0.1));

  // 1. A small synthetic tensor sampled from a non-negative rank-4 model
  //    with Zipf-skewed coordinates — the shape of real recommender data.
  SyntheticSpec spec;
  spec.dims = {100, 80, 60};
  spec.nnz = 30000;  // ~6% of the cells observed: dense enough to fit well
  spec.true_rank = 4;
  spec.noise = 0.05;
  spec.zipf_alpha = {0.9};
  spec.seed = 1;
  const CooTensor x = make_synthetic(spec);
  std::printf("tensor: %u x %u x %u, %llu non-zeros\n", x.dim(0), x.dim(1),
              x.dim(2), static_cast<unsigned long long>(x.nnz()));

  // 2. Compile to CSF (one tree per mode, used by the MTTKRP kernels).
  const CsfSet csf(x);

  // 3. Factorize.
  CpdConfig cfg;
  cfg.with_rank(rank)
      .with_max_outer(50)
      .with_tolerance(1e-5)
      .with_variant(AdmmVariant::kBlocked)  // the paper's fast path
      .with_constraints(ModeConstraints::broadcast(constraint));
  CpdSolver solver(csf, cfg);
  const CpdResult result = solver.solve();

  // 4. Report.
  std::printf("\nconstraint      : %s (lambda=%.3g)\n",
              to_string(constraint.kind),
              static_cast<double>(constraint.lambda));
  std::printf("rank            : %u\n", rank);
  std::printf("outer iterations: %u (%s)\n", result.outer_iterations,
              result.converged ? "converged" : "iteration cap");
  std::printf("relative error  : %.6f\n",
              static_cast<double>(result.relative_error));
  std::printf("total time      : %.3f s (MTTKRP %.0f%%, ADMM %.0f%%)\n",
              result.times.total_seconds,
              100.0 * result.times.mttkrp_fraction(),
              100.0 * result.times.admm_fraction());
  for (std::size_t m = 0; m < result.factors.size(); ++m) {
    std::printf("factor %zu       : %zu x %zu, density %.1f%%\n", m,
                result.factors[m].rows(), result.factors[m].cols(),
                100.0 * static_cast<double>(result.factor_density[m]));
  }

  // Peek at one factor row: component weights for the first entity.
  std::printf("\nfactor 0, row 0 (component loadings): ");
  for (std::size_t c = 0; c < rank; ++c) {
    std::printf("%.3f ", static_cast<double>(result.factors[0](0, c)));
  }
  std::printf("\n");
  return 0;
}
