// Rank selection for a constrained CPD: sweep candidate ranks and report,
// per rank, (i) training fit, (ii) held-out RMSE, and (iii) the CORCONDIA
// core-consistency diagnostic. The planted rank should be visible as the
// point where held-out error bottoms out and core consistency collapses
// beyond it.
//
// Run: ./rank_selection [--true-rank 4] [--max-rank 8]
#include <cstdio>

#include "core/corcondia.hpp"
#include "core/eval.hpp"
#include "core/solver.hpp"
#include "tensor/synthetic.hpp"
#include "tensor/transform.hpp"
#include "util/options.hpp"

using namespace aoadmm;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto true_rank = static_cast<rank_t>(opts.get_int("true-rank", 4));
  const auto max_rank = static_cast<rank_t>(opts.get_int("max-rank", 8));

  // 85% of the cells observed: the least-squares objective treats the
  // unobserved cells as zeros, so rank structure is only identifiable when
  // most of the tensor is present (with truly sparse data, practitioners
  // switch to observed-only losses, which plain CPD does not model).
  SyntheticSpec spec;
  spec.dims = {30, 25, 20};
  spec.nnz = 12750;
  spec.true_rank = true_rank;
  spec.noise = 0.05;
  spec.zipf_alpha = {0.0};
  spec.seed = 2026;
  const CooTensor x = make_synthetic(spec);
  std::printf("tensor: %u x %u x %u, %llu non-zeros, planted rank %u\n\n",
              x.dim(0), x.dim(1), x.dim(2),
              static_cast<unsigned long long>(x.nnz()), true_rank);

  Rng rng(1);
  const TrainTestSplit split = split_train_test(x, 0.2, rng);
  const CsfSet csf(split.train);

  std::printf("%-6s %-12s %-14s %-12s\n", "rank", "train err",
              "held-out RMSE", "corcondia");
  std::printf("----------------------------------------------\n");

  rank_t best_rank = 1;
  real_t best_rmse = 0;
  bool first = true;
  for (rank_t rank = 1; rank <= max_rank; ++rank) {
    CpdConfig cfg;
    cfg.with_rank(rank).with_max_outer(60).with_tolerance(1e-6)
        .with_constraints(
            ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
    CpdSolver solver(csf, cfg);
    const CpdResult r = solver.solve();

    const PredictionMetrics holdout =
        evaluate_predictions(split.test, r.factors);
    const real_t consistency = corcondia(split.train, r.factors);

    std::printf("%-6u %-12.4f %-14.4f %-12.1f\n", rank,
                static_cast<double>(r.relative_error),
                static_cast<double>(holdout.rmse),
                static_cast<double>(consistency));

    if (first || holdout.rmse < best_rmse) {
      best_rmse = holdout.rmse;
      best_rank = rank;
      first = false;
    }
  }

  std::printf("\nselected rank by held-out RMSE: %u (planted: %u)\n",
              best_rank, true_rank);
  // Success when the held-out minimum lands at or near the planted rank.
  const auto diff = best_rank > true_rank ? best_rank - true_rank
                                          : true_rank - best_rank;
  return diff <= 1 ? 0 : 1;
}
