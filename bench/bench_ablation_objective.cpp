// Ablation (library extension): least-squares-over-all-cells CPD (the
// default frobenius loss; missing = zero) vs observed-only CPD (the
// frobenius:masked loss; missing = unknown) as the sampling density of a
// planted low-rank tensor varies.
// Reports training fit and held-out RMSE: the observed-only objective
// should dominate on sparsely sampled data and the gap should close as the
// tensor approaches fully observed.
#include <cstdio>

#include "core/eval.hpp"
#include "core/solver.hpp"
#include "tensor/transform.hpp"
#include "common.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

int main() {
  print_banner("Ablation — LS objective vs observed-only objective",
               "planted rank-4 tensor at varying sampling density; 20% "
               "holdout; lower held-out RMSE is better");

  const real_t fills[] = {0.05, 0.15, 0.40, 0.80};
  const std::vector<index_t> dims{40, 35, 30};
  const double capacity = 40.0 * 35.0 * 30.0;

  TablePrinter table({"fill", "objective", "train err", "holdout RMSE",
                      "time(s)"},
                     {8, 12, 12, 14, 10});
  table.print_header();

  for (const real_t fill : fills) {
    SyntheticSpec spec;
    spec.dims = dims;
    spec.nnz = static_cast<offset_t>(capacity * fill);
    spec.true_rank = 4;
    spec.noise = 0.05;
    spec.zipf_alpha = {0.0};
    spec.seed = 77;
    const CooTensor x = make_synthetic(spec);
    Rng rng(78);
    const TrainTestSplit split = split_train_test(x, 0.2, rng);
    const CsfSet csf(split.train);
    const ConstraintSpec nonneg{ConstraintKind::kNonNegative};

    {
      CpdConfig cfg = default_cpd_config();
      cfg.rank = 6;
      cfg.max_outer_iterations = bench_max_outer(40);
      const CpdResult r = CpdSolver(csf, cfg).solve();
      const PredictionMetrics m = evaluate_predictions(split.test,
                                                       r.factors);
      table.print_row({TablePrinter::pct(fill, 0), "ls",
                       TablePrinter::fmt(r.relative_error, 4),
                       TablePrinter::fmt(m.rmse, 4),
                       TablePrinter::fmt(r.times.total_seconds, 3)});
    }
    {
      CpdConfig cfg;
      cfg.with_rank(6)
          .with_max_outer(bench_max_outer(40))
          .with_tolerance(1e-5)
          .with_loss(parse_loss_spec("frobenius:masked"))
          .with_constraints(ModeConstraints::broadcast(nonneg));
      CpdSolver solver(csf, cfg);
      const CpdResult r = solver.solve();
      const PredictionMetrics m = evaluate_predictions(split.test,
                                                       r.factors);
      table.print_row({TablePrinter::pct(fill, 0), "observed",
                       TablePrinter::fmt(r.relative_error, 4),
                       TablePrinter::fmt(m.rmse, 4),
                       TablePrinter::fmt(r.times.total_seconds, 3)});
    }
  }

  std::printf("\nexpectation: observed-only wins at low fill (missing != "
              "zero); the objectives converge as fill approaches 100%%.\n");
  return 0;
}
