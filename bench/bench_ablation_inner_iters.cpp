// Ablation: the ADMM inner-iteration budget. Algorithm 1's inner loop runs
// "until r < eps and s < eps" with an implementation cap; the cap trades
// per-outer-iteration cost against subproblem accuracy (and thus outer
// convergence). The paper does not sweep this knob explicitly — this
// harness makes the trade-off measurable.
#include <cstdio>

#include "common.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

int main() {
  print_banner("Ablation — ADMM inner-iteration cap",
               "rank-scaled non-negative CPD; fixed 10 outer iterations; "
               "quality/time vs inner budget");

  const unsigned caps[] = {1, 2, 5, 10, 25, 50};

  TablePrinter table({"Dataset", "inner cap", "time(s)", "final err",
                      "row-iters"},
                     {12, 11, 10, 12, 14});
  table.print_header();

  for (const std::string name : {"reddit-s", "patents-s"}) {
    const CsfSet& csf = DatasetCache::instance().csf(name);
    for (const unsigned cap : caps) {
      CpdConfig cfg = default_cpd_config();
      cfg.max_outer_iterations = bench_max_outer(10);
      cfg.tolerance = 0;
      cfg.admm.max_iterations = cap;
      const CpdResult r = CpdSolver(csf, cfg).solve();
      table.print_row({name, std::to_string(cap),
                       TablePrinter::fmt(r.times.total_seconds, 3),
                       TablePrinter::fmt(r.relative_error, 6),
                       std::to_string(r.total_row_iterations)});
    }
  }

  std::printf("\nexpectation: a handful of inner iterations reaches almost "
              "the accuracy of 50 at a fraction of the time (AO-ADMM's "
              "warm-started inner problems converge fast).\n");
  return 0;
}
