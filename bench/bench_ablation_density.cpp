// Ablation (paper §V.E / future work §VI): the density threshold below
// which a factor is mirrored into a compressed format. The paper determined
// 20% empirically; automatic selection is listed as future work. This
// harness sweeps the threshold so the trade-off is measurable.
#include <cstdio>

#include "common.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

int main() {
  print_banner("Ablation — sparsity-exploitation density threshold",
               "l1-regularized CPD with CSR leaf factors across thresholds; "
               "paper uses 20%");

  const real_t thresholds[] = {0.05, 0.10, 0.20, 0.40, 0.80};
  ConstraintSpec l1{ConstraintKind::kNonNegativeL1};
  l1.lambda = 0.1;

  TablePrinter table({"Dataset", "threshold", "time(s)", "final err",
                      "sparse mttkrps"},
                     {12, 11, 10, 12, 15});
  table.print_header();

  for (const std::string name : {"reddit-s", "amazon-s"}) {
    const CsfSet& csf = DatasetCache::instance().csf(name);
    for (const real_t thr : thresholds) {
      CpdConfig cfg = default_cpd_config();
      cfg.max_outer_iterations = bench_max_outer(8);
      cfg.tolerance = 0;
      cfg.leaf_format = LeafFormat::kCsr;
      cfg.sparsity_threshold = thr;
      cfg.with_constraints(ModeConstraints::broadcast(l1));
      const CpdResult r = CpdSolver(csf, cfg).solve();
      table.print_row({name, TablePrinter::pct(thr, 0),
                       TablePrinter::fmt(r.times.total_seconds, 3),
                       TablePrinter::fmt(r.relative_error, 5),
                       std::to_string(r.sparse_mttkrp_count) + "/" +
                           std::to_string(r.mttkrp_count)});
    }
  }

  std::printf("\nexpectation: higher thresholds exploit sparsity earlier; "
              "past the crossover the CSR overhead on dense-ish factors "
              "costs more than it saves.\n");
  return 0;
}
