// Ablation (paper §IV.B / future work §VI): block-size selection for
// blocked ADMM. The paper reports 50 rows as the empirical sweet spot
// between convergence benefit (small blocks) and per-block overheads
// (function calls, instruction cache) — this harness sweeps the knob.
#include <cstdio>

#include "common.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

int main() {
  print_banner("Ablation — blocked-ADMM block size",
               "time/quality across block sizes; paper picked 50 rows "
               "empirically, B=rows(one block) degenerates to the baseline "
               "convergence behaviour");

  const std::size_t block_sizes[] = {1, 8, 50, 256, 4096};
  CpdConfig common = default_cpd_config();
  common.max_outer_iterations = bench_max_outer(10);
  common.tolerance = 0;
  common.admm.max_iterations = 25;
  common.variant = AdmmVariant::kBlocked;

  TablePrinter table(
      {"Dataset", "block", "time(s)", "final err", "row-iters"},
      {12, 8, 10, 12, 14});
  table.print_header();

  for (const std::string name : {"reddit-s", "nell-s"}) {
    const CsfSet& csf = DatasetCache::instance().csf(name);
    for (const std::size_t b : block_sizes) {
      CpdConfig cfg = common;
      cfg.admm.block_size = b;
      const CpdResult r = CpdSolver(csf, cfg).solve();
      table.print_row({name, std::to_string(b),
                       TablePrinter::fmt(r.times.total_seconds, 3),
                       TablePrinter::fmt(r.relative_error, 6),
                       std::to_string(r.total_row_iterations)});
    }
  }

  std::printf("\nexpectation: small blocks minimize row-iterations (work); "
              "very small blocks pay per-block overhead; ~50 balances.\n");
  return 0;
}
