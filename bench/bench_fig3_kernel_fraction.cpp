// Figure 3: fraction of factorization time spent in MTTKRP vs ADMM vs other
// during a rank-50 (scaled: bench_rank) non-negative factorization, using
// the unblocked baseline exactly as the paper's §V.B measurement does.
//
// Paper shape to reproduce: NELL is ADMM-dominated (long, hypersparse
// modes); Amazon and Patents are MTTKRP-dominated (more non-zeros per
// slice); Reddit sits in between.
#include <cstdio>

#include "common.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

int main() {
  print_banner("Figure 3 — Fraction of time in MTTKRP and ADMM",
               "rank-50 non-negative CPD in the paper; baseline (unblocked) "
               "AO-ADMM, no sparsity optimizations");

  CpdConfig cfg = default_cpd_config();
  cfg.variant = AdmmVariant::kBaseline;
  cfg.max_outer_iterations = bench_max_outer(5);

  TablePrinter table({"Dataset", "MTTKRP", "ADMM", "OTHER", "total(s)"},
                     {12, 10, 10, 10, 12});
  table.print_header();

  for (const NamedDataset& d : DatasetCache::instance().descriptors()) {
    const CsfSet& csf = DatasetCache::instance().csf(d.name);
    const CpdResult r = CpdSolver(csf, cfg).solve();
    table.print_row({d.name, TablePrinter::pct(r.times.mttkrp_fraction()),
                     TablePrinter::pct(r.times.admm_fraction()),
                     TablePrinter::pct(r.times.other_fraction()),
                     TablePrinter::fmt(r.times.total_seconds, 3)});
  }

  std::printf("\npaper's qualitative result: NELL mostly ADMM; Amazon and "
              "Patents mostly MTTKRP.\n");
  return 0;
}
