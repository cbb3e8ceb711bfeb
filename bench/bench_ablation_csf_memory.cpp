// Ablation: CSF memory strategy — ALLMODE (one tree per mode, the paper's
// configuration, race-free root-parallel MTTKRP) vs ONEMODE (a single
// tree, ~1/order the memory, atomic scatter for non-root modes). This is
// the SPLATT trade-off the paper's implementation inherits.
#include <cstdio>

#include "common.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

int main() {
  print_banner("Ablation — CSF memory strategy (ALLMODE vs ONEMODE)",
               "same factorization on both compilations; ONEMODE trades "
               "MTTKRP speed for ~3x less tensor memory");

  TablePrinter table({"Dataset", "strategy", "CSF MB", "time(s)",
                      "mttkrp(s)", "final err"},
                     {12, 10, 10, 10, 11, 12});
  table.print_header();

  for (const std::string name : {"reddit-s", "patents-s"}) {
    const CooTensor& coo = DatasetCache::instance().coo(name);
    for (const CsfStrategy strategy :
         {CsfStrategy::kAllMode, CsfStrategy::kOneMode}) {
      const CsfSet csf(coo, strategy);
      CpdConfig cfg = default_cpd_config();
      cfg.max_outer_iterations = bench_max_outer(5);
      cfg.tolerance = 0;
      const CpdResult r = CpdSolver(csf, cfg).solve();
      table.print_row(
          {name, to_string(strategy),
           TablePrinter::fmt(static_cast<double>(csf.storage_bytes()) /
                                 (1024.0 * 1024.0),
                             1),
           TablePrinter::fmt(r.times.total_seconds, 3),
           TablePrinter::fmt(r.times.mttkrp_seconds, 3),
           TablePrinter::fmt(r.relative_error, 6)});
    }
  }

  std::printf("\nexpectation: identical errors; ONEMODE uses ~1/3 the CSF "
              "bytes and spends more time in MTTKRP (atomic scatter).\n");
  return 0;
}
