// Shared driver for the two thread-scaling figures (Fig. 4 baseline,
// Fig. 5 blocked): run the same rank-R non-negative factorization at each
// thread count and report speedup over 1 thread.
#pragma once

#include <cstdio>

#include "common.hpp"
#include "parallel/runtime.hpp"

namespace aoadmm::bench {

inline int run_scaling_figure(const char* title, AdmmVariant variant) {
  print_banner(title,
               "rank-50 non-negative CPD in the paper; speedup relative to "
               "1 thread. NOTE: flat curves on a 1-core container are "
               "expected — rerun on a multicore host for the paper's shape.");

  CpdConfig cfg = default_cpd_config();
  cfg.variant = variant;
  cfg.max_outer_iterations = bench_max_outer(5);
  cfg.tolerance = 0;  // fixed work per run so times are comparable
  const auto threads = bench_thread_sweep();

  TablePrinter table({"Dataset", "threads", "time(s)", "speedup"},
                     {12, 10, 12, 10});
  table.print_header();

  const int restore_threads = max_threads();
  for (const NamedDataset& d : DatasetCache::instance().descriptors()) {
    const CsfSet& csf = DatasetCache::instance().csf(d.name);
    double t1 = 0;
    for (const int t : threads) {
      set_num_threads(t);
      const CpdResult r = CpdSolver(csf, cfg).solve();
      if (t == 1) {
        t1 = r.times.total_seconds;
      }
      const double speedup =
          r.times.total_seconds > 0 ? t1 / r.times.total_seconds : 0;
      table.print_row({d.name, std::to_string(t),
                       TablePrinter::fmt(r.times.total_seconds, 3),
                       TablePrinter::fmt(speedup, 2) + "x"});
    }
  }
  set_num_threads(restore_threads);
  return 0;
}

}  // namespace aoadmm::bench
