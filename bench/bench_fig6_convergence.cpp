// Figure 6: convergence of base vs blocked AO-ADMM on a rank-50
// non-negative factorization, as a function of BOTH wall-clock time and
// outer iteration (the paper separates convergence gains from execution
// gains this way).
//
// Paper shape: blocking improves per-iteration convergence on every
// dataset; NELL converges 3.7x faster to a 3% lower error; Reddit/Patents
// converge in fewer iterations at <1% error difference.
// Besides the printed tables, each run's full trace is written to
// $AOADMM_BENCH_TRACE_DIR (default ".") as fig6_<dataset>_<variant>.csv
// and .json for plotting.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

namespace {

void write_series(const std::string& dataset, const char* variant,
                  const ConvergenceTrace& trace) {
  const char* env = std::getenv("AOADMM_BENCH_TRACE_DIR");
  const std::string dir = (env != nullptr && *env != '\0') ? env : ".";
  const std::string stem = dir + "/fig6_" + dataset + "_" + variant;
  {
    std::ofstream out(stem + ".csv");
    if (out) {
      trace.write_csv(out);
    }
  }
  {
    std::ofstream out(stem + ".json");
    if (out) {
      trace.write_json(out);
    }
  }
}

void print_series(const char* label, const ConvergenceTrace& trace) {
  std::printf("  %s:\n    iter  seconds   rel-error\n", label);
  const auto& pts = trace.points();
  // Subsample long traces to ~12 rows, always keeping first and last.
  const std::size_t stride = pts.size() > 12 ? pts.size() / 12 : 1;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i % stride == 0 || i + 1 == pts.size()) {
      std::printf("    %4u  %8.3f  %.6f\n", pts[i].outer_iteration,
                  pts[i].seconds, static_cast<double>(pts[i].relative_error));
    }
  }
}

}  // namespace

int main() {
  print_banner("Figure 6 — Convergence of base vs blocked AO-ADMM",
               "relative error vs time AND vs outer iteration, rank-50 "
               "non-negative CPD in the paper");

  CpdConfig common = default_cpd_config();
  common.max_outer_iterations = bench_max_outer(20);
  common.tolerance = 1e-6;
  // Allow more inner iterations so non-uniform convergence (the effect
  // blocking exploits) is visible.
  common.admm.max_iterations = 25;

  TablePrinter summary({"Dataset", "variant", "iters", "time(s)",
                        "final err", "row-iters"},
                       {12, 10, 8, 10, 12, 14});

  struct Run {
    std::string dataset;
    CpdResult base;
    CpdResult blocked;
  };
  std::vector<Run> runs;

  for (const NamedDataset& d : DatasetCache::instance().descriptors()) {
    const CsfSet& csf = DatasetCache::instance().csf(d.name);
    Run run;
    run.dataset = d.name;
    {
      CpdConfig cfg = common;
      cfg.variant = AdmmVariant::kBaseline;
      run.base = CpdSolver(csf, cfg).solve();
    }
    {
      CpdConfig cfg = common;
      cfg.variant = AdmmVariant::kBlocked;
      run.blocked = CpdSolver(csf, cfg).solve();
    }
    runs.push_back(std::move(run));
  }

  summary.print_header();
  for (const Run& r : runs) {
    summary.print_row({r.dataset, "base", std::to_string(r.base.outer_iterations),
                       TablePrinter::fmt(r.base.times.total_seconds, 2),
                       TablePrinter::fmt(r.base.relative_error, 6),
                       std::to_string(r.base.total_row_iterations)});
    summary.print_row({r.dataset, "blocked",
                       std::to_string(r.blocked.outer_iterations),
                       TablePrinter::fmt(r.blocked.times.total_seconds, 2),
                       TablePrinter::fmt(r.blocked.relative_error, 6),
                       std::to_string(r.blocked.total_row_iterations)});
  }

  std::printf("\nFull series (error vs time and vs iteration):\n");
  for (const Run& r : runs) {
    std::printf("\n%s\n", r.dataset.c_str());
    print_series("base", r.base.trace);
    print_series("blocked", r.blocked.trace);
    write_series(r.dataset, "base", r.base.trace);
    write_series(r.dataset, "blocked", r.blocked.trace);
  }
  std::printf("\ntraces written to %s/fig6_<dataset>_<variant>.{csv,json}\n",
              [] {
                const char* env = std::getenv("AOADMM_BENCH_TRACE_DIR");
                return (env != nullptr && *env != '\0') ? env : ".";
              }());

  std::printf("\npaper's qualitative result: blocked reaches equal/lower "
              "error in fewer iterations and less time on every dataset.\n");
  return 0;
}
