// Ablation: session reuse. The CpdSolver session hoists every allocation
// and precomputation (tensor norm, prox operators, ADMM scratch + Cholesky
// system, MTTKRP workspaces, factor/dual storage) out of the solve path,
// so repeated solves — the parameter-sweep and warm-restart workload the
// session API exists for — pay none of it again. This harness measures
// that: per-solve wall time and aligned-allocator traffic for (a) a fresh
// session per solve, (b) repeat cold solves on one session, and (c) warm
// starts on one session.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common.hpp"
#include "core/solver.hpp"
#include "util/aligned.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

namespace {

struct Sample {
  double seconds = 0;
  std::uint64_t allocs = 0;
  std::uint64_t inner_iters = 0;
  real_t err = 0;
};

Sample measure(const char* label, const std::function<CpdResult()>& run) {
  const AlignedAllocStats before = aligned_alloc_stats();
  const CpdResult r = run();
  const AlignedAllocStats after = aligned_alloc_stats();
  Sample s;
  s.seconds = r.times.total_seconds;
  s.allocs = after.calls - before.calls;
  s.inner_iters = r.total_inner_iterations;
  s.err = r.relative_error;
  (void)label;
  return s;
}

}  // namespace

int main() {
  print_banner("Ablation — solver session reuse",
               "repeat solves on one CpdSolver vs a fresh session each "
               "time; aligned allocations counted per solve");

  const unsigned repeats = 4;

  TablePrinter table({"Dataset", "mode", "solve", "time(s)", "allocs",
                      "inner", "err"},
                     {12, 14, 7, 10, 10, 9, 10});
  table.print_header();

  for (const std::string name : {"reddit-s", "patents-s"}) {
    const CsfSet& csf = DatasetCache::instance().csf(name);
    CpdConfig cfg = default_cpd_config();
    cfg.max_outer_iterations = bench_max_outer(10);
    cfg.tolerance = 0;
    cfg.record_trace = false;

    // (a) Fresh session per solve — construction + first-touch every time.
    for (unsigned i = 1; i <= repeats; ++i) {
      const Sample s = measure("fresh", [&] {
        CpdSolver solver(csf, cfg);
        return solver.solve();
      });
      table.print_row({name, "fresh-session", std::to_string(i),
                       TablePrinter::fmt(s.seconds, 3),
                       std::to_string(s.allocs),
                       std::to_string(s.inner_iters),
                       TablePrinter::fmt(s.err, 6)});
    }

    // (b) One session, repeated cold solves — buffers stay warm.
    {
      CpdSolver solver(csf, cfg);
      for (unsigned i = 1; i <= repeats; ++i) {
        const Sample s = measure("reused", [&] { return solver.solve(); });
        table.print_row({name, "reused-cold", std::to_string(i),
                         TablePrinter::fmt(s.seconds, 3),
                         std::to_string(s.allocs),
                         std::to_string(s.inner_iters),
                         TablePrinter::fmt(s.err, 6)});
      }
    }

    // (c) One session, warm starts from the previous model.
    {
      CpdSolver solver(csf, cfg);
      CpdResult prev = solver.solve();
      for (unsigned i = 1; i <= repeats; ++i) {
        const Sample s = measure("warm", [&] {
          return solver.solve_warm(KruskalTensor(prev.factors));
        });
        table.print_row({name, "reused-warm", std::to_string(i),
                         TablePrinter::fmt(s.seconds, 3),
                         std::to_string(s.allocs),
                         std::to_string(s.inner_iters),
                         TablePrinter::fmt(s.err, 6)});
      }
    }
  }

  std::printf("\nexpectation: reused-cold solves after the first report "
              "(near-)zero aligned allocations — the steady-state loop is "
              "allocation-free — and reused-warm solves finish in fewer "
              "inner iterations than any cold solve.\n");
  return 0;
}
