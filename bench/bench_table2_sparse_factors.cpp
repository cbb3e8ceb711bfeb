// Table II: effect of sparse factor-matrix data structures on total CPD
// time under l1 regularization (lambda = 1e-1), across ranks.
//
// Paper: Reddit & Amazon, ranks {50, 100, 200}, formats DENSE / CSR /
// CSR-H; sparse formats win in all cases (1.1x–2.3x), CSR-H helps Reddit
// but not Amazon. Here ranks are scaled to {16, 32, 64} (override with
// AOADMM_BENCH_TABLE2_RANKS="16,32,64"); NELL and Patents are omitted for
// the paper's reason — they do not converge to sparse factors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "sparse/density.hpp"
#include "util/timer.hpp"

using namespace aoadmm;
using namespace aoadmm::bench;

namespace {

std::vector<rank_t> table2_ranks() {
  const char* env = std::getenv("AOADMM_BENCH_TABLE2_RANKS");
  if (env == nullptr || *env == '\0') {
    return {16, 32, 64};
  }
  std::vector<rank_t> out;
  std::string s(env);
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma - pos);
    if (!tok.empty()) {
      out.push_back(static_cast<rank_t>(std::strtol(tok.c_str(), nullptr, 10)));
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main() {
  print_banner("Table II — Sparse factor structures during MTTKRP",
               "total CPD seconds under l1 (lambda=1e-1) per format; paper "
               "ranks {50,100,200} scaled to {16,32,64}");

  ConstraintSpec l1{ConstraintKind::kNonNegativeL1};
  l1.lambda = 0.1;  // the paper's 1e-1 * ||.||_1 on all factors

  const auto ranks = table2_ranks();
  TablePrinter table({"Dataset", "rank", "format", "time(s)", "final err",
                      "leaf density", "sparse mttkrps"},
                     {12, 7, 9, 10, 12, 14, 15});
  table.print_header();

  for (const std::string name : {"reddit-s", "amazon-s"}) {
    const CsfSet& csf = DatasetCache::instance().csf(name);
    for (const rank_t rank : ranks) {
      for (const LeafFormat fmt :
           {LeafFormat::kDense, LeafFormat::kCsr, LeafFormat::kHybrid}) {
        CpdConfig cfg = default_cpd_config();
        cfg.rank = rank;
        cfg.max_outer_iterations = bench_max_outer(8);
        cfg.tolerance = 0;  // fixed outer count => comparable times
        cfg.leaf_format = fmt;
        cfg.sparsity_threshold = 0.20;  // paper §V.E
        cfg.with_constraints(ModeConstraints::broadcast(l1));
        const CpdResult r = CpdSolver(csf, cfg).solve();

        // The factor stored sparsely during MTTKRP is the longest mode's
        // (the leaf of every CSF tree); report its final density.
        real_t leaf_density = 1;
        std::size_t longest = 0;
        for (std::size_t m = 1; m < r.factors.size(); ++m) {
          if (r.factors[m].rows() > r.factors[longest].rows()) {
            longest = m;
          }
        }
        leaf_density = r.factor_density[longest];

        table.print_row(
            {name, std::to_string(rank), to_string(fmt),
             TablePrinter::fmt(r.times.total_seconds, 3),
             TablePrinter::fmt(r.relative_error, 5),
             TablePrinter::pct(leaf_density),
             std::to_string(r.sparse_mttkrp_count) + "/" +
                 std::to_string(r.mttkrp_count)});
      }
    }
  }

  // Kernel-level view: time ONLY the MTTKRP that compression accelerates,
  // using the converged (sparse) factors of an l1 run. Total factorization
  // time above includes ADMM, which grows as F² and dilutes the gain.
  std::printf("\nKernel-level MTTKRP time on the converged sparse factors "
              "(mode-0 tree, %d repetitions):\n", 10);
  TablePrinter kern({"Dataset", "rank", "leaf density", "DENSE(s)",
                     "CSR(s)", "CSR-H(s)", "best speedup"},
                    {12, 7, 14, 10, 9, 10, 13});
  kern.print_header();
  for (const std::string name : {"reddit-s", "amazon-s"}) {
    const CsfSet& csf = DatasetCache::instance().csf(name);
    const CsfTensor& tree = csf.for_mode(0);
    for (const rank_t rank : ranks) {
      CpdConfig cfg = default_cpd_config();
      cfg.rank = rank;
      cfg.max_outer_iterations = bench_max_outer(8);
      cfg.tolerance = 0;
      cfg.with_constraints(ModeConstraints::broadcast(l1));
      const CpdResult r = CpdSolver(csf, cfg).solve();

      const std::size_t leaf_mode = tree.level_mode(2);
      const Matrix& leaf_dense = r.factors[leaf_mode];
      const DensityStats stats = measure_density(leaf_dense);
      const CsrMatrix leaf_csr = CsrMatrix::from_dense(leaf_dense);
      const HybridMatrix leaf_hyb = HybridMatrix::from_dense(leaf_dense,
                                                             stats);
      Matrix out;
      const int reps = 10;
      Timer t_dense;
      Timer t_csr;
      Timer t_hyb;
      for (int rep = 0; rep < reps; ++rep) {
        {
          const ScopedTimer t(t_dense);
          mttkrp_csf(tree, r.factors, out);
        }
        {
          const ScopedTimer t(t_csr);
          mttkrp_csf_csr(tree, r.factors, leaf_csr, out);
        }
        {
          const ScopedTimer t(t_hyb);
          mttkrp_csf_hybrid(tree, r.factors, leaf_hyb, out);
        }
      }
      const double best =
          std::min(t_csr.seconds(), t_hyb.seconds());
      kern.print_row({name, std::to_string(rank),
                      TablePrinter::pct(stats.density),
                      TablePrinter::fmt(t_dense.seconds(), 3),
                      TablePrinter::fmt(t_csr.seconds(), 3),
                      TablePrinter::fmt(t_hyb.seconds(), 3),
                      TablePrinter::fmt(t_dense.seconds() /
                                            (best > 0 ? best : 1e-9), 2) +
                          "x"});
    }
  }

  std::printf("\npaper's qualitative result: CSR and CSR-H beat DENSE once "
              "factors are sparse; CSR-H helps Reddit but not Amazon.\n");
  return 0;
}
