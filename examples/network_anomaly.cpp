// Network anomaly detection (the paper's cybersecurity motivation):
// factorize a source x destination x time-window traffic tensor with
// non-negativity, then flag windows whose traffic is poorly explained by
// the low-rank "normal behaviour" model.
//
// The synthetic workload has stable background flows (a few services talk
// to many clients every window) plus an injected exfiltration burst — one
// source suddenly touching many destinations in a short span of windows.
//
// Run: ./network_anomaly [--hosts 256] [--windows 48] [--rank 6]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/solver.hpp"
#include "tensor/coo.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

using namespace aoadmm;

namespace {

constexpr index_t kAnomalySource = 7;

CooTensor make_traffic(index_t hosts, index_t windows, index_t anomaly_start,
                       index_t anomaly_len, Rng& rng) {
  CooTensor x({hosts, hosts, windows});
  // Background: 8 "server" sources each talk to ~1/4 of hosts every window
  // with stable volume.
  const index_t servers = 8;
  for (index_t w = 0; w < windows; ++w) {
    for (index_t s = 0; s < servers; ++s) {
      const index_t src = s * (hosts / servers);
      for (index_t d = 0; d < hosts; d += 4) {
        const index_t dst = (d + s) % hosts;
        const index_t coord[3] = {src, dst, w};
        x.add({coord, 3}, 10.0 + 2.0 * rng.uniform());
      }
    }
    // Sparse peer-to-peer chatter.
    for (int k = 0; k < static_cast<int>(hosts) / 2; ++k) {
      const auto src = static_cast<index_t>(rng.uniform_index(hosts));
      const auto dst = static_cast<index_t>(rng.uniform_index(hosts));
      const index_t coord[3] = {src, dst, w};
      x.add({coord, 3}, 1.0 + rng.uniform());
    }
  }
  // Injected anomaly: one quiet host fans out to hundreds of destinations
  // in a narrow span of windows.
  for (index_t w = anomaly_start; w < anomaly_start + anomaly_len; ++w) {
    for (index_t d = 0; d < hosts; d += 2) {
      const index_t coord[3] = {kAnomalySource, d, w};
      x.add({coord, 3}, 25.0 + 5.0 * rng.uniform());
    }
  }
  x.deduplicate();
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto hosts = static_cast<index_t>(opts.get_int("hosts", 256));
  const auto windows = static_cast<index_t>(opts.get_int("windows", 48));
  const auto rank = static_cast<rank_t>(opts.get_int("rank", 6));
  const index_t anomaly_start = windows / 2;
  const index_t anomaly_len = 3;

  Rng rng(31337);
  const CooTensor x =
      make_traffic(hosts, windows, anomaly_start, anomaly_len, rng);
  std::printf("traffic tensor: %u x %u hosts x %u windows, %llu flows\n",
              hosts, hosts, windows,
              static_cast<unsigned long long>(x.nnz()));
  std::printf("injected anomaly: source %u fanning out in windows "
              "[%u, %u)\n\n",
              kAnomalySource, anomaly_start, anomaly_start + anomaly_len);

  const CsfSet csf(x);
  CpdConfig cfg;
  cfg.with_rank(rank).with_max_outer(40).with_tolerance(1e-5).with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  CpdSolver solver(csf, cfg);
  const CpdResult r = solver.solve();
  std::printf("factorized: %u outer iterations, relative error %.4f\n\n",
              r.outer_iterations, static_cast<double>(r.relative_error));

  // Anomaly score per window: the residual mass of that window's slice —
  // traffic the normal-behaviour model fails to explain.
  std::vector<real_t> score(windows, 0);
  const Matrix& time_factor = r.factors[2];
  for (offset_t n = 0; n < x.nnz(); ++n) {
    const index_t s = x.index(0, n);
    const index_t d = x.index(1, n);
    const index_t w = x.index(2, n);
    real_t model = 0;
    for (std::size_t f = 0; f < rank; ++f) {
      model += r.factors[0](s, f) * r.factors[1](d, f) * time_factor(w, f);
    }
    const real_t resid = x.value(n) - model;
    score[w] += resid * resid;
  }

  // Rank windows by score.
  std::vector<index_t> order(windows);
  for (index_t w = 0; w < windows; ++w) {
    order[w] = w;
  }
  std::sort(order.begin(), order.end(),
            [&](index_t a, index_t b) { return score[a] > score[b]; });

  std::printf("top-5 anomalous windows by residual mass:\n");
  int flagged_in_burst = 0;
  for (int k = 0; k < 5; ++k) {
    const index_t w = order[k];
    const bool in_burst = w >= anomaly_start && w < anomaly_start + anomaly_len;
    std::printf("  window %-4u score %10.1f %s\n", w,
                static_cast<double>(score[w]),
                in_burst ? "<-- injected anomaly" : "");
    flagged_in_burst += in_burst ? 1 : 0;
  }

  std::printf("\ndetected %d/%u injected windows in the top-5.\n",
              flagged_in_burst, anomaly_len);
  return flagged_in_burst > 0 ? 0 : 1;
}
