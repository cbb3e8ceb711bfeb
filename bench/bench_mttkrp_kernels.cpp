// Head-to-head MTTKRP kernel families on google-benchmark: the plain
// one-tree walk (kOneTree) and the bit-interleaved linearized kernel
// (kAlto), both over the same power-law (Zipf alpha=1.3) tensors at orders
// 3-5 and ranks {8, 16, 32, 64}. Each benchmark iteration is one full
// cyclic sweep: an MTTKRP per mode, as the CPD driver runs them.
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "common.hpp"

#include "mttkrp/alto.hpp"
#include "mttkrp/mttkrp.hpp"
#include "tensor/alto.hpp"
#include "tensor/synthetic.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

// One Zipf tensor + ONEMODE compilation per order, cached per process; the
// two kernel families time the identical sweep over the identical tree.
struct KernelSetup {
  CooTensor coo;
  CsfSet csf;
  std::map<rank_t, std::vector<Matrix>> factors;

  explicit KernelSetup(std::size_t order)
      : coo(make_synthetic(bench::zipf_workload(order))),
        csf(coo, CsfStrategy::kOneMode) {
    Rng rng(17 + static_cast<std::uint64_t>(order));
    for (const rank_t rank : {8, 16, 32, 64}) {
      std::vector<Matrix>& f = factors[rank];
      for (const index_t d : coo.dims()) {
        f.push_back(Matrix::random_uniform(d, rank, rng, 0.1, 1.0));
      }
    }
  }

  const CsfTensor& tree() const { return csf.for_mode(0); }

  static const KernelSetup& instance(std::size_t order) {
    bench::install_metrics_sidecar();
    static const KernelSetup s3(3);
    static const KernelSetup s4(4);
    static const KernelSetup s5(5);
    switch (order) {
      case 3: return s3;
      case 4: return s4;
      default: return s5;
    }
  }
};

void set_sweep_counters(benchmark::State& state, const KernelSetup& s) {
  // nnz touched per sweep: one MTTKRP per mode.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.coo.nnz()) *
                          static_cast<std::int64_t>(s.coo.order()));
}

void BM_MttkrpSweepOneTree(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  const auto rank = static_cast<rank_t>(state.range(1));
  const KernelSetup& s = KernelSetup::instance(order);
  const auto& factors = s.factors.at(rank);
  Matrix out;
  for (auto _ : state) {
    for (std::size_t m = 0; m < order; ++m) {
      mttkrp_dispatch(s.tree(), factors, m, out, MttkrpKernel::kOneTree);
      benchmark::DoNotOptimize(out.data());
    }
  }
  set_sweep_counters(state, s);
}

void BM_MttkrpSweepAlto(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  const auto rank = static_cast<rank_t>(state.range(1));
  const KernelSetup& s = KernelSetup::instance(order);
  const auto& factors = s.factors.at(rank);
  Matrix out;
  // Build the linearized index (and its partition plans) outside the timed
  // region — the solver builds it once per tensor, not once per sweep.
  mttkrp_alto(s.tree().alto_index(), factors, 0, out);
  for (auto _ : state) {
    for (std::size_t m = 0; m < order; ++m) {
      mttkrp_dispatch(s.tree(), factors, m, out, MttkrpKernel::kAlto);
      benchmark::DoNotOptimize(out.data());
    }
  }
  set_sweep_counters(state, s);
}

void sweep_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t order : {3, 4, 5}) {
    for (const std::int64_t rank : {8, 16, 32, 64}) {
      b->Args({order, rank});
    }
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_MttkrpSweepOneTree)->Apply(sweep_args);
BENCHMARK(BM_MttkrpSweepAlto)->Apply(sweep_args);

}  // namespace
}  // namespace aoadmm
