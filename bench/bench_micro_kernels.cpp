// Kernel-level microbenchmarks on google-benchmark: MTTKRP variants, the
// ADMM inner step, and the dense-LA primitives that make up ADMM. These
// complement the paper-table harnesses by exposing each kernel in
// isolation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common.hpp"

#include "core/admm.hpp"
#include "core/loss.hpp"
#include "core/loss_solve.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "mttkrp/mttkrp.hpp"
#include "parallel/runtime.hpp"
#include "tensor/synthetic.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

// The x86-64 level the kernels run at, in the report's context stanza, so a
// gate on a kernel ratio can say which flavor it measured.
const bool kIsaContext = [] {
  benchmark::AddCustomContext("isa_flavor",
                              detail::to_string(detail::active_isa_flavor()));
  return true;
}();

SyntheticSpec micro_tensor_spec() {
  SyntheticSpec spec;
  spec.dims = {4000, 3000, 6000};
  spec.nnz = 150000;
  spec.true_rank = 4;
  spec.zipf_alpha = {1.0};
  spec.seed = 7;
  return spec;
}

const CooTensor& micro_tensor() {
  bench::install_metrics_sidecar();  // micro benches bypass DatasetCache
  static const CooTensor x = make_synthetic(micro_tensor_spec());
  return x;
}

const CsfTensor& micro_csf() {
  static const CsfTensor csf = CsfTensor::build_for_mode(micro_tensor(), 0);
  return csf;
}

std::vector<Matrix> micro_factors(rank_t rank, real_t zero_prob = 0) {
  Rng rng(11);
  std::vector<Matrix> out;
  for (const index_t d : micro_tensor().dims()) {
    Matrix m = Matrix::random_uniform(d, rank, rng, 0.1, 1.0);
    if (zero_prob > 0) {
      for (auto& v : m.flat()) {
        if (rng.uniform() < zero_prob) {
          v = 0;
        }
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

void BM_MttkrpCsfDense(benchmark::State& state) {
  const auto rank = static_cast<rank_t>(state.range(0));
  const auto factors = micro_factors(rank);
  Matrix out;
  for (auto _ : state) {
    mttkrp_csf(micro_csf(), factors, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(micro_tensor().nnz()));
}
BENCHMARK(BM_MttkrpCsfDense)->Arg(16)->Arg(64);

void BM_MttkrpCsfCsr(benchmark::State& state) {
  const auto rank = static_cast<rank_t>(state.range(0));
  auto factors = micro_factors(rank, 0.9);
  const std::size_t leaf_mode = micro_csf().level_mode(2);
  const CsrMatrix leaf = CsrMatrix::from_dense(factors[leaf_mode]);
  Matrix out;
  for (auto _ : state) {
    mttkrp_csf_csr(micro_csf(), factors, leaf, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(micro_tensor().nnz()));
}
BENCHMARK(BM_MttkrpCsfCsr)->Arg(16)->Arg(64);

void BM_MttkrpCsfHybrid(benchmark::State& state) {
  const auto rank = static_cast<rank_t>(state.range(0));
  auto factors = micro_factors(rank, 0.9);
  const std::size_t leaf_mode = micro_csf().level_mode(2);
  const HybridMatrix leaf = HybridMatrix::from_dense(factors[leaf_mode]);
  Matrix out;
  for (auto _ : state) {
    mttkrp_csf_hybrid(micro_csf(), factors, leaf, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(micro_tensor().nnz()));
}
BENCHMARK(BM_MttkrpCsfHybrid)->Arg(16)->Arg(64);

// -----------------------------------------------------------------------
// The paper's sparse-factor wins are a MEMORY-BOUND effect: its Amazon
// factor is ~28 GB-touched per MTTKRP, far beyond LLC. This pair
// reproduces that regime with a long leaf mode whose factor (~200 MB at
// rank 64) cannot be cache resident, accessed in random order.
// -----------------------------------------------------------------------

struct MemoryBoundSetup {
  CooTensor coo{std::vector<index_t>{512, 256, 400000}};
  CsfTensor csf;
  std::vector<Matrix> factors;
  CsrMatrix leaf_csr;

  MemoryBoundSetup() {
    Rng rng(99);
    coo.reserve(1200000);
    std::vector<index_t> c(3);
    for (int n = 0; n < 1200000; ++n) {
      c[0] = static_cast<index_t>(rng.uniform_index(512));
      c[1] = static_cast<index_t>(rng.uniform_index(256));
      c[2] = static_cast<index_t>(rng.uniform_index(400000));
      coo.add(c, rng.uniform(0.1, 1.0));
    }
    coo.deduplicate();
    csf = CsfTensor::build_for_mode(coo, 0);
    for (const index_t d : coo.dims()) {
      Matrix m = Matrix::random_uniform(d, 64, rng, 0.1, 1.0);
      factors.push_back(std::move(m));
    }
    // Sparsify the long leaf factor to 10% density.
    Matrix& leaf = factors[csf.level_mode(2)];
    for (auto& v : leaf.flat()) {
      if (rng.uniform() < 0.9) {
        v = 0;
      }
    }
    leaf_csr = CsrMatrix::from_dense(leaf);
  }

  static const MemoryBoundSetup& instance() {
    static const MemoryBoundSetup s;
    return s;
  }
};

void BM_MttkrpMemoryBoundDense(benchmark::State& state) {
  const auto& s = MemoryBoundSetup::instance();
  Matrix out;
  for (auto _ : state) {
    mttkrp_csf(s.csf, s.factors, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.coo.nnz()));
}
BENCHMARK(BM_MttkrpMemoryBoundDense)->Unit(benchmark::kMillisecond);

void BM_MttkrpMemoryBoundCsr(benchmark::State& state) {
  const auto& s = MemoryBoundSetup::instance();
  Matrix out;
  for (auto _ : state) {
    mttkrp_csf_csr(s.csf, s.factors, s.leaf_csr, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.coo.nnz()));
}
BENCHMARK(BM_MttkrpMemoryBoundCsr)->Unit(benchmark::kMillisecond);

// -----------------------------------------------------------------------
// Non-root scatter strategies (the atomic-free MTTKRP work): one power-law
// order-3 tensor, one tree rooted at mode 0, target mode 1, and the two
// scatter policies head to head (the per-element-atomic baseline they
// replaced is recorded in BENCH_nonroot_speedup.json).
// AOADMM_BENCH_NONROOT_NNZ scales the tensor (default 1M non-zeros; the
// committed speedup numbers use 5M).
// -----------------------------------------------------------------------

struct NonRootSetup {
  CooTensor coo;
  CsfTensor csf;
  std::vector<Matrix> factors;

  NonRootSetup() {
    SyntheticSpec spec;
    spec.dims = {3000, 40000, 5000};
    spec.nnz = 1000000;
    if (const char* env = std::getenv("AOADMM_BENCH_NONROOT_NNZ")) {
      spec.nnz = static_cast<offset_t>(std::strtoull(env, nullptr, 10));
    }
    spec.zipf_alpha = {1.1};  // power-law slice sizes: the imbalanced case
    spec.true_rank = 4;
    spec.seed = 1234;
    coo = make_synthetic(spec);
    csf = CsfTensor::build_for_mode(coo, 0);
    Rng rng(55);
    for (const index_t d : coo.dims()) {
      factors.push_back(Matrix::random_uniform(d, 32, rng, 0.1, 1.0));
    }
  }

  static const NonRootSetup& instance() {
    static const NonRootSetup s;
    return s;
  }
};

void run_nonroot(benchmark::State& state, MttkrpSchedule schedule) {
  const auto& s = NonRootSetup::instance();
  const int threads = static_cast<int>(state.range(0));
  const int saved = max_threads();
  set_num_threads(threads);
  Matrix out;
  for (auto _ : state) {
    mttkrp_csf_nonroot(s.csf, s.factors, 1, out, schedule);
    benchmark::DoNotOptimize(out.data());
  }
  set_num_threads(saved);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.coo.nnz()));
}

void BM_MttkrpNonRootPrivatized(benchmark::State& state) {
  run_nonroot(state, MttkrpSchedule::kWeighted);
}
BENCHMARK(BM_MttkrpNonRootPrivatized)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MttkrpNonRootOwner(benchmark::State& state) {
  run_nonroot(state, MttkrpSchedule::kOwner);
}
BENCHMARK(BM_MttkrpNonRootOwner)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Root kernel on the same power-law tensor: nnz-weighted static chunks of
// root slices (the scheduling half of the atomic-free work).
void BM_MttkrpRootWeighted(benchmark::State& state) {
  const auto& s = NonRootSetup::instance();
  Matrix out;
  for (auto _ : state) {
    mttkrp_csf(s.csf, s.factors, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.coo.nnz()));
}
BENCHMARK(BM_MttkrpRootWeighted)->Unit(benchmark::kMillisecond);

void BM_CsrConstruction(benchmark::State& state) {
  const auto factors = micro_factors(16, 0.9);
  const Matrix& leaf = factors[2];
  for (auto _ : state) {
    const CsrMatrix csr = CsrMatrix::from_dense(leaf);
    benchmark::DoNotOptimize(csr.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(leaf.size()));
}
BENCHMARK(BM_CsrConstruction);

void BM_AdmmStep(benchmark::State& state) {
  const auto variant = static_cast<int>(state.range(0));
  const std::size_t rows = 20000;
  const rank_t f = 16;
  Rng rng(3);
  const Matrix w = Matrix::random_normal(4 * f, f, rng);
  Matrix g;
  gram(w, g);
  const Matrix k = Matrix::random_uniform(rows, f, rng, 0, 1);
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmOptions opts;
  opts.max_iterations = 5;
  opts.tolerance = 0;  // run exactly 5 inner iterations per call
  AdmmScratch scratch;
  Matrix h(rows, f);
  Matrix u(rows, f);
  for (auto _ : state) {
    if (variant == 0) {
      admm_update(h, u, k, g, *prox, opts, scratch);
    } else {
      admm_update_blocked(h, u, k, g, *prox, opts, scratch);
    }
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows) * 5);
}
BENCHMARK(BM_AdmmStep)->Arg(0)->Arg(1);  // 0=baseline, 1=blocked

// The generalized per-row two-split solver (non-quadratic / masked
// losses). Separate from BM_AdmmStep on purpose: that benchmark IS the
// Frobenius hot path and must not move when the loss zoo changes, while
// this one tracks the per-row machinery (row Gram assembly, one Cholesky
// per row, elementwise loss prox) across the loss menu.
void BM_LossRowSolve(benchmark::State& state) {
  static const LossSpec kSpecs[] = {
      {LossKind::kFrobenius, 1, true},  // masked Frobenius (completion)
      {LossKind::kKL, 1, true},
      {LossKind::kHuber, 0.5, true},
      {LossKind::kL1, 1, true},
  };
  const LossSpec spec = kSpecs[state.range(0)];
  const auto loss = make_loss(spec);
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  const rank_t f = 16;
  std::vector<Matrix> factors = micro_factors(f);
  Matrix u_h(factors[0].rows(), f);
  AdmmOptions opts;
  opts.max_iterations = 5;
  opts.tolerance = 0;  // run exactly 5 inner iterations per row per call
  LossModeState split;
  split.t.resize(micro_csf().nnz());
  split.u_t.resize(micro_csf().nnz());
  for (auto _ : state) {
    loss_mode_update(micro_csf(), factors, u_h, 0, *loss, *prox, opts, {},
                     split);
    benchmark::DoNotOptimize(factors[0].data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(micro_csf().nnz()) * 5);
}
BENCHMARK(BM_LossRowSolve)
    ->Arg(0)   // frobenius:masked
    ->Arg(1)   // kl
    ->Arg(2)   // huber:0.5
    ->Arg(3)   // l1
    ->Unit(benchmark::kMillisecond);

void BM_Cholesky(benchmark::State& state) {
  const auto f = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const Matrix w = Matrix::random_normal(2 * f, f, rng);
  Matrix g;
  gram(w, g);
  for (std::size_t i = 0; i < f; ++i) {
    g(i, i) += 1.0;
  }
  for (auto _ : state) {
    const Cholesky chol(g);
    benchmark::DoNotOptimize(chol.lower().data());
  }
}
BENCHMARK(BM_Cholesky)->Arg(16)->Arg(64)->Arg(200);

/// The rank-16, 20,000-row system both solve-rows benchmarks run. Every
/// iteration restores `rhs` from `fresh` outside the timer: solving in
/// place again and again shrinks the rows by up to 1/λmin(A) per solve,
/// to subnormal numbers after about 400 solves, and subnormal arithmetic
/// runs several times slower: the faster variant, which runs more
/// iterations, would be timed on subnormals and the slower one would not.
struct SolveRowsSystem {
  Cholesky chol;
  Matrix fresh;
  Matrix rhs;

  void reset(benchmark::State& state) {
    state.PauseTiming();
    std::copy(fresh.data(), fresh.data() + fresh.size(), rhs.data());
    state.ResumeTiming();
  }
};

SolveRowsSystem solve_rows_system() {
  const std::size_t f = 16;
  const std::size_t rows = 20000;
  Rng rng(6);
  const Matrix w = Matrix::random_normal(2 * f, f, rng);
  Matrix g;
  gram(w, g);
  for (std::size_t i = 0; i < f; ++i) {
    g(i, i) += 1.0;
  }
  Matrix fresh = Matrix::random_normal(rows, f, rng);
  Matrix rhs = fresh;
  return {Cholesky(g), std::move(fresh), std::move(rhs)};
}

void BM_CholeskySolveRows(benchmark::State& state) {
  SolveRowsSystem s = solve_rows_system();
  for (auto _ : state) {
    s.reset(state);
    s.chol.solve_rows_inplace(s.rhs);
    benchmark::DoNotOptimize(s.rhs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.rhs.rows()));
}
BENCHMARK(BM_CholeskySolveRows);

// The same system solved one row at a time: CI gates the ratio of the two
// so the panel substitution's gain cannot erode unseen.
void BM_CholeskySolveRowsOneAtATime(benchmark::State& state) {
  SolveRowsSystem s = solve_rows_system();
  for (auto _ : state) {
    s.reset(state);
    for (std::size_t i = 0; i < s.rhs.rows(); ++i) {
      s.chol.solve_inplace(s.rhs.row(i));
    }
    benchmark::DoNotOptimize(s.rhs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.rhs.rows()));
}
BENCHMARK(BM_CholeskySolveRowsOneAtATime);

void BM_Gram(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const Matrix a = Matrix::random_normal(rows, 16, rng);
  Matrix g;
  for (auto _ : state) {
    gram(a, g);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_Gram)->Arg(10000)->Arg(100000);

void BM_ProxApply(benchmark::State& state) {
  const auto kind = static_cast<ConstraintKind>(state.range(0));
  ConstraintSpec spec;
  spec.kind = kind;
  spec.lambda = 0.1;
  const auto prox = make_prox(spec);
  Rng rng(8);
  Matrix h = Matrix::random_uniform(50000, 16, rng, -1, 1);
  for (auto _ : state) {
    prox->apply(h, 0, h.rows(), 1.0);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.size()));
}
BENCHMARK(BM_ProxApply)
    ->Arg(static_cast<int>(ConstraintKind::kNonNegative))
    ->Arg(static_cast<int>(ConstraintKind::kL1))
    ->Arg(static_cast<int>(ConstraintKind::kSimplex));

void BM_CsfBuild(benchmark::State& state) {
  for (auto _ : state) {
    const CsfTensor csf = CsfTensor::build_for_mode(micro_tensor(), 0);
    benchmark::DoNotOptimize(csf.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(micro_tensor().nnz()));
}
BENCHMARK(BM_CsfBuild);

}  // namespace
}  // namespace aoadmm
