// Tests for the instruction-set flavors of the MTTKRP kernels
// (mttkrp/isa.hpp): every flavor the CPU supports must return the baseline
// flavor's bits for every kernel — root CSF with dense, CSR and hybrid
// leaves, non-root weighted and owner, ALTO serial / privatized / owner,
// and the dimension tree — across orders 3-5, empty slices, Zipf skew,
// ranks on and off the fixed-rank dispatch points, and 1, 3 and 4 threads.
// The baseline flavor itself (which the wider CPUs never run through the
// public entry points, portable ALTO decode included) is checked against
// the COO oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "la/blas.hpp"
#include "mttkrp/dimtree.hpp"
#include "mttkrp/isa.hpp"
#include "mttkrp/mttkrp.hpp"
#include "parallel/runtime.hpp"
#include "sparse/csr.hpp"
#include "sparse/hybrid.hpp"
#include "tensor/alto.hpp"
#include "tensor/csf.hpp"
#include "tensor/synthetic.hpp"
#include "testing/helpers.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

using detail::IsaFlavor;
using detail::MttkrpKernels;

/// Restore the global thread count on scope exit.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(max_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  int saved_;
};

/// The sweeps' tensor shapes: uniform orders 3-5, a tensor whose mode-0
/// slices are mostly empty, and a Zipf-skewed one.
std::vector<CooTensor> sweep_tensors() {
  std::vector<CooTensor> out;
  for (int order = 3; order <= 5; ++order) {
    std::vector<index_t> dims;
    for (int m = 0; m < order; ++m) {
      dims.push_back(static_cast<index_t>(5 + 3 * m));
    }
    out.push_back(testing::random_coo(
        dims, 90 * static_cast<offset_t>(order),
        static_cast<std::uint64_t>(order * 131)));
  }
  CooTensor sparse_slices({40, 9, 11});
  Rng rng(77);
  for (index_t i = 0; i < 40; i += 7) {
    for (int k = 0; k < 12; ++k) {
      const index_t c[3] = {i, static_cast<index_t>(rng.uniform_index(9)),
                            static_cast<index_t>(rng.uniform_index(11))};
      sparse_slices.add({c, 3}, rng.uniform(0.01, 1.0));
    }
  }
  sparse_slices.deduplicate();
  out.push_back(std::move(sparse_slices));
  SyntheticSpec zipf;
  zipf.dims = {120, 25, 18};
  zipf.nnz = 900;
  zipf.zipf_alpha = {1.2};
  zipf.true_rank = 0;
  zipf.seed = 91;
  out.push_back(make_synthetic(zipf));
  return out;
}

/// Zero a deterministic share of a factor so the CSR / hybrid mirrors have
/// something to compress.
Matrix sparsify(Matrix m, std::uint64_t seed) {
  Rng rng(seed);
  for (real_t& v : m.flat()) {
    if (rng.uniform() < 0.6) {
      v = 0;
    }
  }
  return m;
}

/// Every kernel of one flavor on one tensor at the current thread count,
/// each output appended to `out` in a fixed order. Arguments are prepared
/// the way the public entry points prepare them.
void run_all_kernels(const MttkrpKernels& k, const CooTensor& x,
                     rank_t rank, std::vector<Matrix>& out) {
  const std::vector<index_t>& dims = x.dims();
  const std::size_t order = dims.size();
  const std::size_t f = rank;
  const auto factors = testing::random_factors(dims, rank, 5 + rank);
  const int planned = std::max(max_threads(), 1);

  // Root kernels, one tree per root mode; CSR and hybrid leaf mirrors.
  for (std::size_t root = 0; root < order; ++root) {
    const CsfTensor csf = CsfTensor::build_for_mode(x, root);
    out.emplace_back(dims[root], f);
    k.csf_dense(csf, factors, out.back());

    auto sparse_factors = factors;
    const std::size_t leaf_mode = csf.level_mode(order - 1);
    sparse_factors[leaf_mode] = sparsify(factors[leaf_mode], 17 + root);
    const CsrMatrix csr = CsrMatrix::from_dense(sparse_factors[leaf_mode]);
    out.emplace_back(dims[root], f);
    k.csf_csr(csf, sparse_factors, csr, out.back());
    const HybridMatrix hybrid =
        HybridMatrix::from_dense(sparse_factors[leaf_mode]);
    out.emplace_back(dims[root], f);
    k.csf_hybrid(csf, sparse_factors, hybrid, out.back());
  }

  // Non-root scatter and ALTO, both reductions; one thread takes the
  // serial path whatever the schedule.
  const CsfTensor tree = CsfTensor::build_for_mode(x, 0);
  const AltoTensor& alto = tree.alto_index();
  for (const MttkrpSchedule sched :
       {MttkrpSchedule::kWeighted, MttkrpSchedule::kOwner}) {
    for (std::size_t level = 1; level < order; ++level) {
      out.emplace_back(dims[tree.level_mode(level)], f);
      k.csf_nonroot(tree, factors, level, out.back(), sched, planned);
    }
    for (std::size_t target = 0; target < order; ++target) {
      out.emplace_back(dims[target], f);
      k.alto(alto, factors, target, out.back(), sched, planned);
    }
  }

  // Dimension tree: two cyclic sweeps, each factor perturbed and
  // invalidated after its update, so both fresh and reused partials feed
  // every target.
  detail::DimTreeEngine engine(k);
  auto sweep_factors = factors;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t m = 0; m < order; ++m) {
      out.emplace_back();
      engine.mttkrp(tree, sweep_factors, m, out.back());
      for (real_t& v : sweep_factors[m].flat()) {
        v = v * real_t{0.75} + real_t{0.125};
      }
      engine.invalidate_mode(m);
    }
  }
}

/// Index of the first element whose bits differ, or -1.
std::ptrdiff_t first_bit_difference(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return 0;
  }
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (std::memcmp(&fa[i], &fb[i], sizeof(real_t)) != 0) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

constexpr rank_t kRanks[] = {1, 7, 8, 16, 33, 64};
constexpr int kThreads[] = {1, 3, 4};

class MttkrpIsa : public ::testing::TestWithParam<IsaFlavor> {};

TEST_P(MttkrpIsa, EveryFlavorMatchesBaselineBitwise) {
  const MttkrpKernels* flavor = detail::mttkrp_kernels(GetParam());
  if (flavor == nullptr) {
    GTEST_SKIP() << to_string(GetParam())
                 << " is not built here or not reported by this CPU";
  }
  const MttkrpKernels* baseline =
      detail::mttkrp_kernels(IsaFlavor::kBaseline);
  ASSERT_NE(baseline, nullptr);

  // Each tensor runs at two ranks, rotating through kRanks, so every rank
  // and every tensor meets every thread count without the full cross
  // product (which runs for tens of minutes under ThreadSanitizer).
  const std::vector<CooTensor> tensors = sweep_tensors();
  constexpr std::size_t kNumRanks = std::size(kRanks);
  ThreadGuard guard;
  for (const int threads : kThreads) {
    set_num_threads(threads);
    for (std::size_t t = 0; t < tensors.size(); ++t) {
      for (const std::size_t r : {t % kNumRanks, (t + 3) % kNumRanks}) {
        const rank_t rank = kRanks[r];
        std::vector<Matrix> want;
        run_all_kernels(*baseline, tensors[t], rank, want);
        std::vector<Matrix> got;
        run_all_kernels(*flavor, tensors[t], rank, got);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(first_bit_difference(got[i], want[i]), -1)
              << to_string(GetParam()) << " tensor " << t << " rank "
              << rank << " threads " << threads << " output " << i;
        }
      }
    }
  }
}

// The baseline flavor is the reference, so it is not an instance.
INSTANTIATE_TEST_SUITE_P(
    Flavors, MttkrpIsa,
    ::testing::Values(IsaFlavor::kX86_64_v3, IsaFlavor::kX86_64_v4),
    [](const ::testing::TestParamInfo<IsaFlavor>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        c = c == '-' ? '_' : c;
      }
      return name;
    });

TEST(MttkrpIsaBaseline, MatchesOracleEveryKernel) {
  // The order the outputs of run_all_kernels come in, against the oracle.
  const MttkrpKernels* baseline =
      detail::mttkrp_kernels(IsaFlavor::kBaseline);
  ASSERT_NE(baseline, nullptr);
  const std::vector<CooTensor> tensors = sweep_tensors();
  ThreadGuard guard;
  for (const int threads : kThreads) {
    set_num_threads(threads);
    for (const CooTensor& x : tensors) {
      const rank_t rank = 7;
      const std::vector<index_t>& dims = x.dims();
      const std::size_t order = dims.size();
      std::vector<Matrix> got;
      run_all_kernels(*baseline, x, rank, got);
      const auto factors = testing::random_factors(dims, rank, 5 + rank);

      std::size_t i = 0;
      for (std::size_t root = 0; root < order; ++root) {
        Matrix want;
        mttkrp_coo(x, factors, root, want);
        EXPECT_LT(max_abs_diff(got[i++], want), 1e-12) << "dense " << root;
        // CSR / hybrid read the sparsified leaf; compare with the dense
        // skeleton over the same factors instead.
        const CsfTensor csf = CsfTensor::build_for_mode(x, root);
        auto sparse_factors = factors;
        const std::size_t leaf_mode = csf.level_mode(order - 1);
        sparse_factors[leaf_mode] =
            sparsify(factors[leaf_mode], 17 + root);
        Matrix sparse_want;
        mttkrp_coo(x, sparse_factors, root, sparse_want);
        EXPECT_LT(max_abs_diff(got[i++], sparse_want), 1e-12)
            << "csr " << root;
        EXPECT_LT(max_abs_diff(got[i++], sparse_want), 1e-12)
            << "hybrid " << root;
      }
      const CsfTensor tree = CsfTensor::build_for_mode(x, 0);
      for (int sched = 0; sched < 2; ++sched) {
        for (std::size_t level = 1; level < order; ++level) {
          Matrix want;
          mttkrp_coo(x, factors, tree.level_mode(level), want);
          EXPECT_LT(max_abs_diff(got[i++], want), 1e-12)
              << "nonroot level " << level;
        }
        for (std::size_t target = 0; target < order; ++target) {
          Matrix want;
          mttkrp_coo(x, factors, target, want);
          EXPECT_LT(max_abs_diff(got[i++], want), 1e-12)
              << "alto target " << target;
        }
      }
      auto sweep_factors = factors;
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (std::size_t m = 0; m < order; ++m) {
          Matrix want;
          mttkrp_coo(x, sweep_factors, m, want);
          EXPECT_LT(max_abs_diff(got[i++], want), 1e-12)
              << "dimtree sweep " << sweep << " mode " << m;
          for (real_t& v : sweep_factors[m].flat()) {
            v = v * real_t{0.75} + real_t{0.125};
          }
        }
      }
      EXPECT_EQ(i, got.size());
    }
  }
}

TEST(MttkrpIsaSelection, ActiveFlavorIsTheWidestSupported) {
  IsaFlavor widest = IsaFlavor::kBaseline;
  for (const IsaFlavor f : detail::kIsaFlavors) {
    if (detail::mttkrp_kernels(f) != nullptr) {
      widest = f;
    }
  }
  EXPECT_EQ(detail::active_isa_flavor(), widest);
  EXPECT_EQ(&detail::active_mttkrp_kernels(),
            detail::mttkrp_kernels(widest));
  EXPECT_STREQ(mttkrp_isa_flavor(), to_string(widest));
}

}  // namespace
}  // namespace aoadmm
