// Tests for the ALTO-style linearized MTTKRP kernel: structural invariants
// of the bit-interleaved AltoTensor (sorted codes, encode/decode roundtrip,
// bit budget), COO-oracle agreement across orders / ranks / schedules /
// thread counts, bitwise determinism of the atomic-free variants, cache
// invalidation under value-only patching, and end-to-end solver agreement
// with the one-tree baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/cpd.hpp"
#include "core/solver.hpp"
#include "la/blas.hpp"
#include "mttkrp/alto.hpp"
#include "mttkrp/mttkrp.hpp"
#include "parallel/runtime.hpp"
#include "tensor/alto.hpp"
#include "tensor/csf.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

/// Restore the global thread count on scope exit.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(max_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  int saved_;
};

TEST(AltoTensor, LinearizableBitBudget) {
  EXPECT_TRUE(alto_linearizable(std::vector<index_t>{100, 100, 100}));
  // 4 x 20 bits = 80 > 64.
  EXPECT_FALSE(alto_linearizable(std::vector<index_t>{
      1u << 20, 1u << 20, 1u << 20, 1u << 20}));
  // Length-1 modes contribute zero bits.
  EXPECT_TRUE(alto_linearizable(std::vector<index_t>{1u << 31, 1u << 31, 1}));
}

TEST(AltoTensor, BuildInvariantsAndRoundtrip) {
  const std::vector<index_t> dims{13, 37, 9, 21};
  const CooTensor x = testing::random_coo(dims, 700, 601);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 2);
  const AltoTensor alto = AltoTensor::build(csf);

  EXPECT_EQ(alto.order(), dims.size());
  EXPECT_EQ(alto.nnz(), csf.nnz());
  std::uint32_t bit_sum = 0;
  for (std::size_t m = 0; m < dims.size(); ++m) {
    bit_sum += alto.mode_bits(m);
  }
  EXPECT_EQ(alto.total_bits(), bit_sum);
  EXPECT_LE(alto.total_bits(), 64u);
  EXPECT_GT(alto.storage_bytes(), 0u);

  const auto codes = alto.codes();
  std::vector<index_t> coords(dims.size());
  for (std::size_t n = 0; n < codes.size(); ++n) {
    if (n > 0) {
      EXPECT_LT(codes[n - 1], codes[n]) << "codes not strictly sorted at "
                                        << n;
    }
    for (std::size_t m = 0; m < dims.size(); ++m) {
      coords[m] = alto.decode_mode(codes[n], m);
      EXPECT_LT(coords[m], dims[m]) << "nz " << n << " mode " << m;
    }
    EXPECT_EQ(alto.encode(coords), codes[n]) << "roundtrip at nz " << n;
  }
}

TEST(AltoTensor, NnzPartitionIsEvenAndCached) {
  const std::vector<index_t> dims{25, 19, 31};
  const CooTensor x = testing::random_coo(dims, 1500, 602);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);
  const AltoTensor& alto = csf.alto_index();

  const std::vector<std::size_t>& bounds = alto.nnz_partition(4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), static_cast<std::size_t>(alto.nnz()));
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    EXPECT_LE(bounds[c], bounds[c + 1]);
    // Even split: chunk sizes differ by at most one.
    const std::size_t len = bounds[c + 1] - bounds[c];
    EXPECT_NEAR(static_cast<double>(len),
                static_cast<double>(alto.nnz()) / 4.0, 1.0);
  }
  EXPECT_EQ(&bounds, &alto.nnz_partition(4));
  // The CSF tree hands out one shared index.
  EXPECT_EQ(&alto, &csf.alto_index());
}

using SweepParam = std::tuple<int, int, MttkrpSchedule>;

class MttkrpAltoSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MttkrpAltoSweep, MatchesOracleEveryTargetSerialAndOversubscribed) {
  const auto [order, rank, schedule] = GetParam();
  std::vector<index_t> dims;
  for (int m = 0; m < order; ++m) {
    dims.push_back(static_cast<index_t>(7 + 2 * m));
  }
  const auto seed = static_cast<std::uint64_t>(order * 613 + rank);
  const CooTensor x =
      testing::random_coo(dims, 90 * static_cast<offset_t>(order), seed);
  const auto factors =
      testing::random_factors(dims, static_cast<rank_t>(rank), seed + 1);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);
  const AltoTensor& alto = csf.alto_index();

  ThreadGuard guard;
  for (const int threads : {1, 2 * max_threads() + 3}) {
    set_num_threads(threads);
    for (std::size_t target = 0; target < dims.size(); ++target) {
      Matrix k;
      mttkrp_alto(alto, factors, target, k, schedule);
      Matrix k_oracle;
      mttkrp_coo(x, factors, target, k_oracle);
      EXPECT_LT(max_abs_diff(k, k_oracle), 1e-12)
          << "order " << order << " rank " << rank << " schedule "
          << to_string(schedule) << " threads " << threads << " target "
          << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersRanksSchedules, MttkrpAltoSweep,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Values(1, 7, 8, 32, 33),
                       ::testing::Values(MttkrpSchedule::kWeighted,
                                         MttkrpSchedule::kOwner)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "order" + std::to_string(std::get<0>(info.param)) + "_rank" +
             std::to_string(std::get<1>(info.param)) + "_" +
             to_string(std::get<2>(info.param));
    });

TEST(MttkrpAlto, WeightedAndOwnerAreBitwiseDeterministic) {
  const std::vector<index_t> dims{40, 25, 30};
  const CooTensor x = testing::random_coo(dims, 2500, 603);
  const auto factors = testing::random_factors(dims, 9, 604);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);
  const AltoTensor& alto = csf.alto_index();

  ThreadGuard guard;
  set_num_threads(2 * max_threads() + 5);
  for (const MttkrpSchedule s :
       {MttkrpSchedule::kWeighted, MttkrpSchedule::kOwner}) {
    for (std::size_t target = 0; target < dims.size(); ++target) {
      Matrix first;
      mttkrp_alto(alto, factors, target, first, s);
      for (int rep = 0; rep < 3; ++rep) {
        Matrix again;
        mttkrp_alto(alto, factors, target, again, s);
        ASSERT_EQ(first.rows(), again.rows());
        ASSERT_EQ(first.cols(), again.cols());
        for (std::size_t i = 0; i < first.rows() * first.cols(); ++i) {
          ASSERT_EQ(first.data()[i], again.data()[i])
              << to_string(s) << " target " << target << " rep " << rep
              << " element " << i;
        }
      }
    }
  }
}

TEST(MttkrpAlto, DispatchRoutesThroughTheLinearizedKernel) {
  const std::vector<index_t> dims{16, 12, 20};
  const CooTensor x = testing::random_coo(dims, 500, 605);
  const auto factors = testing::random_factors(dims, 11, 606);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);

  for (std::size_t target = 0; target < dims.size(); ++target) {
    Matrix k;
    mttkrp_dispatch(csf, factors, target, k, MttkrpKernel::kAlto);
    Matrix k_oracle;
    mttkrp_coo(x, factors, target, k_oracle);
    EXPECT_LT(max_abs_diff(k, k_oracle), 1e-12) << "target " << target;
  }
}

TEST(MttkrpAlto, PatchValuesInvalidatesTheCachedIndex) {
  const std::vector<index_t> dims{14, 10, 12};
  CooTensor x = testing::random_coo(dims, 400, 607);
  const auto factors = testing::random_factors(dims, 6, 608);
  CsfSet set(x, CsfStrategy::kOneMode, /*track_value_patching=*/true);
  const CsfTensor& tree = set.for_mode(0);

  Matrix before;
  mttkrp_alto(tree.alto_index(), factors, 1, before,
              MttkrpSchedule::kWeighted);

  // Value-only churn: scale every non-zero; structure unchanged.
  for (offset_t n = 0; n < x.nnz(); ++n) {
    x.value(n) *= real_t{2};
  }
  set.patch_values(x);

  Matrix after;
  mttkrp_alto(tree.alto_index(), factors, 1, after,
              MttkrpSchedule::kWeighted);
  Matrix k_oracle;
  mttkrp_coo(x, factors, 1, k_oracle);
  EXPECT_LT(max_abs_diff(after, k_oracle), 1e-12)
      << "stale ALTO values served after patch_values";
  // MTTKRP is linear in the values, so the patched result is exactly 2x.
  for (std::size_t i = 0; i < before.rows() * before.cols(); ++i) {
    EXPECT_NEAR(after.data()[i], 2 * before.data()[i], 1e-12);
  }
}

TEST(MttkrpAlto, SolverRejectsIncoherentAltoRequests) {
  const std::vector<index_t> dims{12, 10, 14};
  const CooTensor x = testing::random_coo(dims, 300, 609);
  CpdConfig cfg;
  cfg.with_rank(4).with_max_outer(2);

  // alto needs the one-mode compilation.
  {
    const CsfSet all(x);
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kAlto);
    EXPECT_THROW(CpdSolver(all, bad), InvalidArgument);
  }
  // config-level: alto + compressed leaf format is an error.
  {
    CpdConfig bad = cfg;
    bad.with_mttkrp_kernel(MttkrpKernel::kAlto)
        .with_leaf_format(LeafFormat::kHybrid);
    EXPECT_FALSE(bad.validate(3).ok());
  }
}

TEST(MttkrpAlto, SolverEndToEndMatchesOneTree) {
  const std::vector<index_t> dims{26, 21, 17};
  const CooTensor x = testing::random_coo(dims, 900, 610);
  const CsfSet one(x, CsfStrategy::kOneMode);

  CpdConfig base;
  base.with_rank(6).with_max_outer(6).with_tolerance(0);

  CpdConfig onetree_cfg = base;
  onetree_cfg.with_mttkrp_kernel(MttkrpKernel::kOneTree);
  CpdSolver onetree_solver(one, onetree_cfg);
  const CpdResult r_onetree = onetree_solver.solve();

  CpdConfig alto_cfg = base;
  alto_cfg.with_mttkrp_kernel(MttkrpKernel::kAlto);
  CpdSolver alto_solver(one, alto_cfg);
  const CpdResult r_alto = alto_solver.solve();

  EXPECT_EQ(r_onetree.outer_iterations, r_alto.outer_iterations);
  EXPECT_NEAR(r_onetree.relative_error, r_alto.relative_error, 1e-7);
}

TEST(MttkrpAlto, AlsEndToEndMatchesOneTree) {
  const std::vector<index_t> dims{20, 16, 13};
  const CooTensor x = testing::random_coo(dims, 700, 611);
  const CsfSet one(x, CsfStrategy::kOneMode);

  CpdConfig cfg;
  cfg.with_rank(5).with_max_outer(5).with_tolerance(0);

  CpdConfig onetree_opts = cfg;
  onetree_opts.mttkrp_kernel = MttkrpKernel::kOneTree;
  const CpdResult r_onetree = cpd_als(one, onetree_opts);

  CpdConfig alto_opts = cfg;
  alto_opts.mttkrp_kernel = MttkrpKernel::kAlto;
  const CpdResult r_alto = cpd_als(one, alto_opts);

  EXPECT_EQ(r_onetree.outer_iterations, r_alto.outer_iterations);
  EXPECT_NEAR(r_onetree.relative_error, r_alto.relative_error, 1e-7);
}

}  // namespace
}  // namespace aoadmm
