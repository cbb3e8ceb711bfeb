#include "core/admm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "parallel/runtime.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

/// Build a well-conditioned synthetic instance of the ADMM subproblem:
/// choose a ground-truth non-negative H*, a random KRP surrogate W (rows of
/// the Khatri-Rao product), then K = (H* Wᵀ) W and G = WᵀW — i.e. the exact
/// normal equations a CPD mode update sees.
struct Instance {
  Matrix k;
  Matrix g;
  Matrix h_true;
};

Instance make_instance(std::size_t rows, std::size_t f, std::uint64_t seed,
                       bool nonneg_truth = true) {
  Rng rng(seed);
  Instance inst;
  inst.h_true = nonneg_truth ? Matrix::random_uniform(rows, f, rng, 0.0, 1.0)
                             : Matrix::random_normal(rows, f, rng);
  const Matrix w = Matrix::random_normal(rows * 2 + 3 * f, f, rng);
  gram(w, inst.g);
  inst.k = matmul(inst.h_true, inst.g);  // K = H* (WᵀW) = (H* Wᵀ) W
  return inst;
}

AdmmOptions tight_options() {
  AdmmOptions o;
  o.tolerance = 1e-8;
  o.max_iterations = 500;
  o.block_size = 13;
  return o;
}

TEST(Admm, UnconstrainedRecoversLeastSquaresSolution) {
  const Instance inst = make_instance(40, 5, 1, false);
  Matrix h(40, 5);
  Matrix u(40, 5);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNone});
  const AdmmResult r =
      admm_update(h, u, inst.k, inst.g, *prox, tight_options(), scratch);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-4);
}

TEST(Admm, NonNegativeRecoversNonNegativeTruth) {
  const Instance inst = make_instance(60, 4, 2, true);
  Matrix h(60, 4);
  Matrix u(60, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  admm_update(h, u, inst.k, inst.g, *prox, tight_options(), scratch);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-4);
  for (const real_t v : h.flat()) {
    EXPECT_GE(v, 0.0);
  }
}

TEST(Admm, BlockedMatchesBaselineSolution) {
  const Instance inst = make_instance(97, 6, 3, true);
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmScratch s1;
  AdmmScratch s2;

  Matrix h1(97, 6);
  Matrix u1(97, 6);
  admm_update(h1, u1, inst.k, inst.g, *prox, tight_options(), s1);

  Matrix h2(97, 6);
  Matrix u2(97, 6);
  admm_update_blocked(h2, u2, inst.k, inst.g, *prox, tight_options(), s2);

  // Both converge to the same constrained LS optimum.
  EXPECT_LT(max_abs_diff(h1, h2), 1e-4);
}

TEST(Admm, BlockedHandlesBlockSizeLargerThanRows) {
  const Instance inst = make_instance(10, 3, 4, true);
  AdmmOptions opts = tight_options();
  opts.block_size = 1000;
  Matrix h(10, 3);
  Matrix u(10, 3);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  admm_update_blocked(h, u, inst.k, inst.g, *prox, opts, scratch);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-3);
}

TEST(Admm, BlockedHandlesSingleRowBlocks) {
  const Instance inst = make_instance(23, 3, 5, true);
  AdmmOptions opts = tight_options();
  opts.block_size = 1;
  Matrix h(23, 3);
  Matrix u(23, 3);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  admm_update_blocked(h, u, inst.k, inst.g, *prox, opts, scratch);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-3);
}

TEST(Admm, L1DrivesSmallEntriesToZero) {
  const Instance inst = make_instance(50, 5, 6, true);
  AdmmOptions opts = tight_options();
  Matrix h(50, 5);
  Matrix u(50, 5);
  AdmmScratch scratch;
  // Strong l1: solution must be sparse (ground truth is dense uniform).
  ConstraintSpec spec{ConstraintKind::kNonNegativeL1};
  spec.lambda = 0.5 * inst.g(0, 0);
  const auto prox = make_prox(spec);
  admm_update_blocked(h, u, inst.k, inst.g, *prox, opts, scratch);
  std::size_t zeros = 0;
  for (const real_t v : h.flat()) {
    if (v == 0.0) {
      ++zeros;
    }
  }
  EXPECT_GT(zeros, 0u);
}

TEST(Admm, ResidualsDecreaseBelowTolerance) {
  const Instance inst = make_instance(30, 4, 7, true);
  AdmmOptions opts;
  opts.tolerance = 1e-6;
  opts.max_iterations = 1000;
  Matrix h(30, 4);
  Matrix u(30, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  const AdmmResult r = admm_update(h, u, inst.k, inst.g, *prox, opts, scratch);
  EXPECT_LT(r.primal_residual, opts.tolerance);
  EXPECT_LT(r.dual_residual, opts.tolerance);
  EXPECT_LT(r.iterations, opts.max_iterations);
}

TEST(Admm, RespectsIterationCap) {
  const Instance inst = make_instance(30, 4, 8, true);
  AdmmOptions opts;
  opts.tolerance = 0;  // unreachable
  opts.max_iterations = 7;
  Matrix h(30, 4);
  Matrix u(30, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  const AdmmResult r = admm_update(h, u, inst.k, inst.g, *prox, opts, scratch);
  EXPECT_EQ(r.iterations, 7u);
  EXPECT_EQ(r.row_iterations, 7u * 30u);
}

TEST(Admm, BlockedRowIterationsLeqUniform) {
  // The blocked variant must not do MORE row-iterations than running every
  // block to the max count; typically it does far fewer.
  const Instance inst = make_instance(200, 4, 9, true);
  AdmmOptions opts;
  opts.tolerance = 1e-6;
  opts.max_iterations = 300;
  opts.block_size = 10;
  Matrix h(200, 4);
  Matrix u(200, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  const AdmmResult r =
      admm_update_blocked(h, u, inst.k, inst.g, *prox, opts, scratch);
  EXPECT_LE(r.row_iterations,
            static_cast<std::uint64_t>(r.iterations) * 200u);
}

TEST(Admm, WarmStartConvergesInstantly) {
  // Feeding back the solved primal/dual: residuals are already below
  // tolerance, so it must stop after very few iterations.
  const Instance inst = make_instance(40, 4, 10, true);
  AdmmOptions opts = tight_options();
  Matrix h(40, 4);
  Matrix u(40, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  const AdmmResult cold =
      admm_update(h, u, inst.k, inst.g, *prox, opts, scratch);
  const AdmmResult warm =
      admm_update(h, u, inst.k, inst.g, *prox, opts, scratch);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_LE(warm.iterations, 3u);
}

TEST(Admm, ZeroGramDoesNotCrash) {
  // Degenerate G (all factors zero): penalty floor keeps the system SPD.
  Matrix g(3, 3);
  Matrix h(10, 3);
  Matrix u(10, 3);
  Matrix k(10, 3);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmOptions opts;
  opts.max_iterations = 5;
  EXPECT_NO_THROW(admm_update(h, u, k, g, *prox, opts, scratch));
}

TEST(Admm, RejectsShapeMismatch) {
  Matrix g(3, 3);
  Matrix h(10, 3);
  Matrix u(9, 3);  // wrong rows
  Matrix k(10, 3);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNone});
  EXPECT_THROW(admm_update(h, u, k, g, *prox, AdmmOptions{}, scratch),
               InvalidArgument);
}

TEST(Admm, BlockSizeZeroSelectsAnalyticalModel) {
  // block_size == 0 engages the paper's future-work block-size model; the
  // solve must still converge to the constrained optimum.
  const Instance inst = make_instance(120, 4, 12, true);
  AdmmOptions opts = tight_options();
  opts.block_size = 0;
  Matrix h(120, 4);
  Matrix u(120, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  admm_update_blocked(h, u, inst.k, inst.g, *prox, opts, scratch);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-3);
}

TEST(Admm, AutoBlockSizeModelProperties) {
  // Larger ranks get smaller blocks; results are clamped to [8, 512].
  EXPECT_GE(auto_block_size(16), auto_block_size(64));
  EXPECT_GE(auto_block_size(1), 8u);
  EXPECT_LE(auto_block_size(1), 512u);
  EXPECT_EQ(auto_block_size(100000), 8u);   // huge rank -> floor
  EXPECT_EQ(auto_block_size(1), 512u);      // tiny rank -> ceiling
  // The paper's empirical 50-row choice falls out of the model near the
  // ranks it evaluated (cache budget 256KB, F=100: 256K/(5*100*8)=65).
  const std::size_t at_paper_rank = auto_block_size(100);
  EXPECT_GE(at_paper_rank, 32u);
  EXPECT_LE(at_paper_rank, 128u);
}

TEST(Admm, OverRelaxationReachesSameSolution) {
  const Instance inst = make_instance(60, 4, 13, true);
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmScratch s1;
  AdmmScratch s2;

  AdmmOptions plain = tight_options();
  Matrix h1(60, 4);
  Matrix u1(60, 4);
  admm_update(h1, u1, inst.k, inst.g, *prox, plain, s1);

  AdmmOptions relaxed = tight_options();
  relaxed.relaxation = 1.6;
  Matrix h2(60, 4);
  Matrix u2(60, 4);
  admm_update(h2, u2, inst.k, inst.g, *prox, relaxed, s2);

  EXPECT_LT(max_abs_diff(h1, h2), 1e-4);
}

TEST(Admm, OverRelaxationSpeedsConvergence) {
  const Instance inst = make_instance(150, 6, 14, true);
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;
  opts.block_size = 50;

  AdmmScratch s1;
  Matrix h1(150, 6);
  Matrix u1(150, 6);
  const AdmmResult plain =
      admm_update(h1, u1, inst.k, inst.g, *prox, opts, s1);

  opts.relaxation = 1.7;
  AdmmScratch s2;
  Matrix h2(150, 6);
  Matrix u2(150, 6);
  const AdmmResult relaxed =
      admm_update(h2, u2, inst.k, inst.g, *prox, opts, s2);

  EXPECT_LT(relaxed.iterations, plain.iterations);
}

TEST(Admm, BlockedOverRelaxationWorks) {
  const Instance inst = make_instance(77, 4, 15, true);
  AdmmOptions opts = tight_options();
  opts.relaxation = 1.5;
  Matrix h(77, 4);
  Matrix u(77, 4);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  admm_update_blocked(h, u, inst.k, inst.g, *prox, opts, scratch);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-3);
}

TEST(Admm, RejectsOutOfRangeRelaxation) {
  Matrix g = Matrix::identity(2);
  Matrix h(4, 2);
  Matrix u(4, 2);
  Matrix k(4, 2);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kNone});
  for (const real_t alpha : {0.0, -0.5, 2.0, 2.5}) {
    AdmmOptions opts;
    opts.relaxation = alpha;
    EXPECT_THROW(admm_update(h, u, k, g, *prox, opts, scratch),
                 InvalidArgument);
    EXPECT_THROW(admm_update_blocked(h, u, k, g, *prox, opts, scratch),
                 InvalidArgument);
  }
}

TEST(Admm, SimplexConstraintProducesStochasticRows) {
  const Instance inst = make_instance(25, 5, 11, true);
  Matrix h(25, 5);
  Matrix u(25, 5);
  AdmmScratch scratch;
  const auto prox = make_prox({ConstraintKind::kSimplex});
  admm_update_blocked(h, u, inst.k, inst.g, *prox, tight_options(), scratch);
  for (std::size_t i = 0; i < h.rows(); ++i) {
    real_t sum = 0;
    for (std::size_t j = 0; j < h.cols(); ++j) {
      EXPECT_GE(h(i, j), -1e-12);
      sum += h(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(AdmmVariants, RunTheSameRowArithmeticBitwise) {
  // With tolerance 0 every row runs all 5 iterations in both variants, so
  // the blocked one (block-local H̃ and H₀ rows) must leave the baseline's
  // (full-size scratch) bits in H and U, whatever the blocks and threads.
  // One scratch per variant across every case: stale rows must not leak.
  const int saved_threads = max_threads();
  const auto prox = make_prox({ConstraintKind::kNonNegative});
  AdmmScratch base_scratch;
  AdmmScratch blocked_scratch;
  const std::size_t rows = 197;
  int cases = 0;
  for (const std::size_t f : {3, 16, 33}) {
    const Instance inst = make_instance(rows, f, 40 + f, true);
    Rng rng(50 + f);
    const Matrix h0 = Matrix::random_uniform(rows, f, rng, 0.0, 1.0);
    const Matrix u0 = Matrix::random_normal(rows, f, rng);
    for (const real_t alpha : {1.0, 1.6}) {
      for (const std::size_t block : {1, 7, 50, 1000}) {
        for (const int threads : {1, 3, 4}) {
          set_num_threads(threads);
          AdmmOptions opts;
          opts.tolerance = 0;
          opts.max_iterations = 5;
          opts.relaxation = alpha;
          opts.block_size = block;
          Matrix h1 = h0;
          Matrix u1 = u0;
          admm_update(h1, u1, inst.k, inst.g, *prox, opts, base_scratch);
          Matrix h2 = h0;
          Matrix u2 = u0;
          admm_update_blocked(h2, u2, inst.k, inst.g, *prox, opts,
                              blocked_scratch);
          const std::size_t bytes = rows * f * sizeof(real_t);
          EXPECT_EQ(std::memcmp(h1.data(), h2.data(), bytes), 0)
              << "h: f=" << f << " alpha=" << alpha << " block=" << block
              << " threads=" << threads;
          EXPECT_EQ(std::memcmp(u1.data(), u2.data(), bytes), 0)
              << "u: f=" << f << " alpha=" << alpha << " block=" << block
              << " threads=" << threads;
          ++cases;
        }
      }
    }
  }
  set_num_threads(saved_threads);
  EXPECT_EQ(cases, 72);
}

}  // namespace
}  // namespace aoadmm
