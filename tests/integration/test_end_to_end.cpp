// End-to-end integration tests: generate → serialize → reload → compile to
// CSF → factorize under several constraint/variant/format configurations →
// validate the results against exact error computation and ground truth.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "core/solver.hpp"
#include "tensor/io.hpp"
#include "tensor/matricize.hpp"
#include "tensor/synthetic.hpp"
#include "testing/helpers.hpp"

namespace aoadmm {
namespace {

SyntheticSpec pipeline_spec() {
  SyntheticSpec spec;
  spec.dims = {60, 25, 45};
  spec.nnz = 5000;
  spec.true_rank = 4;
  spec.noise = 0.05;
  spec.zipf_alpha = {1.0};
  spec.seed = 99;
  return spec;
}

/// Non-negative CPD settings the pipeline tests start from.
CpdConfig pipeline_config() {
  CpdConfig c;
  c.rank = 6;
  c.max_outer_iterations = 30;
  c.tolerance = 1e-5;
  c.admm.max_iterations = 25;
  c.admm.block_size = 32;
  c.with_constraints(
      ModeConstraints::broadcast({ConstraintKind::kNonNegative}));
  return c;
}

TEST(EndToEnd, GenerateSerializeReloadFactorize) {
  const CooTensor x = make_synthetic(pipeline_spec());

  // Round-trip through the text format.
  std::ostringstream buf;
  write_tns(x, buf);
  std::istringstream in(buf.str());
  const CooTensor reloaded = read_tns(in);
  ASSERT_EQ(reloaded.nnz(), x.nnz());

  const CsfSet csf(reloaded);
  const CpdResult r = CpdSolver(csf, pipeline_config()).solve();
  ASSERT_FALSE(r.trace.empty());
  EXPECT_LT(r.relative_error, r.trace.points().front().relative_error);
  EXPECT_LT(r.relative_error, 1.0);

  // The reported error must agree with a from-scratch exact evaluation on
  // the ORIGINAL tensor (values survive the text round-trip).
  const real_t exact = relative_error(reloaded, r.factors,
                                      reloaded.norm_sq());
  EXPECT_NEAR(r.relative_error, exact, 1e-6);
}

TEST(EndToEnd, BinaryRoundTripPreservesFactorizationExactly) {
  const CooTensor x = make_synthetic(pipeline_spec());
  const auto dir = std::filesystem::temp_directory_path() /
                   ("aoadmm_e2e_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "t.bin").string();
  write_binary_file(x, path);
  const CooTensor y = read_binary_file(path);
  std::filesystem::remove_all(dir);

  const CpdResult rx = CpdSolver(CsfSet(x), pipeline_config()).solve();
  const CpdResult ry = CpdSolver(CsfSet(y), pipeline_config()).solve();
  EXPECT_DOUBLE_EQ(rx.relative_error, ry.relative_error);
}

TEST(EndToEnd, AllVariantFormatCombinationsProduceValidFactorizations) {
  SyntheticSpec spec = pipeline_spec();
  spec.factor_zero_prob = 0.5;  // induce sparsity so CSR/hybrid kick in
  const CooTensor x = make_synthetic(spec);
  const CsfSet csf(x);

  ConstraintSpec l1{ConstraintKind::kNonNegativeL1};
  l1.lambda = 0.1;

  for (const AdmmVariant variant :
       {AdmmVariant::kBaseline, AdmmVariant::kBlocked}) {
    for (const LeafFormat fmt :
         {LeafFormat::kDense, LeafFormat::kCsr, LeafFormat::kHybrid}) {
      CpdConfig opts = pipeline_config();
      opts.variant = variant;
      opts.leaf_format = fmt;
      opts.max_outer_iterations = 15;
      opts.with_constraints(ModeConstraints::broadcast(l1));
      const CpdResult r = CpdSolver(csf, opts).solve();
      // Sparse data + l1: the absolute error plateaus high (cf. Fig. 6);
      // what matters is a finite, improving, valid factorization.
      EXPECT_LT(r.relative_error, 1.0)
          << to_string(variant) << "/" << to_string(fmt);
      EXPECT_GE(r.relative_error, 0.0);
      for (const Matrix& f : r.factors) {
        for (const real_t v : f.flat()) {
          EXPECT_GE(v, 0.0) << "nonneg+l1 must stay non-negative";
        }
      }
    }
  }
}

TEST(EndToEnd, GroundTruthRecoveryAtLowNoise) {
  // With noise→0, sufficient rank, non-negativity, and a FULLY OBSERVED
  // tensor, the fit must reach (approximately) the noise floor.
  const CooTensor x = testing::dense_lowrank_tensor({16, 12, 10}, 3, 0.01);
  const CsfSet csf(x);
  CpdConfig opts = pipeline_config();
  opts.rank = 8;
  opts.max_outer_iterations = 100;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_LT(r.relative_error, 0.08);
}

TEST(EndToEnd, BlockedNotWorseThanBaselinePerIteration) {
  // The paper's central convergence claim (Fig. 6): at equal outer-iteration
  // budget the blocked variant reaches equal or better error on power-law
  // data. Allow a small tolerance for run-to-run algorithmic differences.
  SyntheticSpec spec = pipeline_spec();
  spec.zipf_alpha = {1.3};
  const CooTensor x = make_synthetic(spec);
  const CsfSet csf(x);

  CpdConfig base = pipeline_config();
  base.variant = AdmmVariant::kBaseline;
  base.max_outer_iterations = 10;
  base.tolerance = 0;
  CpdConfig blocked = base;
  blocked.variant = AdmmVariant::kBlocked;

  const CpdResult rb = CpdSolver(csf, base).solve();
  const CpdResult rk = CpdSolver(csf, blocked).solve();
  EXPECT_LE(rk.relative_error, rb.relative_error + 0.03);
}

TEST(EndToEnd, FrosttStandinSmokeFactorization) {
  // reddit-s at 5% scale must factorize end to end. At this extreme
  // sparsity (~2 nnz per row of the longest mode) the error stays near 1.0
  // — the smoke test checks mechanics, not fit quality.
  const NamedDataset d = frostt_standin("reddit-s", 0.05);
  const CooTensor x = make_synthetic(d.spec);
  const CsfSet csf(x);
  CpdConfig opts = pipeline_config();
  opts.rank = 8;
  opts.max_outer_iterations = 10;
  const CpdResult r = CpdSolver(csf, opts).solve();
  EXPECT_GT(r.outer_iterations, 0u);
  EXPECT_EQ(r.factors.size(), 3u);
  EXPECT_GE(r.relative_error, 0.0);
  EXPECT_LT(r.relative_error, 1.05);
  EXPECT_EQ(r.trace.size(), r.outer_iterations);
}

}  // namespace
}  // namespace aoadmm
