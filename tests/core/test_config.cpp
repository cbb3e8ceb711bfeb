#include "core/config.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace aoadmm {
namespace {

bool has_issue(const ValidationReport& report, const std::string& field,
               ValidationIssue::Severity severity) {
  for (const ValidationIssue& i : report.issues) {
    if (i.field == field && i.severity == severity) {
      return true;
    }
  }
  return false;
}

constexpr auto kError = ValidationIssue::Severity::kError;
constexpr auto kWarning = ValidationIssue::Severity::kWarning;

TEST(ModeConstraints, DefaultBroadcastsNonNegativity) {
  const ModeConstraints c;
  EXPECT_TRUE(c.broadcasts());
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.for_mode(0).kind, ConstraintKind::kNonNegative);
  EXPECT_EQ(c.for_mode(7).kind, ConstraintKind::kNonNegative);
  EXPECT_NO_THROW(c.check_order(3));
  EXPECT_NO_THROW(c.check_order(5));
}

TEST(ModeConstraints, PerModeSelectsByMode) {
  std::vector<ConstraintSpec> specs(3);
  specs[0].kind = ConstraintKind::kNonNegative;
  specs[1].kind = ConstraintKind::kL1;
  specs[1].lambda = 0.5;
  specs[2].kind = ConstraintKind::kNone;
  const ModeConstraints c = ModeConstraints::per_mode(specs);
  EXPECT_FALSE(c.broadcasts());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.for_mode(1).kind, ConstraintKind::kL1);
  EXPECT_EQ(c.for_mode(2).kind, ConstraintKind::kNone);
  EXPECT_NO_THROW(c.check_order(3));
}

TEST(ModeConstraints, PerModeRejectsEmpty) {
  EXPECT_THROW(ModeConstraints::per_mode({}), InvalidArgument);
}

TEST(ModeConstraints, CheckOrderRejectsMismatchedCount) {
  const ModeConstraints c =
      ModeConstraints::per_mode(std::vector<ConstraintSpec>(3));
  EXPECT_THROW(c.check_order(4), InvalidArgument);
  EXPECT_THROW(c.check_order(2), InvalidArgument);
}

TEST(CpdConfigValidate, DefaultConfigIsClean) {
  const ValidationReport report = CpdConfig().validate(3);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_EQ(report.warning_count(), 0u);
}

TEST(CpdConfigValidate, CollectsEveryErrorInsteadOfThrowing) {
  CpdConfig cfg = CpdConfig().with_rank(0).with_max_outer(0).with_tolerance(
      -1.0);
  const ValidationReport report = cfg.validate(3);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "rank", kError));
  EXPECT_TRUE(has_issue(report, "max_outer_iterations", kError));
  EXPECT_TRUE(has_issue(report, "tolerance", kError));
  EXPECT_GE(report.error_count(), 3u);
}

TEST(CpdConfigValidate, FlagsBadAdmmOptions) {
  CpdConfig cfg;
  cfg.admm.max_iterations = 0;
  cfg.admm.tolerance = 0;
  cfg.admm.relaxation = 2.5;
  const ValidationReport report = cfg.validate(3);
  EXPECT_TRUE(has_issue(report, "admm.max_iterations", kError));
  EXPECT_TRUE(has_issue(report, "admm.tolerance", kError));
  EXPECT_TRUE(has_issue(report, "admm.relaxation", kError));
}

TEST(CpdConfigValidate, WarnsOnZeroTolerance) {
  const ValidationReport report = CpdConfig().with_tolerance(0).validate(3);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(has_issue(report, "tolerance", kWarning));
}

TEST(CpdConfigValidate, WarnsWhenSparseLeafCannotPayOff) {
  ConstraintSpec unconstrained;
  unconstrained.kind = ConstraintKind::kNone;
  CpdConfig cfg = CpdConfig()
                      .with_leaf_format(LeafFormat::kCsr)
                      .with_constraints(
                          ModeConstraints::broadcast(unconstrained));
  const ValidationReport report = cfg.validate(3);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(has_issue(report, "leaf_format", kWarning));

  // With a sparsity-inducing constraint the warning disappears.
  const ValidationReport ok =
      CpdConfig().with_leaf_format(LeafFormat::kCsr).validate(3);
  EXPECT_FALSE(has_issue(ok, "leaf_format", kWarning));
}

TEST(CpdConfigValidate, ChecksCheckpointPolicyCrossField) {
  CpdConfig cfg;
  cfg.checkpoint_every = 5;  // no path
  EXPECT_TRUE(has_issue(cfg.validate(3), "checkpoint_path", kError));

  const ValidationReport warn =
      CpdConfig().with_checkpoint("run.ckpt", 0).validate(3);
  EXPECT_TRUE(warn.ok());
  EXPECT_TRUE(has_issue(warn, "checkpoint_every", kWarning));

  EXPECT_TRUE(CpdConfig().with_checkpoint("run.ckpt", 5).validate(3).ok());
}

TEST(CpdConfigValidate, RejectsPerModeCountMismatchAgainstOrder) {
  CpdConfig cfg = CpdConfig().with_constraints(
      ModeConstraints::per_mode(std::vector<ConstraintSpec>(2)));
  EXPECT_TRUE(has_issue(cfg.validate(3), "constraints", kError));
  EXPECT_FALSE(has_issue(cfg.validate(2), "constraints", kError));
  // Unknown order (0) skips the count check.
  EXPECT_FALSE(has_issue(cfg.validate(0), "constraints", kError));
}

TEST(CpdConfigValidate, ChecksPerSpecParameters) {
  std::vector<ConstraintSpec> specs(3);
  specs[0].kind = ConstraintKind::kL1;
  specs[0].lambda = -1.0;
  specs[1].kind = ConstraintKind::kBox;
  specs[1].lo = 2.0;
  specs[1].hi = 1.0;
  specs[2].kind = ConstraintKind::kL2Ball;
  specs[2].hi = 0.0;
  CpdConfig cfg =
      CpdConfig().with_constraints(ModeConstraints::per_mode(specs));
  const ValidationReport report = cfg.validate(3);
  EXPECT_TRUE(has_issue(report, "constraints[0]", kError));
  EXPECT_TRUE(has_issue(report, "constraints[1]", kError));
  EXPECT_TRUE(has_issue(report, "constraints[2]", kError));
}

TEST(CpdConfigValidate, ToStringNamesSeverityFieldAndMessage) {
  const ValidationReport report = CpdConfig().with_rank(0).validate(3);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("rank"), std::string::npos);
}

}  // namespace
}  // namespace aoadmm
