// Context-aware recommender (the paper's first motivating domain):
// factorize a user x item x context rating tensor with non-negativity, then
// score unseen (user, item) pairs in a context by the reconstructed value.
//
// The synthetic workload plants "taste communities": users and items belong
// to latent groups, ratings concentrate inside matching groups, and the
// factorization's job is to recover that structure well enough to rank
// items the user has not seen.
//
// Run: ./recommender [--users 400] [--items 300] [--contexts 8] [--rank 8]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/cpd.hpp"
#include "core/eval.hpp"
#include "core/kruskal.hpp"
#include "core/solver.hpp"
#include "tensor/coo.hpp"
#include "tensor/transform.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

using namespace aoadmm;

namespace {

struct Workload {
  CooTensor ratings;
  std::vector<int> user_group;
  std::vector<int> item_group;
};

/// Ratings concentrate on (user, item) pairs from the same latent group;
/// context modulates intensity. ~3% of pairs observed.
Workload make_ratings(index_t users, index_t items, index_t contexts,
                      int groups, Rng& rng) {
  Workload w{CooTensor({users, items, contexts}), {}, {}};
  w.user_group.resize(users);
  w.item_group.resize(items);
  for (auto& g : w.user_group) {
    g = static_cast<int>(rng.uniform_index(groups));
  }
  for (auto& g : w.item_group) {
    g = static_cast<int>(rng.uniform_index(groups));
  }
  // Users mostly rate items from their own taste group (as in real data),
  // in-group ratings are high, the occasional out-of-group rating is low.
  std::vector<std::vector<index_t>> items_by_group(groups);
  for (index_t i = 0; i < items; ++i) {
    items_by_group[w.item_group[i]].push_back(i);
  }
  const offset_t target = static_cast<offset_t>(users) * items / 4;
  for (offset_t n = 0; n < target; ++n) {
    const auto u = static_cast<index_t>(rng.uniform_index(users));
    const bool in_group = rng.uniform() < 0.8;
    index_t i;
    if (in_group && !items_by_group[w.user_group[u]].empty()) {
      const auto& pool = items_by_group[w.user_group[u]];
      i = pool[rng.uniform_index(pool.size())];
    } else {
      i = static_cast<index_t>(rng.uniform_index(items));
    }
    const auto c = static_cast<index_t>(rng.uniform_index(contexts));
    const bool match = w.user_group[u] == w.item_group[i];
    const real_t base = match ? 4.0 + rng.uniform() : 1.0 + rng.uniform();
    const real_t ctx_bump = 0.3 * static_cast<real_t>(c % 3);
    const index_t coord[3] = {u, i, c};
    w.ratings.add({coord, 3}, base + ctx_bump);
  }
  w.ratings.deduplicate();
  return w;
}

real_t predict(cspan<const Matrix> factors, index_t u, index_t i,
               index_t c) {
  const index_t coord[3] = {u, i, c};
  return kruskal_value_at(factors, {coord, 3});
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto users = static_cast<index_t>(opts.get_int("users", 400));
  const auto items = static_cast<index_t>(opts.get_int("items", 300));
  const auto contexts = static_cast<index_t>(opts.get_int("contexts", 4));
  const auto rank = static_cast<rank_t>(opts.get_int("rank", 4));
  const int groups = 4;

  Rng rng(2024);
  const Workload w = make_ratings(users, items, contexts, groups, rng);
  std::printf("ratings tensor: %u users x %u items x %u contexts, %llu "
              "ratings\n",
              users, items, contexts,
              static_cast<unsigned long long>(w.ratings.nnz()));

  // Hold out 20% of the ratings for honest evaluation.
  const TrainTestSplit split = split_train_test(w.ratings, 0.2, rng);
  std::printf("train/test split: %llu / %llu ratings\n",
              static_cast<unsigned long long>(split.train.nnz()),
              static_cast<unsigned long long>(split.test.nnz()));

  const CsfSet csf(split.train);
  // Non-negative factors keep component loadings interpretable as
  // (user-affinity, item-membership, context-intensity).
  const ConstraintSpec nonneg{ConstraintKind::kNonNegative};

  // Ratings are NOT counts: an unobserved (user,item,context) cell means
  // "unknown", not "zero" — so rating prediction fits the observed entries
  // only (the masked Frobenius loss). The unweighted CPD is run alongside to
  // show how badly zero-imputation distorts predictions.
  CpdConfig cfg;
  cfg.with_rank(rank)
      .with_max_outer(40)
      .with_tolerance(1e-5)
      .with_loss(parse_loss_spec("frobenius:masked"))
      .with_constraints(ModeConstraints::broadcast(nonneg));
  CpdSolver solver(csf, cfg);
  const CpdResult r = solver.solve();
  std::printf("observed-only CPD: %u outer iterations, observed error %.4f\n",
              r.outer_iterations, static_cast<double>(r.relative_error));

  const PredictionMetrics holdout = evaluate_predictions(split.test,
                                                         r.factors);
  std::printf("held-out ratings: RMSE %.3f, MAE %.3f (mean rating %.3f)\n",
              static_cast<double>(holdout.rmse),
              static_cast<double>(holdout.mae),
              static_cast<double>(holdout.mean_value));

  {
    CpdOptions unweighted;
    unweighted.rank = rank;
    unweighted.max_outer_iterations = 40;
    const CpdResult ru = cpd_aoadmm(csf, unweighted, {&nonneg, 1});
    const PredictionMetrics mu = evaluate_predictions(split.test,
                                                      ru.factors);
    std::printf("(unweighted CPD for comparison: held-out RMSE %.3f — "
                "zero-imputation shrinks every prediction)\n\n",
                static_cast<double>(mu.rmse));
  }

  // Top-5 recommendations for a few users in context 0: rank all items by
  // predicted score and check group agreement.
  int shown = 0;
  int in_group_hits = 0;
  int total_recs = 0;
  for (index_t u = 0; u < users && shown < 3; u += users / 3, ++shown) {
    std::vector<std::pair<real_t, index_t>> scored;
    scored.reserve(items);
    for (index_t i = 0; i < items; ++i) {
      scored.emplace_back(predict(r.factors, u, i, 0), i);
    }
    std::partial_sort(scored.begin(), scored.begin() + 5, scored.end(),
                      std::greater<>());
    std::printf("user %u (group %d) top-5 items in context 0:\n", u,
                w.user_group[u]);
    for (int k = 0; k < 5; ++k) {
      const index_t item = scored[k].second;
      const bool match = w.item_group[item] == w.user_group[u];
      std::printf("  item %-5u score %.3f group %d %s\n", item,
                  static_cast<double>(scored[k].first), w.item_group[item],
                  match ? "(in-group)" : "");
      in_group_hits += match ? 1 : 0;
      ++total_recs;
    }
  }

  std::printf("\nin-group precision of recommendations: %d/%d\n",
              in_group_hits, total_recs);
  // With 4 groups, random ranking would hit ~25%; structure recovery should
  // push this far higher.
  return in_group_hits * 2 >= total_recs ? 0 : 1;
}
