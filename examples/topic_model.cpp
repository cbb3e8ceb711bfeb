// Dynamic topic modelling with a row-simplex constraint — showcases the
// constraint flexibility AO-ADMM is built for (the paper's pitch: new
// constraints with minimal effort; simplex is explicitly listed as row
// separable in §IV.A).
//
// A document x word x epoch count tensor is factorized with:
//   * documents: non-negative loadings (how much of each topic),
//   * words:     rows on the probability simplex is NOT what we want —
//                topics live in components, so the WORD factor columns are
//                the topic-word distributions. We instead put the simplex
//                on the EPOCH factor rows, modelling each epoch as a
//                mixture over topics, and keep words non-negative + l1 so
//                topic-word profiles are sparse and interpretable.
//
// The generator plants topics (disjoint word clusters) whose prevalence
// drifts across epochs; the example recovers the planted word clusters and
// each epoch's topic mixture.
//
// Run: ./topic_model [--docs 300] [--words 500] [--epochs 12] [--topics 4]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/kruskal.hpp"
#include "core/solver.hpp"
#include "tensor/coo.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

using namespace aoadmm;

namespace {

struct Corpus {
  CooTensor counts;
  std::vector<int> word_topic;             // planted topic of each word
  std::vector<std::vector<real_t>> epoch_mix;  // planted mixture per epoch
};

Corpus make_corpus(index_t docs, index_t words, index_t epochs, int topics,
                   Rng& rng) {
  Corpus c{CooTensor({docs, words, epochs}), {}, {}};
  c.word_topic.resize(words);
  for (index_t w = 0; w < words; ++w) {
    c.word_topic[w] = static_cast<int>(w) % topics;
  }
  // Topic prevalence drifts: topic t peaks around epoch t*(epochs/topics).
  c.epoch_mix.assign(epochs, std::vector<real_t>(topics, 0));
  for (index_t e = 0; e < epochs; ++e) {
    real_t sum = 0;
    for (int t = 0; t < topics; ++t) {
      const real_t peak =
          static_cast<real_t>(t) * epochs / static_cast<real_t>(topics);
      const real_t d = (static_cast<real_t>(e) - peak) /
                       (static_cast<real_t>(epochs) / topics);
      c.epoch_mix[e][t] = std::exp(-d * d) + 0.05;
      sum += c.epoch_mix[e][t];
    }
    for (auto& v : c.epoch_mix[e]) {
      v /= sum;
    }
  }
  // Each document has a dominant topic; words drawn from it, epoch by
  // prevalence.
  const offset_t tokens = static_cast<offset_t>(docs) * 200;
  for (offset_t n = 0; n < tokens; ++n) {
    const auto d = static_cast<index_t>(rng.uniform_index(docs));
    const int topic = static_cast<int>(d) % topics;
    // Word from the topic's cluster.
    const auto within =
        static_cast<index_t>(rng.uniform_index(words / topics));
    const index_t w = within * topics + topic;
    // Epoch weighted by the topic's prevalence (rejection sampling).
    index_t e = 0;
    for (int tries = 0; tries < 32; ++tries) {
      e = static_cast<index_t>(rng.uniform_index(epochs));
      if (rng.uniform() < c.epoch_mix[e][topic] * topics) {
        break;
      }
    }
    const index_t coord[3] = {d, w, e};
    c.counts.add({coord, 3}, 1.0);
  }
  c.counts.deduplicate();  // duplicate tokens sum into counts
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto docs = static_cast<index_t>(opts.get_int("docs", 300));
  const auto words = static_cast<index_t>(opts.get_int("words", 500));
  const auto epochs = static_cast<index_t>(opts.get_int("epochs", 12));
  const int topics = static_cast<int>(opts.get_int("topics", 4));

  Rng rng(7777);
  const Corpus corpus = make_corpus(docs, words, epochs, topics, rng);
  std::printf("corpus: %u docs x %u words x %u epochs, %llu distinct "
              "(doc,word,epoch) counts\n",
              docs, words, epochs,
              static_cast<unsigned long long>(corpus.counts.nnz()));

  const CsfSet csf(corpus.counts);
  // Per-mode constraints: docs nonneg, words sparse nonneg, epochs simplex.
  std::vector<ConstraintSpec> constraints(3);
  constraints[0].kind = ConstraintKind::kNonNegative;
  constraints[1].kind = ConstraintKind::kNonNegativeL1;
  constraints[1].lambda = 0.02;
  constraints[2].kind = ConstraintKind::kSimplex;

  CpdConfig cfg;
  cfg.with_rank(static_cast<rank_t>(topics))
      .with_max_outer(60)
      .with_tolerance(1e-5)
      .with_constraints(ModeConstraints::per_mode(std::move(constraints)));
  CpdSolver solver(csf, cfg);
  const CpdResult r = solver.solve();
  std::printf("factorized in %u outer iterations, relative error %.4f\n\n",
              r.outer_iterations, static_cast<double>(r.relative_error));

  // Each epoch row sums to 1 (simplex): print the recovered mixtures.
  std::printf("recovered epoch mixtures (rows sum to 1):\n");
  for (index_t e = 0; e < epochs; ++e) {
    std::printf("  epoch %2u: ", e);
    for (int t = 0; t < topics; ++t) {
      std::printf("%.2f ", static_cast<double>(r.factors[2](e, t)));
    }
    std::printf("\n");
  }

  // Topic purity: for each component, take its top-20 words and check they
  // share a planted topic.
  std::printf("\ncomponent word-cluster purity (top-20 words):\n");
  int pure_components = 0;
  for (int comp = 0; comp < topics; ++comp) {
    std::vector<std::pair<real_t, index_t>> scored;
    scored.reserve(words);
    for (index_t w = 0; w < words; ++w) {
      scored.emplace_back(r.factors[1](w, comp), w);
    }
    std::partial_sort(scored.begin(), scored.begin() + 20, scored.end(),
                      std::greater<>());
    std::vector<int> votes(topics, 0);
    for (int k = 0; k < 20; ++k) {
      ++votes[corpus.word_topic[scored[k].second]];
    }
    const int best = static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    const double purity = votes[best] / 20.0;
    std::printf("  component %d -> planted topic %d, purity %.0f%%\n", comp,
                best, 100.0 * purity);
    pure_components += purity >= 0.8 ? 1 : 0;
  }

  std::printf("\n%d/%d components recovered a planted topic cleanly.\n",
              pure_components, topics);
  return pure_components >= topics - 1 ? 0 : 1;
}
