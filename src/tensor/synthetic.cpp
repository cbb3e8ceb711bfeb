#include "tensor/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace aoadmm {
namespace {

std::vector<real_t> broadcast_alpha(const SyntheticSpec& spec) {
  const std::size_t order = spec.dims.size();
  if (spec.zipf_alpha.empty()) {
    return std::vector<real_t>(order, real_t{1});
  }
  if (spec.zipf_alpha.size() == 1) {
    return std::vector<real_t>(order, spec.zipf_alpha[0]);
  }
  AOADMM_CHECK_MSG(spec.zipf_alpha.size() == order,
                   "zipf_alpha must have 0, 1, or order entries");
  return spec.zipf_alpha;
}

/// Shuffled identity map so Zipf rank-1 ("most popular") indices are spread
/// across the mode rather than clustered at 0 — matches real data where
/// popular items appear at arbitrary ids.
std::vector<index_t> shuffled_ids(index_t n, Rng& rng) {
  std::vector<index_t> ids(n);
  for (index_t i = 0; i < n; ++i) {
    ids[i] = i;
  }
  for (index_t i = n; i > 1; --i) {
    const auto j = static_cast<index_t>(rng.uniform_index(i));
    std::swap(ids[i - 1], ids[j]);
  }
  return ids;
}

}  // namespace

std::vector<Matrix> synthetic_ground_truth(const SyntheticSpec& spec) {
  AOADMM_CHECK(spec.true_rank > 0);
  Rng rng(spec.seed ^ 0x5eedfac7u);
  std::vector<Matrix> factors;
  factors.reserve(spec.dims.size());
  for (const index_t d : spec.dims) {
    Matrix a = Matrix::random_uniform(d, spec.true_rank, rng, 0.1, 1.0);
    if (spec.factor_zero_prob > 0) {
      for (auto& v : a.flat()) {
        if (rng.uniform() < spec.factor_zero_prob) {
          v = 0;
        }
      }
    }
    factors.push_back(std::move(a));
  }
  return factors;
}

CooTensor make_synthetic(const SyntheticSpec& spec) {
  const std::size_t order = spec.dims.size();
  AOADMM_CHECK_MSG(order >= 2, "synthetic tensors must have order >= 2");
  AOADMM_CHECK(spec.nnz > 0);
  for (const index_t d : spec.dims) {
    AOADMM_CHECK_MSG(d >= 1, "synthetic tensors need every mode length >= 1");
  }
  offset_t capacity = 1;
  bool overflow = false;
  for (const index_t d : spec.dims) {
    if (capacity > (offset_t{1} << 62) / d) {
      overflow = true;
      break;
    }
    capacity *= d;
  }
  AOADMM_CHECK_MSG(overflow || spec.nnz <= capacity,
                   "requested nnz exceeds tensor capacity");

  const auto alphas = broadcast_alpha(spec);
  Rng rng(spec.seed);

  std::vector<ZipfSampler> samplers;
  std::vector<std::vector<index_t>> id_maps;
  samplers.reserve(order);
  id_maps.reserve(order);
  for (std::size_t m = 0; m < order; ++m) {
    samplers.emplace_back(spec.dims[m], alphas[m]);
    id_maps.push_back(shuffled_ids(spec.dims[m], rng));
  }

  std::vector<Matrix> truth;
  if (spec.true_rank > 0) {
    truth = synthetic_ground_truth(spec);
  }

  CooTensor out(spec.dims);
  out.reserve(spec.nnz + spec.nnz / 8);
  std::vector<index_t> coord(order);

  // Oversample, deduplicate, repeat until the target count is reached.
  offset_t have = 0;
  int rounds = 0;
  while (have < spec.nnz && rounds < 64) {
    const offset_t want = spec.nnz - have;
    const offset_t batch = want + want / 8 + 16;
    for (offset_t n = 0; n < batch; ++n) {
      for (std::size_t m = 0; m < order; ++m) {
        coord[m] = id_maps[m][samplers[m](rng)];
      }
      out.add(coord, real_t{1});
    }
    // deduplicate() sums duplicate coordinates; the placeholder values are
    // discarded below, so the summing is harmless.
    out.deduplicate();
    have = out.nnz();
    ++rounds;
  }

  // Assign final values in one deterministic pass over the distinct
  // coordinates (duplicate draws above must not inflate values).
  for (offset_t n = 0; n < out.nnz(); ++n) {
    real_t value;
    if (spec.true_rank > 0) {
      real_t model = 0;
      for (rank_t c = 0; c < spec.true_rank; ++c) {
        real_t prod = 1;
        for (std::size_t m = 0; m < order; ++m) {
          prod *= truth[m](out.index(m, n), c);
        }
        model += prod;
      }
      value = model;
      if (spec.noise > 0) {
        value += spec.noise * std::abs(model) * rng.normal();
      }
      // Keep values strictly positive so non-negative factorizations have
      // signal; real rating/count tensors are positive too.
      value = std::max(value, real_t{1e-6});
    } else {
      value = std::max(rng.uniform(), real_t{1e-12});
    }
    out.value(n) = value;
  }

  // Trim any overshoot deterministically (keep the lexicographically first
  // spec.nnz entries; the set is already effectively random).
  if (out.nnz() > spec.nnz) {
    CooTensor trimmed(spec.dims);
    trimmed.reserve(spec.nnz);
    std::vector<index_t> c(order);
    for (offset_t n = 0; n < spec.nnz; ++n) {
      for (std::size_t m = 0; m < order; ++m) {
        c[m] = out.index(m, n);
      }
      trimmed.add(c, out.value(n));
    }
    return trimmed;
  }
  return out;
}

std::vector<NamedDataset> frostt_standins(real_t scale) {
  AOADMM_CHECK(scale > 0);
  // `scale` multiplies BOTH the mode lengths and the non-zero count, so the
  // nnz-per-row ratio — which decides whether MTTKRP or ADMM dominates
  // (paper Fig. 3) — is scale-invariant.
  const auto n = [scale](offset_t base) {
    return static_cast<offset_t>(std::max<real_t>(1, std::round(
        static_cast<real_t>(base) * scale)));
  };
  const auto dim = [scale](index_t base, index_t floor) {
    const auto scaled = static_cast<index_t>(std::max<real_t>(
        1, std::round(static_cast<real_t>(base) * scale)));
    return std::max(scaled, floor);
  };

  std::vector<NamedDataset> sets;

  // Reddit: 310K x 6K x 510K, 95M nnz — user x community x word, strongly
  // skewed users/words. nnz/Σdims tuned so MTTKRP and ADMM are roughly
  // balanced (the paper's middle case).
  {
    NamedDataset d;
    d.name = "reddit-s";
    d.paper_analogue = "Reddit (user x community x word, 95M nnz)";
    d.spec.dims = {dim(12000, 64), dim(400, 16), dim(20000, 64)};
    d.spec.nnz = n(1800000);
    d.spec.zipf_alpha = {1.1, 0.8, 1.1};
    d.spec.true_rank = 16;
    d.spec.noise = 0.25;
    d.spec.seed = 1001;
    sets.push_back(std::move(d));
  }

  // NELL: 3M x 2M x 25M, 143M nnz — extremely sparse with very long modes;
  // the ADMM-dominated dataset (paper Fig. 3): few nnz per row.
  {
    NamedDataset d;
    d.name = "nell-s";
    d.paper_analogue = "NELL (noun x verb x noun, 143M nnz, hypersparse)";
    d.spec.dims = {dim(40000, 64), dim(30000, 64), dim(120000, 64)};
    d.spec.nnz = n(760000);
    d.spec.zipf_alpha = {1.0, 1.0, 1.0};
    d.spec.true_rank = 16;
    d.spec.noise = 0.25;
    d.spec.seed = 1002;
    sets.push_back(std::move(d));
  }

  // Amazon: 5M x 18M x 2M, 1.7B nnz — MTTKRP-dominated (many nnz per row).
  // Exhibits recoverable factor sparsity (Table II).
  {
    NamedDataset d;
    d.name = "amazon-s";
    d.paper_analogue = "Amazon (user x item x word, 1.7B nnz)";
    d.spec.dims = {dim(8000, 64), dim(25000, 64), dim(4000, 64)};
    d.spec.nnz = n(2500000);
    d.spec.zipf_alpha = {0.9, 1.2, 0.9};
    d.spec.true_rank = 16;
    d.spec.noise = 0.25;
    d.spec.factor_zero_prob = 0.5;
    d.spec.seed = 1003;
    sets.push_back(std::move(d));
  }

  // Patents: 46 x 240K x 240K, 3.5B nnz — one tiny mode, very dense slices;
  // the most MTTKRP-bound dataset (paper: nnz/Σdims ≈ 6650; here ≈ 50,
  // enough to preserve MTTKRP dominance at the scaled rank).
  {
    NamedDataset d;
    d.name = "patents-s";
    d.paper_analogue = "Patents (year x word x word, 3.5B nnz, dense slices)";
    d.spec.dims = {dim(46, 12), dim(12000, 64), dim(12000, 64)};
    d.spec.nnz = n(4800000);
    d.spec.zipf_alpha = {0.3, 1.0, 1.0};
    d.spec.true_rank = 16;
    d.spec.noise = 0.25;
    d.spec.seed = 1004;
    sets.push_back(std::move(d));
  }

  return sets;
}

NamedDataset frostt_standin(const std::string& name, real_t scale) {
  for (auto& d : frostt_standins(scale)) {
    if (d.name == name) {
      return d;
    }
  }
  throw InvalidArgument("unknown dataset stand-in: " + name +
                        " (expected reddit-s|nell-s|amazon-s|patents-s)");
}

}  // namespace aoadmm
