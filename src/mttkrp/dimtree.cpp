#include "mttkrp/dimtree.hpp"

#include <algorithm>

#include "mttkrp/alto.hpp"
#include "mttkrp/mttkrp_obs.hpp"
#include "obs/metrics.hpp"
#include "parallel/runtime.hpp"
#include "tensor/alto.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace aoadmm::detail {

namespace {

/// Process-wide reuse counters mirroring the per-engine DimTreeStats.
struct DimTreeMetrics {
  obs::Counter computed;
  obs::Counter reused;
  static const DimTreeMetrics& get() {
    static const DimTreeMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return DimTreeMetrics{reg.counter("mttkrp/dimtree/levels_computed"),
                            reg.counter("mttkrp/dimtree/levels_reused")};
    }();
    return m;
  }
};

}  // namespace

void DimTreeEngine::bind(const CsfTensor& csf, std::size_t rank) {
  if (tree_ == &csf && rank_ == rank) {
    return;
  }
  AOADMM_CHECK_MSG(csf.order() >= 3,
                   "dimension-tree MTTKRP needs order >= 3");
  tree_ = &csf;
  rank_ = rank;
  order_ = csf.order();
  level_of_mode_.assign(order_, 0);
  for (std::size_t l = 0; l < order_; ++l) {
    level_of_mode_[csf.level_mode(l)] = l;
  }
  up_.resize(order_);
  down_.resize(order_);
  up_valid_.assign(order_, 0);
  down_valid_.assign(order_, 0);
  for (std::size_t l = 1; l + 1 < order_; ++l) {
    const std::size_t elems = csf.num_nodes(l) * rank_;
    up_[l].resize(elems);
    down_[l].resize(elems);
  }
}

void DimTreeEngine::invalidate_mode(std::size_t mode) noexcept {
  if (tree_ == nullptr || mode >= level_of_mode_.size()) {
    return;
  }
  const std::size_t s = level_of_mode_[mode];
  // up[l] reads the factors at levels l+1..order-1; down[l] reads levels
  // 0..l. Drop exactly the arrays whose inputs changed.
  for (std::size_t l = 1; l + 1 < order_; ++l) {
    if (l < s) {
      up_valid_[l] = 0;
    }
    if (l >= s) {
      down_valid_[l] = 0;
    }
  }
}

void DimTreeEngine::invalidate_all() noexcept {
  std::fill(up_valid_.begin(), up_valid_.end(), char{0});
  std::fill(down_valid_.begin(), down_valid_.end(), char{0});
}

cspan<std::size_t> DimTreeEngine::compose_bounds(std::size_t level,
                                                 int planned) {
  const auto& root_bounds =
      tree_->root_partition(static_cast<std::size_t>(planned));
  bounds_buf_.assign(root_bounds.begin(), root_bounds.end());
  for (std::size_t l = 0; l < level; ++l) {
    const auto fptr = tree_->fptr(l);
    for (std::size_t& b : bounds_buf_) {
      b = static_cast<std::size_t>(fptr[b]);
    }
  }
  return bounds_buf_;
}

void DimTreeEngine::ensure_up(std::size_t level, cspan<const Matrix> factors,
                              int planned) {
  const auto& metrics = DimTreeMetrics::get();
  if (up_valid_[level]) {
    ++stats_.levels_reused;
    metrics.reused.add(1);
    return;
  }
  const bool child_is_leaf = level + 2 == order_;
  if (!child_is_leaf) {
    ensure_up(level + 1, factors, planned);
  }
  const DimTreePass pass{*tree_, factors, rank_, level,
                         compose_bounds(level, planned), planned};
  kernels_->dimtree_up(pass, child_is_leaf ? nullptr : up_[level + 1].data(),
                       up_[level].data());
  up_valid_[level] = 1;
  ++stats_.levels_computed;
  metrics.computed.add(1);
}

void DimTreeEngine::ensure_down(std::size_t level,
                                cspan<const Matrix> factors, int planned) {
  const auto& metrics = DimTreeMetrics::get();
  if (down_valid_[level]) {
    ++stats_.levels_reused;
    metrics.reused.add(1);
    return;
  }
  if (level >= 2) {
    ensure_down(level - 1, factors, planned);
  }
  const DimTreePass pass{*tree_, factors, rank_, level,
                         compose_bounds(level - 1, planned), planned};
  kernels_->dimtree_down(pass, level >= 2 ? down_[level - 1].data() : nullptr,
                         down_[level].data());
  down_valid_[level] = 1;
  ++stats_.levels_computed;
  metrics.computed.add(1);
}

void DimTreeEngine::mttkrp(const CsfTensor& csf, cspan<const Matrix> factors,
                           std::size_t target_mode, Matrix& out,
                           MttkrpSchedule schedule) {
  AOADMM_MTTKRP_OBS("dimtree");
  (void)schedule;  // every policy maps to the privatized deterministic path
  const std::size_t order = csf.order();
  AOADMM_CHECK(order >= 3);
  AOADMM_CHECK(factors.size() == order);
  AOADMM_CHECK(target_mode < order);
  const std::size_t f = factors[target_mode].cols();
  for (std::size_t m = 0; m < order; ++m) {
    AOADMM_CHECK(factors[m].cols() == f);
    AOADMM_CHECK(factors[m].rows() == csf.dims()[m]);
  }

  bind(csf, f);
  const std::size_t t = level_of_mode_[target_mode];

  const index_t rows = csf.dims()[target_mode];
  if (out.rows() != rows || out.cols() != f) {
    out.resize(rows, f);
  } else {
    out.zero();
  }

  const int planned = std::max(max_threads(), 1);
  if (t == 0) {
    ensure_up(1, factors, planned);
    const DimTreePass pass{csf, factors, f, t,
                           csf.root_partition(
                               static_cast<std::size_t>(planned)),
                           planned};
    kernels_->dimtree_root(pass, up_[1].data(), out);
  } else if (t == order_ - 1) {
    ensure_down(order_ - 2, factors, planned);
    const DimTreePass pass{csf, factors, f, t,
                           compose_bounds(order_ - 2, planned), planned};
    kernels_->dimtree_leaf(pass, down_[order_ - 2].data(), out);
  } else {
    if (t >= 2) {
      ensure_down(t - 1, factors, planned);
    }
    ensure_up(t, factors, planned);
    const DimTreePass pass{csf, factors, f, t,
                           compose_bounds(t - 1, planned), planned};
    kernels_->dimtree_inner(pass, t >= 2 ? down_[t - 1].data() : nullptr,
                            up_[t].data(), out);
  }
}

}  // namespace aoadmm::detail

namespace aoadmm {

MttkrpKernel resolve_auto_kernel(MttkrpKernel requested, CsfStrategy strategy,
                                 bool /*tiled*/, bool dense_leaf,
                                 std::size_t order, cspan<index_t> dims,
                                 offset_t nnz, rank_t rank) {
  if (requested != MttkrpKernel::kAuto) {
    return requested;
  }
  if (strategy == CsfStrategy::kAllMode) {
    // One race-free root tree per mode: the per-mode root kernel is already
    // optimal and the dimension tree has no single tree to cache over.
    return MttkrpKernel::kAllMode;
  }
  if (!dense_leaf || order < 3) {
    return MttkrpKernel::kOneTree;
  }
  if (order >= 4) {
    // The cyclic sweep recomputes order() MTTKRPs per iteration; cached
    // partials amortize better the deeper the tree. The caches are
    // O(nnz x rank) per level though, so past kDimTreeMaxRank the extra
    // memory traffic eats the flop savings (measured crossover on
    // bench_mttkrp_kernels: wins up to rank 32, parity-to-loss at 64).
    if (rank == 0 || rank < kDimTreeMaxRank) {
      AOADMM_LOG_DEBUG << "mttkrp kAuto -> kDimTree (order=" << order
                       << " rank=" << rank
                       << " isa=" << mttkrp_isa_flavor() << ")";
      return MttkrpKernel::kDimTree;
    }
    AOADMM_LOG_DEBUG << "mttkrp kAuto -> kOneTree (order=" << order
                     << " rank=" << rank << " >= " << kDimTreeMaxRank
                     << " isa=" << mttkrp_isa_flavor() << ")";
    return MttkrpKernel::kOneTree;
  }
  // Order 3: the one-tree walk is already two-level. Prefer ALTO only for
  // the sparse, skewed tensors whose root slices defeat fiber splitting.
  index_t dmin = dims.empty() ? 1 : dims[0];
  index_t dmax = dmin;
  double cells = 1.0;
  for (index_t d : dims) {
    dmin = std::min(dmin, d);
    dmax = std::max(dmax, d);
    cells *= static_cast<double>(d);
  }
  const double density = cells > 0 ? static_cast<double>(nnz) / cells : 1.0;
  const double skew =
      dmin > 0 ? static_cast<double>(dmax) / static_cast<double>(dmin) : 1.0;
  if (skew > 4.0 && density < 1e-4 && alto_linearizable(dims)) {
    AOADMM_LOG_DEBUG << "mttkrp kAuto -> kAlto (skew=" << skew
                     << " density=" << density
                     << " isa=" << mttkrp_isa_flavor() << ")";
    return MttkrpKernel::kAlto;
  }
  AOADMM_LOG_DEBUG << "mttkrp kAuto -> kOneTree (skew=" << skew
                   << " density=" << density
                   << " isa=" << mttkrp_isa_flavor() << ")";
  return MttkrpKernel::kOneTree;
}

void mttkrp_dispatch(const CsfTensor& csf, cspan<const Matrix> factors,
                     std::size_t target_mode, Matrix& out, MttkrpKernel kernel,
                     detail::DimTreeEngine* dimtree) {
  switch (kernel) {
    case MttkrpKernel::kDimTree:
      AOADMM_CHECK_MSG(dimtree != nullptr,
                       "kDimTree dispatch needs a DimTreeEngine");
      dimtree->mttkrp(csf, factors, target_mode, out);
      return;
    case MttkrpKernel::kAlto:
      mttkrp_alto(csf.alto_index(), factors, target_mode, out);
      return;
    case MttkrpKernel::kAuto:
    case MttkrpKernel::kAllMode:
    case MttkrpKernel::kOneTree:
      break;
  }
  mttkrp_dispatch(csf, factors, target_mode, out);
}

}  // namespace aoadmm
