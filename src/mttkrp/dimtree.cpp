#include "mttkrp/dimtree.hpp"

#include <algorithm>

#include "mttkrp/alto.hpp"
#include "mttkrp/microkernels.hpp"
#include "mttkrp/mttkrp_impl.hpp"
#include "mttkrp/mttkrp_obs.hpp"
#include "mttkrp/thread_scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/parallel_stats.hpp"
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

void DimTreeEngine::compose_bounds(std::size_t level, int planned) {
  const auto& root_bounds =
      tree_->root_partition(static_cast<std::size_t>(planned));
  bounds_buf_.assign(root_bounds.begin(), root_bounds.end());
  for (std::size_t l = 0; l < level; ++l) {
    const auto fptr = tree_->fptr(l);
    for (std::size_t& b : bounds_buf_) {
      b = static_cast<std::size_t>(fptr[b]);
    }
  }
}

/// up[l][n] = sum over children c of inclusive(c). Disjoint writes per node,
/// parallel over the composed root chunks at level l.
template <int R>
void DimTreeEngine::refresh_up(std::size_t level, cspan<const Matrix> factors,
                               int planned) {
  using Ops = RowOps<R>;
  const std::size_t f = rank_;
  const bool child_is_leaf = (level + 1 == order_ - 1);
  const auto fptr = tree_->fptr(level);
  const auto child_fids = tree_->fids(level + 1);
  const auto vals = tree_->vals();
  const real_t* __restrict child_factor =
      factors[tree_->level_mode(level + 1)].data();
  const real_t* __restrict up_next =
      child_is_leaf ? nullptr : up_[level + 1].data();
  real_t* __restrict up = up_[level].data();

  compose_bounds(level, planned);
  const std::size_t parts = bounds_buf_.size() - 1;
  const std::size_t* __restrict bounds = bounds_buf_.data();
  obs::BusyTimes busy(planned, obs::RegionDomain::kMttkrp);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    const int tid = thread_id();
    const auto team = static_cast<std::size_t>(std::max(team_size(), 1));
    const double t0 = mttkrp_now();
    for (std::size_t c = static_cast<std::size_t>(tid); c < parts;
         c += team) {
      for (std::size_t n = bounds[c]; n < bounds[c + 1]; ++n) {
        real_t* __restrict z = up + n * f;
        Ops::zero(z, f);
        for (offset_t ch = fptr[n]; ch < fptr[n + 1]; ++ch) {
          const real_t* __restrict row =
              child_factor + static_cast<std::size_t>(child_fids[ch]) * f;
          if (child_is_leaf) {
            Ops::axpy(z, vals[ch], row, f);
          } else {
            Ops::mul_add(z, up_next + static_cast<std::size_t>(ch) * f, row,
                         f);
          }
        }
      }
    }
    busy.add(tid, mttkrp_now() - t0);
  }
}

/// down[l][c] = down[l-1][parent(c)] ∘ row(c). Iterates the parents at
/// level l-1 so each child is written exactly once.
template <int R>
void DimTreeEngine::refresh_down(std::size_t level,
                                 cspan<const Matrix> factors, int planned) {
  using Ops = RowOps<R>;
  const std::size_t f = rank_;
  const std::size_t pl = level - 1;
  const auto fptr = tree_->fptr(pl);
  const auto fids = tree_->fids(level);
  const auto root_fids = tree_->fids(0);
  const real_t* __restrict own_factor =
      factors[tree_->level_mode(level)].data();
  const real_t* __restrict root_factor =
      factors[tree_->level_mode(0)].data();
  const real_t* __restrict down_parent = pl >= 1 ? down_[pl].data() : nullptr;
  real_t* __restrict down = down_[level].data();

  compose_bounds(pl, planned);
  const std::size_t parts = bounds_buf_.size() - 1;
  const std::size_t* __restrict bounds = bounds_buf_.data();
  obs::BusyTimes busy(planned, obs::RegionDomain::kMttkrp);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    const int tid = thread_id();
    const auto team = static_cast<std::size_t>(std::max(team_size(), 1));
    const double t0 = mttkrp_now();
    for (std::size_t c = static_cast<std::size_t>(tid); c < parts;
         c += team) {
      for (std::size_t p = bounds[c]; p < bounds[c + 1]; ++p) {
        const real_t* __restrict base =
            pl == 0 ? root_factor + static_cast<std::size_t>(root_fids[p]) * f
                    : down_parent + p * f;
        for (offset_t ch = fptr[p]; ch < fptr[p + 1]; ++ch) {
          Ops::mul(down + static_cast<std::size_t>(ch) * f, base,
                   own_factor + static_cast<std::size_t>(fids[ch]) * f, f);
        }
      }
    }
    busy.add(tid, mttkrp_now() - t0);
  }
}

/// Root target: K(root_fid(r)) = sum over level-1 children of
/// row(c) ∘ up[1][c]. Root rows are distinct, so writes are race-free.
template <int R>
void DimTreeEngine::combine_root(cspan<const Matrix> factors, Matrix& out,
                                 int planned) {
  using Ops = RowOps<R>;
  const std::size_t f = rank_;
  const auto root_fids = tree_->fids(0);
  const auto fptr = tree_->fptr(0);
  const auto child_fids = tree_->fids(1);
  const real_t* __restrict child_factor =
      factors[tree_->level_mode(1)].data();
  const real_t* __restrict up1 = up_[1].data();

  const auto& bounds =
      tree_->root_partition(static_cast<std::size_t>(planned));
  const std::size_t parts = bounds.size() - 1;
  obs::BusyTimes busy(planned, obs::RegionDomain::kMttkrp);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    const int tid = thread_id();
    const auto team = static_cast<std::size_t>(std::max(team_size(), 1));
    const double t0 = mttkrp_now();
    for (std::size_t c = static_cast<std::size_t>(tid); c < parts;
         c += team) {
      for (std::size_t r = bounds[c]; r < bounds[c + 1]; ++r) {
        real_t* __restrict krow =
            out.data() + static_cast<std::size_t>(root_fids[r]) * f;
        for (offset_t ch = fptr[r]; ch < fptr[r + 1]; ++ch) {
          Ops::mul_add(krow, up1 + static_cast<std::size_t>(ch) * f,
                       child_factor +
                           static_cast<std::size_t>(child_fids[ch]) * f,
                       f);
        }
      }
    }
    busy.add(tid, mttkrp_now() - t0);
  }
}

/// Internal target at level t: contribution of node n is
/// down[t-1][parent(n)] ∘ up[t][n], scattered into shared output rows via
/// the privatized per-thread reduction (serial fast path below one thread).
template <int R>
void DimTreeEngine::combine_inner(std::size_t t, cspan<const Matrix> factors,
                                  Matrix& out, int planned) {
  using Ops = RowOps<R>;
  const std::size_t f = rank_;
  const std::size_t pl = t - 1;
  const auto fptr = tree_->fptr(pl);
  const auto fids = tree_->fids(t);
  const auto root_fids = tree_->fids(0);
  const real_t* __restrict root_factor =
      factors[tree_->level_mode(0)].data();
  const real_t* __restrict down_parent = pl >= 1 ? down_[pl].data() : nullptr;
  const real_t* __restrict up = up_[t].data();

  compose_bounds(pl, planned);
  const std::size_t parts = bounds_buf_.size() - 1;
  const std::size_t* __restrict bounds = bounds_buf_.data();
  const std::size_t copy_elems = out.rows() * f;
  const auto out_rows = static_cast<std::ptrdiff_t>(out.rows());

  if (planned <= 1) {
    obs::BusyTimes busy(1, obs::RegionDomain::kMttkrp);
    real_t* const contrib = mttkrp_thread_scratch(f);
    const double t0 = mttkrp_now();
    for (std::size_t p = 0; p < static_cast<std::size_t>(tree_->num_nodes(pl));
         ++p) {
      const real_t* __restrict base =
          pl == 0 ? root_factor + static_cast<std::size_t>(root_fids[p]) * f
                  : down_parent + p * f;
      for (offset_t ch = fptr[p]; ch < fptr[p + 1]; ++ch) {
        Ops::mul(contrib, base, up + static_cast<std::size_t>(ch) * f, f);
        Ops::add(out.data() + static_cast<std::size_t>(fids[ch]) * f, contrib,
                 f);
      }
    }
    busy.add(0, mttkrp_now() - t0);
    return;
  }

  BufferTable table(planned);
  real_t** const bufs = table.data();
  obs::BusyTimes busy(planned, obs::RegionDomain::kMttkrp);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    const int tid = thread_id();
    const auto team = static_cast<std::size_t>(std::max(team_size(), 1));
    real_t* const base_buf = mttkrp_thread_scratch(f + copy_elems);
    real_t* const contrib = base_buf;
    const double t0 = mttkrp_now();
    if (tid < planned) {
      real_t* const local = base_buf + f;
      std::fill(local, local + copy_elems, real_t{0});
      bufs[tid] = local;
      for (std::size_t c = static_cast<std::size_t>(tid); c < parts;
           c += team) {
        for (std::size_t p = bounds[c]; p < bounds[c + 1]; ++p) {
          const real_t* __restrict dbase =
              pl == 0 ? root_factor +
                            static_cast<std::size_t>(root_fids[p]) * f
                      : down_parent + p * f;
          for (offset_t ch = fptr[p]; ch < fptr[p + 1]; ++ch) {
            Ops::mul(contrib, dbase, up + static_cast<std::size_t>(ch) * f,
                     f);
            Ops::add(local + static_cast<std::size_t>(fids[ch]) * f, contrib,
                     f);
          }
        }
      }
    }
    busy.add(tid, mttkrp_now() - t0);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp barrier
#endif

    const double t1 = mttkrp_now();
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp for schedule(static) nowait
#endif
    for (std::ptrdiff_t row = 0; row < out_rows; ++row) {
      real_t* __restrict dst = out.data() + static_cast<std::size_t>(row) * f;
      for (int p = 0; p < planned; ++p) {
        if (bufs[p] != nullptr) {
          Ops::add(dst, bufs[p] + static_cast<std::size_t>(row) * f, f);
        }
      }
    }
    busy.add(tid, mttkrp_now() - t1);
  }
}

/// Leaf target: contribution of leaf n is val(n) · down[order-2][parent(n)].
template <int R>
void DimTreeEngine::combine_leaf(cspan<const Matrix> factors, Matrix& out,
                                 int planned) {
  using Ops = RowOps<R>;
  (void)factors;
  const std::size_t f = rank_;
  const std::size_t pl = order_ - 2;
  const auto fptr = tree_->fptr(pl);
  const auto leaf_fids = tree_->fids(order_ - 1);
  const auto vals = tree_->vals();
  const real_t* __restrict down_parent = down_[pl].data();

  compose_bounds(pl, planned);
  const std::size_t parts = bounds_buf_.size() - 1;
  const std::size_t* __restrict bounds = bounds_buf_.data();
  const std::size_t copy_elems = out.rows() * f;
  const auto out_rows = static_cast<std::ptrdiff_t>(out.rows());

  if (planned <= 1) {
    obs::BusyTimes busy(1, obs::RegionDomain::kMttkrp);
    const double t0 = mttkrp_now();
    for (std::size_t p = 0; p < static_cast<std::size_t>(tree_->num_nodes(pl));
         ++p) {
      const real_t* __restrict base = down_parent + p * f;
      for (offset_t ch = fptr[p]; ch < fptr[p + 1]; ++ch) {
        Ops::axpy(out.data() + static_cast<std::size_t>(leaf_fids[ch]) * f,
                  vals[ch], base, f);
      }
    }
    busy.add(0, mttkrp_now() - t0);
    return;
  }

  BufferTable table(planned);
  real_t** const bufs = table.data();
  obs::BusyTimes busy(planned, obs::RegionDomain::kMttkrp);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    const int tid = thread_id();
    const auto team = static_cast<std::size_t>(std::max(team_size(), 1));
    real_t* const base_buf = mttkrp_thread_scratch(copy_elems);
    const double t0 = mttkrp_now();
    if (tid < planned) {
      real_t* const local = base_buf;
      std::fill(local, local + copy_elems, real_t{0});
      bufs[tid] = local;
      for (std::size_t c = static_cast<std::size_t>(tid); c < parts;
           c += team) {
        for (std::size_t p = bounds[c]; p < bounds[c + 1]; ++p) {
          const real_t* __restrict base = down_parent + p * f;
          for (offset_t ch = fptr[p]; ch < fptr[p + 1]; ++ch) {
            Ops::axpy(local + static_cast<std::size_t>(leaf_fids[ch]) * f,
                      vals[ch], base, f);
          }
        }
      }
    }
    busy.add(tid, mttkrp_now() - t0);

#if defined(AOADMM_HAVE_OPENMP)
#pragma omp barrier
#endif

    const double t1 = mttkrp_now();
#if defined(AOADMM_HAVE_OPENMP)
#pragma omp for schedule(static) nowait
#endif
    for (std::ptrdiff_t row = 0; row < out_rows; ++row) {
      real_t* __restrict dst = out.data() + static_cast<std::size_t>(row) * f;
      for (int p = 0; p < planned; ++p) {
        if (bufs[p] != nullptr) {
          Ops::add(dst, bufs[p] + static_cast<std::size_t>(row) * f, f);
        }
      }
    }
    busy.add(tid, mttkrp_now() - t1);
  }
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
  const auto& metrics = DimTreeMetrics::get();

  rank_dispatch(f, [&](auto rc) {
    constexpr int R = decltype(rc)::value;
    const auto ensure_up = [&](auto&& self, std::size_t l) -> void {
      if (up_valid_[l]) {
        ++stats_.levels_reused;
        metrics.reused.add(1);
        return;
      }
      if (l + 2 < order_) {
        self(self, l + 1);
      }
      refresh_up<R>(l, factors, planned);
      up_valid_[l] = 1;
      ++stats_.levels_computed;
      metrics.computed.add(1);
    };
    const auto ensure_down = [&](auto&& self, std::size_t l) -> void {
      if (down_valid_[l]) {
        ++stats_.levels_reused;
        metrics.reused.add(1);
        return;
      }
      if (l >= 2) {
        self(self, l - 1);
      }
      refresh_down<R>(l, factors, planned);
      down_valid_[l] = 1;
      ++stats_.levels_computed;
      metrics.computed.add(1);
    };

    if (t == 0) {
      ensure_up(ensure_up, 1);
      combine_root<R>(factors, out, planned);
    } else if (t == order_ - 1) {
      ensure_down(ensure_down, order_ - 2);
      combine_leaf<R>(factors, out, planned);
    } else {
      if (t >= 2) {
        ensure_down(ensure_down, t - 1);
      }
      ensure_up(ensure_up, t);
      combine_inner<R>(t, factors, out, planned);
    }
  });
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
                       << " rank=" << rank << ")";
      return MttkrpKernel::kDimTree;
    }
    AOADMM_LOG_DEBUG << "mttkrp kAuto -> kOneTree (order=" << order
                     << " rank=" << rank << " >= " << kDimTreeMaxRank << ")";
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
                     << " density=" << density << ")";
    return MttkrpKernel::kAlto;
  }
  AOADMM_LOG_DEBUG << "mttkrp kAuto -> kOneTree (skew=" << skew
                   << " density=" << density << ")";
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
