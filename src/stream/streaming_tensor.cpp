#include "stream/streaming_tensor.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "obs/telemetry/trace_context.hpp"
#include "obs/telemetry/window_quantiles.hpp"
#include "stream/wal.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace aoadmm {
namespace {

/// Ingest-side registry handles, registered once per process (shared by
/// every StreamingTensor; per-instance numbers live in StreamingStats).
struct IngestMetrics {
  obs::Counter batches;
  obs::Counter ingest_nnz;
  obs::Counter ingest_seconds;
  obs::Counter appends;
  obs::Counter overwrites;
  obs::Counter evictions;
  obs::Counter late_drops;
  obs::Counter full_rebuilds;
  obs::Counter value_patches;
  obs::Counter compile_seconds;
  obs::Gauge nnz;
  obs::Gauge watermark;
  obs::Gauge ingest_nnz_per_sec;

  static const IngestMetrics& get() {
    static const IngestMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      IngestMetrics out;
      out.batches = reg.counter("stream/ingest_batches");
      out.ingest_nnz = reg.counter("stream/ingest_nnz");
      out.ingest_seconds = reg.counter("stream/ingest_seconds");
      out.appends = reg.counter("stream/appends");
      out.overwrites = reg.counter("stream/overwrites");
      out.evictions = reg.counter("stream/evictions");
      out.late_drops = reg.counter("stream/late_drops");
      out.full_rebuilds = reg.counter("stream/csf_full_rebuilds");
      out.value_patches = reg.counter("stream/csf_value_patches");
      out.compile_seconds = reg.counter("stream/compile_seconds");
      out.nnz = reg.gauge("stream/nnz");
      out.watermark = reg.gauge("stream/watermark");
      out.ingest_nnz_per_sec = reg.gauge("stream/ingest_nnz_per_sec");
      return out;
    }();
    return m;
  }
};

/// Table size for `count` positions: a power of two at least twice the
/// count, so the load stays at most 1/2.
std::size_t index_slots_for(offset_t count) {
  constexpr std::size_t kMinSlots = 16;
  return std::bit_ceil(
      std::max<std::size_t>(kMinSlots, 2 * static_cast<std::size_t>(count)));
}

}  // namespace

StreamingTensor::StreamingTensor(std::vector<index_t> initial_dims,
                                 StreamingOptions opts)
    : opts_(opts), coo_(std::move(initial_dims)) {
  AOADMM_CHECK_MSG(coo_.order() >= 2, "streaming tensor order must be >= 2");
  if (opts_.time_mode == StreamingOptions::kLastMode) {
    opts_.time_mode = coo_.order() - 1;
  }
  AOADMM_CHECK_MSG(opts_.time_mode < coo_.order(),
                   "time_mode must name a mode of the tensor");
  AOADMM_CHECK_MSG(opts_.churn_threshold > 0,
                   "churn_threshold must be positive");
}

std::uint64_t StreamingTensor::hash_coord(const CooTensor& t,
                                          offset_t n) const {
  // Multiply-xorshift, one index per step. The hash never leaves this
  // table and every hit is verified by exact compare, so it only has to
  // spread the slots.
  std::uint64_t h = 0;
  for (std::size_t m = 0; m < t.order(); ++m) {
    h = (h ^ t.index(m, n)) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  return h;
}

bool StreamingTensor::same_coord(offset_t a, const CooTensor& batch,
                                 offset_t b) const {
  for (std::size_t m = 0; m < coo_.order(); ++m) {
    if (coo_.index(m, a) != batch.index(m, b)) {
      return false;
    }
  }
  return true;
}

std::size_t StreamingTensor::find_slot(const CooTensor& t, offset_t n) const {
  const std::size_t mask = coord_index_.size() - 1;
  std::size_t slot = hash_coord(t, n) & mask;
  while (coord_index_[slot] != kEmptySlot &&
         !same_coord(coord_index_[slot], t, n)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void StreamingTensor::rebuild_index(std::size_t slots) {
  coord_index_.assign(slots, kEmptySlot);
  const std::size_t mask = slots - 1;
  // Stored coordinates are distinct, so no compare is needed.
  for (offset_t n = 0; n < coo_.nnz(); ++n) {
    std::size_t slot = hash_coord(coo_, n) & mask;
    while (coord_index_[slot] != kEmptySlot) {
      slot = (slot + 1) & mask;
    }
    coord_index_[slot] = n;
  }
}

bool StreamingTensor::dead(offset_t n) const {
  return opts_.window > 0 &&
         coo_.index(opts_.time_mode, n) < evict_cutoff_;
}

void StreamingTensor::advance_watermark(index_t w) {
  watermark_ = std::max(watermark_, w);
  if (opts_.window > 0 && watermark_ >= opts_.window) {
    const index_t cutoff = watermark_ - opts_.window + 1;
    if (cutoff > evict_cutoff_) {
      offset_t newly_dead = 0;
      const std::size_t hi =
          std::min<std::size_t>(cutoff, live_per_tick_.size());
      for (std::size_t t = evict_cutoff_; t < hi; ++t) {
        newly_dead += live_per_tick_[t];
        live_per_tick_[t] = 0;
      }
      evict_cutoff_ = cutoff;
      if (newly_dead > 0) {
        dead_ += newly_dead;
        structural_dirty_ = true;
        stats_.evicted += newly_dead;
        IngestMetrics::get().evictions.add(static_cast<double>(newly_dead));
      }
    }
  }
}

std::uint64_t StreamingTensor::state_digest() const {
  // Per-entry FNV-1a hashes combined by wrapping addition: commutative, so
  // storage order (which recovery legitimately permutes) cannot matter.
  std::uint64_t digest = 0;
  for (offset_t n = 0; n < coo_.nnz(); ++n) {
    if (dead(n)) {
      continue;
    }
    std::uint64_t h = 1469598103934665603ULL;
    const auto fold = [&h](const void* data, std::size_t len) {
      const auto* p = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
      }
    };
    for (std::size_t m = 0; m < order(); ++m) {
      const index_t idx = coo_.index(m, n);
      fold(&idx, sizeof(idx));
    }
    const real_t v = coo_.value(n);
    fold(&v, sizeof(v));
    digest += h;
  }
  return digest;
}

offset_t StreamingTensor::apply(const CooTensor& batch) {
  AOADMM_CHECK_MSG(batch.order() == order(),
                   "batch order does not match the streaming tensor");
  // Durability before mutation: the record must be on the log before any
  // state changes, or a crash mid-apply replays nothing.
  if (wal_ != nullptr) {
    wal_->append(batch);
  }
  const IngestMetrics& metrics = IngestMetrics::get();
  Timer timer;
  timer.start();

  const std::size_t tm = opts_.time_mode;

  // Advance the watermark over the whole batch first so eviction and
  // late-arrival drops see one consistent cutoff for the batch.
  index_t batch_max = 0;
  for (offset_t n = 0; n < batch.nnz(); ++n) {
    batch_max = std::max(batch_max, batch.index(tm, n));
  }
  if (batch.nnz() > 0) {
    advance_watermark(batch_max);
  }

  const StreamingStats before = stats_;
  offset_t appended = 0;
  std::vector<index_t> coord(order());
  for (offset_t n = 0; n < batch.nnz(); ++n) {
    const index_t t = batch.index(tm, n);
    if (opts_.window > 0 && t < evict_cutoff_) {
      ++stats_.late_dropped;
      continue;
    }

    if (2 * (coo_.nnz() + 1) > coord_index_.size()) {
      rebuild_index(index_slots_for(coo_.nnz() + 1));
    }
    const std::size_t slot = find_slot(batch, n);
    const offset_t pos = coord_index_[slot];

    if (pos != kEmptySlot) {
      // Overwrite-duplicate: a value-only change the compiled CSF can
      // absorb without a rebuild.
      if (coo_.value(pos) != batch.value(n)) {
        coo_.value(pos) = batch.value(n);
        if (!is_dirty_[pos]) {
          is_dirty_[pos] = 1;
          value_dirty_.push_back(pos);
        }
        ++stats_.overwritten;
      }
      continue;
    }

    // Append: grow every mode to fit (overflow-checked) and store.
    for (std::size_t m = 0; m < order(); ++m) {
      coord[m] = batch.index(m, n);
      coo_.grow_to_fit(m, coord[m]);
    }
    coo_.add(coord, batch.value(n));
    coord_index_[slot] = coo_.nnz() - 1;
    is_dirty_.push_back(0);
    if (live_per_tick_.size() <= t) {
      live_per_tick_.resize(static_cast<std::size_t>(t) + 1, 0);
    }
    ++live_per_tick_[t];
    structural_dirty_ = true;
    ++appended;
    ++stats_.appended;
  }
  metrics.appends.add(static_cast<double>(appended));
  metrics.overwrites.add(
      static_cast<double>(stats_.overwritten - before.overwritten));
  metrics.late_drops.add(
      static_cast<double>(stats_.late_dropped - before.late_dropped));

  // Bound the structural garbage: past the churn threshold the deferred
  // eviction sweep stops being an amortization and starts being bloat.
  if (dead_ > 0 && nnz() > 0 &&
      static_cast<double>(dead_) >
          opts_.churn_threshold * static_cast<double>(nnz())) {
    compact();
  }

  ++stats_.batches;
  timer.stop();
  metrics.batches.add(1);
  metrics.ingest_nnz.add(static_cast<double>(batch.nnz()));
  metrics.ingest_seconds.add(timer.seconds());
  metrics.nnz.set(static_cast<double>(nnz()));
  metrics.watermark.set(static_cast<double>(watermark_));
  if (timer.seconds() > 0) {
    metrics.ingest_nnz_per_sec.set(static_cast<double>(batch.nnz()) /
                                   timer.seconds());
  }

  // Telemetry plane: mint this batch's trace id, record the batch size in
  // the trailing window, and journal the ingest.
  last_batch_id_ = obs::next_batch_id();
  static obs::WindowedHistogram& batch_window =
      obs::windowed_histogram(obs::kWindowIngestBatchSize);
  batch_window.observe(static_cast<double>(batch.nnz()));
  obs::TraceContext ctx = obs::current_trace();
  ctx.batch_id = last_batch_id_;
  obs::journal_event(obs::EventKind::kBatchIngested, ctx,
                     obs::EventJournal::Fields{}
                         .num("nnz", static_cast<std::uint64_t>(batch.nnz()))
                         .num("appended", static_cast<std::uint64_t>(appended))
                         .num("watermark",
                              static_cast<std::uint64_t>(watermark_))
                         .num("live_nnz", static_cast<std::uint64_t>(nnz())));

  // A due WAL checkpoint rides on the ingest thread: compact so the
  // snapshot holds exactly the live entries, then truncate the log. A
  // failed checkpoint degrades (the log just stays longer) — it must not
  // take ingest down with it.
  if (wal_ != nullptr && wal_->checkpoint_due()) {
    try {
      compact();
      wal_->write_checkpoint(coo_, watermark_);
    } catch (const Error& e) {
      AOADMM_LOG_WARN << "wal: checkpoint failed, log keeps growing: "
                      << e.what();
    }
  }
  return appended;
}

void StreamingTensor::compact() {
  if (dead_ == 0) {
    return;
  }
  // Survivors keep their arrival order: CsfSet sums norm_sq over coo_ in
  // storage order, so a reordering compaction would move its last bits.
  coo_.retain_if([this](offset_t n) { return !dead(n); });
  dead_ = 0;

  // Positions moved: rebuild the index for the live count and drop stale
  // dirty tracking (the pending structural rebuild recompiles from coo_).
  rebuild_index(index_slots_for(coo_.nnz()));
  value_dirty_.clear();
  is_dirty_.assign(coo_.nnz(), 0);
  structural_dirty_ = true;
  ++stats_.compactions;
}

const CooTensor& StreamingTensor::coo() {
  compact();
  return coo_;
}

const CsfSet& StreamingTensor::csf() {
  AOADMM_CHECK_MSG(nnz() > 0, "cannot compile an empty streaming tensor");
  const IngestMetrics& metrics = IngestMetrics::get();

  if (compiled_ != nullptr && !structural_dirty_ && dead_ == 0 &&
      value_dirty_.empty()) {
    ++stats_.cached_compiles;
    return *compiled_;
  }

  Timer timer;
  timer.start();
  if (value_patch_ready()) {
    // Value-only churn: patch the compiled leaves through the build-time
    // leaf maps. No tree is rebuilt.
    compiled_->patch_values(coo_, value_dirty_);
    for (const offset_t p : value_dirty_) {
      is_dirty_[p] = 0;
    }
    value_dirty_.clear();
    ++stats_.value_patches;
    metrics.value_patches.add(1);
  } else {
    compact();
    compiled_ = std::make_unique<CsfSet>(coo_, opts_.strategy, /*tile_rows=*/0,
                                         /*track_value_patching=*/true);
    structural_dirty_ = false;
    for (const offset_t p : value_dirty_) {
      is_dirty_[p] = 0;
    }
    value_dirty_.clear();
    ++stats_.full_rebuilds;
    metrics.full_rebuilds.add(1);
  }
  timer.stop();
  stats_.last_compile_seconds = timer.seconds();
  metrics.compile_seconds.add(timer.seconds());
  return *compiled_;
}

}  // namespace aoadmm
