#include "stream/streaming_tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/metrics.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

CooTensor one_entry(const std::vector<index_t>& dims, index_t i, index_t j,
                    index_t t, real_t v) {
  CooTensor b(dims);
  const index_t coord[3] = {i, j, t};
  b.add({coord, 3}, v);
  return b;
}

/// A batch builder whose dims track the largest coordinate added — apply()
/// ignores batch dims, so batches only need to be self-consistent.
CooTensor batch_of(std::vector<std::array<index_t, 3>> coords,
                   std::vector<real_t> vals) {
  std::vector<index_t> dims(3, 1);
  for (const auto& c : coords) {
    for (std::size_t m = 0; m < 3; ++m) {
      dims[m] = std::max<index_t>(dims[m], c[m] + 1);
    }
  }
  CooTensor b(dims);
  for (std::size_t n = 0; n < coords.size(); ++n) {
    b.add({coords[n].data(), 3}, vals[n]);
  }
  return b;
}

TEST(StreamTensor, AppendGrowsDimsAndCounts) {
  StreamingTensor st({1, 1, 1}, StreamingOptions{});
  const offset_t appended =
      st.apply(batch_of({{4, 2, 0}, {1, 7, 1}}, {1.0, 2.0}));
  EXPECT_EQ(appended, 2u);
  EXPECT_EQ(st.nnz(), 2u);
  EXPECT_EQ(st.dims(), (std::vector<index_t>{5, 8, 2}));
  EXPECT_EQ(st.watermark(), 1u);
  EXPECT_EQ(st.stats().appended, 2u);
  EXPECT_EQ(st.stats().batches, 1u);
}

TEST(StreamTensor, DuplicateCoordinateOverwritesInPlace) {
  StreamingTensor st({1, 1, 1}, StreamingOptions{});
  st.apply(one_entry({3, 3, 3}, 1, 2, 0, 1.0));
  const offset_t appended = st.apply(one_entry({3, 3, 3}, 1, 2, 0, 9.0));
  EXPECT_EQ(appended, 0u);
  EXPECT_EQ(st.nnz(), 1u);
  EXPECT_EQ(st.stats().overwritten, 1u);
  EXPECT_DOUBLE_EQ(st.coo().value(0), 9.0);
}

TEST(StreamTensor, SlidingWindowEvictsAndDropsLateArrivals) {
  StreamingOptions opts;
  opts.window = 2;
  StreamingTensor st({1, 1, 1}, opts);
  st.apply(batch_of({{0, 0, 0}, {1, 1, 1}}, {1.0, 2.0}));
  EXPECT_EQ(st.nnz(), 2u);

  // Watermark 3 -> window covers ticks {2, 3}; ticks 0 and 1 are evicted.
  st.apply(one_entry({2, 2, 4}, 0, 1, 3, 3.0));
  EXPECT_EQ(st.stats().evicted, 2u);
  EXPECT_EQ(st.nnz(), 1u);

  // An arrival behind the window is dropped, not stored.
  const offset_t appended = st.apply(one_entry({2, 2, 4}, 1, 0, 0, 4.0));
  EXPECT_EQ(appended, 0u);
  EXPECT_EQ(st.stats().late_dropped, 1u);
  EXPECT_EQ(st.nnz(), 1u);

  // The compacted COO holds exactly the in-window entry.
  const CooTensor& coo = st.coo();
  ASSERT_EQ(coo.nnz(), 1u);
  EXPECT_EQ(coo.index(2, 0), 3u);
  EXPECT_DOUBLE_EQ(coo.value(0), 3.0);
}

TEST(StreamTensor, CsfIsCachedUntilChurn) {
  StreamingTensor st({1, 1, 1}, StreamingOptions{});
  st.apply(batch_of({{0, 0, 0}, {1, 1, 1}, {2, 0, 1}}, {1.0, 2.0, 3.0}));
  st.csf();
  EXPECT_EQ(st.stats().full_rebuilds, 1u);
  st.csf();
  st.csf();
  EXPECT_EQ(st.stats().cached_compiles, 2u);
  EXPECT_EQ(st.stats().full_rebuilds, 1u);

  // Structural churn (an append) forces a rebuild.
  st.apply(one_entry({3, 2, 2}, 0, 1, 1, 4.0));
  st.csf();
  EXPECT_EQ(st.stats().full_rebuilds, 2u);
}

TEST(StreamTensor, ValueOnlyChurnTakesPatchPathAndMatchesFreshCompile) {
  const CooTensor events = testing::random_coo({12, 10, 8}, 150, 21);
  StreamingTensor st({1, 1, 1}, StreamingOptions{});
  st.apply(events);
  st.csf();
  ASSERT_TRUE(st.value_patch_ready());

  // Overwrite a subset of the values (same coordinates, new payloads).
  CooTensor churn(events.dims());
  std::vector<index_t> coord(3);
  for (offset_t n = 0; n < events.nnz(); n += 3) {
    for (std::size_t m = 0; m < 3; ++m) {
      coord[m] = events.index(m, n);
    }
    churn.add(coord, events.value(n) * 2 + 1);
  }
  st.apply(churn);
  EXPECT_EQ(st.stats().overwritten, churn.nnz());

  const CsfSet& patched = st.csf();
  EXPECT_EQ(st.stats().value_patches, 1u);
  EXPECT_EQ(st.stats().full_rebuilds, 1u);

  // The patched compilation must be leaf-for-leaf identical to compiling
  // the updated COO from scratch.
  const CsfSet fresh(st.coo(), CsfStrategy::kAllMode);
  ASSERT_EQ(patched.nnz(), fresh.nnz());
  EXPECT_DOUBLE_EQ(patched.norm_sq(), fresh.norm_sq());
  for (std::size_t m = 0; m < 3; ++m) {
    const auto pv = patched.for_mode(m).vals();
    const auto fv = fresh.for_mode(m).vals();
    ASSERT_EQ(pv.size(), fv.size());
    for (std::size_t i = 0; i < pv.size(); ++i) {
      ASSERT_DOUBLE_EQ(pv[i], fv[i]) << "mode " << m << " leaf " << i;
    }
  }
}

TEST(StreamTensor, EagerCompactionPastChurnThreshold) {
  StreamingOptions opts;
  opts.window = 1;             // every new tick evicts everything older
  opts.churn_threshold = 0.5;  // compact when dead > half the live entries
  StreamingTensor st({1, 1, 1}, opts);
  st.apply(batch_of({{0, 0, 0}, {1, 1, 0}, {2, 2, 0}}, {1.0, 2.0, 3.0}));
  st.apply(one_entry({3, 3, 2}, 0, 1, 1, 4.0));  // 3 dead vs 1 live
  EXPECT_GE(st.stats().compactions, 1u);
  EXPECT_EQ(st.nnz(), 1u);
  EXPECT_EQ(st.stats().evicted, 3u);
}

TEST(StreamTensor, IngestMatchesReferenceAcrossCompactions) {
  // A std::map model of apply(): live coordinate -> value and arrival
  // number, plus the counters. Batches re-hit stored coordinates within
  // and across batches, some arrive behind the window, and the window
  // slides one tick per batch, so positions move under both eager and
  // csf()-time compaction while the index grows past its first sizes.
  // The process-wide stream/* counters must move by the same amounts.
  using Coord = std::array<index_t, 3>;
  struct Entry {
    real_t value;
    std::uint64_t arrival;
  };
  StreamingOptions opts;
  opts.window = 8;
  opts.churn_threshold = 0.25;
  StreamingTensor st({1, 1, 1}, opts);

  std::map<Coord, Entry> live;
  StreamingStats want;
  std::uint64_t arrivals = 0;
  index_t watermark = 0;
  index_t cutoff = 0;
  std::vector<Coord> seen;  // every coordinate ever sent, for re-hits
  std::uint64_t eager_compactions = 0;
  std::uint64_t csf_compactions = 0;
  offset_t max_live = 0;
  Rng rng(2026);
  const auto& reg = obs::MetricsRegistry::global();
  const double appends0 = reg.counter_value("stream/appends");
  const double overwrites0 = reg.counter_value("stream/overwrites");
  const double late_drops0 = reg.counter_value("stream/late_drops");
  const double evictions0 = reg.counter_value("stream/evictions");

  for (index_t b = 0; b < 40; ++b) {
    std::vector<Coord> coords;
    std::vector<real_t> vals;
    for (int k = 0; k < 250; ++k) {
      Coord c{};
      const std::uint64_t pick = rng.uniform_index(10);
      if (pick < 3 && !seen.empty()) {
        c = seen[rng.uniform_index(seen.size())];  // across batches
      } else if (pick < 4 && !coords.empty()) {
        c = coords[rng.uniform_index(coords.size())];  // within the batch
      } else {
        c = {static_cast<index_t>(rng.uniform_index(60)),
             static_cast<index_t>(rng.uniform_index(50)),
             b + static_cast<index_t>(rng.uniform_index(2))};
      }
      const auto it = live.find(c);
      const bool same_value = it != live.end() && rng.uniform_index(4) == 0;
      coords.push_back(c);
      vals.push_back(same_value ? it->second.value : rng.uniform(-1, 1));
    }
    for (const Coord& c : coords) {
      seen.push_back(c);
    }

    // Reference: watermark and eviction first, then each entry in order.
    for (const Coord& c : coords) {
      watermark = std::max(watermark, c[2]);
    }
    if (watermark >= opts.window) {
      cutoff = std::max<index_t>(cutoff, watermark - opts.window + 1);
    }
    for (auto it = live.begin(); it != live.end();) {
      if (it->first[2] < cutoff) {
        ++want.evicted;
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    for (std::size_t n = 0; n < coords.size(); ++n) {
      const Coord& c = coords[n];
      if (c[2] < cutoff) {
        ++want.late_dropped;
        continue;
      }
      const auto [it, inserted] = live.try_emplace(c, Entry{vals[n], arrivals});
      if (inserted) {
        ++arrivals;
        ++want.appended;
      } else if (it->second.value != vals[n]) {
        it->second.value = vals[n];
        ++want.overwritten;
      }
    }

    const std::uint64_t compactions = st.stats().compactions;
    st.apply(batch_of(coords, vals));
    eager_compactions += st.stats().compactions - compactions;
    max_live = std::max(max_live, st.nnz());

    ASSERT_EQ(st.nnz(), live.size()) << "batch " << b;
    ASSERT_EQ(st.stats().appended, want.appended) << "batch " << b;
    ASSERT_EQ(st.stats().overwritten, want.overwritten) << "batch " << b;
    ASSERT_EQ(st.stats().late_dropped, want.late_dropped) << "batch " << b;
    ASSERT_EQ(st.stats().evicted, want.evicted) << "batch " << b;

    if (b % 3 == 1) {
      const std::uint64_t before = st.stats().compactions;
      EXPECT_EQ(st.csf().nnz(), live.size()) << "batch " << b;
      csf_compactions += st.stats().compactions - before;
    }
    if (b % 4 == 3) {
      // Survivors in arrival order, with their latest values.
      std::vector<std::pair<std::uint64_t, Coord>> order;
      for (const auto& [c, e] : live) {
        order.emplace_back(e.arrival, c);
      }
      std::sort(order.begin(), order.end());
      const CooTensor& coo = st.coo();
      ASSERT_EQ(coo.nnz(), order.size()) << "batch " << b;
      for (offset_t n = 0; n < coo.nnz(); ++n) {
        const Coord& c = order[n].second;
        for (std::size_t m = 0; m < 3; ++m) {
          ASSERT_EQ(coo.index(m, n), c[m]) << "batch " << b << " entry " << n;
        }
        ASSERT_EQ(coo.value(n), live.at(c).value)
            << "batch " << b << " entry " << n;
      }
    }
  }
  EXPECT_EQ(reg.counter_value("stream/appends") - appends0,
            static_cast<double>(want.appended));
  EXPECT_EQ(reg.counter_value("stream/overwrites") - overwrites0,
            static_cast<double>(want.overwritten));
  EXPECT_EQ(reg.counter_value("stream/late_drops") - late_drops0,
            static_cast<double>(want.late_dropped));
  EXPECT_EQ(reg.counter_value("stream/evictions") - evictions0,
            static_cast<double>(want.evicted));
  // The schedule above must really exercise what this test is about.
  EXPECT_GE(eager_compactions, 3u);
  EXPECT_GE(csf_compactions, 3u);
  EXPECT_GE(want.late_dropped, 1u);
  EXPECT_GE(want.overwritten, 100u);
  EXPECT_GE(max_live, 1000u);  // the index grew from 16 slots to >= 2048
}

TEST(StreamTensor, RejectsBadOptions) {
  StreamingOptions bad_mode;
  bad_mode.time_mode = 5;
  EXPECT_THROW(StreamingTensor({2, 2, 2}, bad_mode), InvalidArgument);
  StreamingOptions bad_churn;
  bad_churn.churn_threshold = 0;
  EXPECT_THROW(StreamingTensor({2, 2, 2}, bad_churn), InvalidArgument);
  EXPECT_THROW(StreamingTensor({4}, StreamingOptions{}), InvalidArgument);
}

TEST(StreamTensor, EmptyCompileRejected) {
  StreamingTensor st({1, 1, 1}, StreamingOptions{});
  EXPECT_THROW(st.csf(), InvalidArgument);
}

}  // namespace
}  // namespace aoadmm
