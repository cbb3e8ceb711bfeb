// Streaming-subsystem benchmarks on google-benchmark: ingest throughput
// (batch apply into a StreamingTensor), windowed ingest with compaction
// against the CSF rebuild it feeds, the two CSF refresh paths (full
// rebuild vs value-only leaf patch), and serve-side query latency — alone
// and with a publisher thread swapping snapshots underneath the reader.
//
// Registered in the bench-regression CI gate against
// BENCH_stream_baseline.json (medians, ratio-based).
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

#include "obs/telemetry/exposition.hpp"
#include "obs/telemetry/window_quantiles.hpp"
#include "stream/model_server.hpp"
#include "stream/replay.hpp"
#include "stream/streaming_tensor.hpp"
#include "stream/wal.hpp"
#include "tensor/synthetic.hpp"
#include "util/rng.hpp"

namespace aoadmm {
namespace {

constexpr std::size_t kBatches = 16;

SyntheticSpec stream_tensor_spec() {
  SyntheticSpec spec;
  spec.dims = {2000, 1500, 64};  // mode 2 = time
  spec.nnz = 200000;
  spec.true_rank = 4;
  spec.zipf_alpha = {1.0};
  spec.seed = 7;
  return spec;
}

const CooTensor& stream_events() {
  bench::install_metrics_sidecar();
  static const CooTensor x = make_synthetic(stream_tensor_spec());
  return x;
}

const std::vector<CooTensor>& stream_batches() {
  static const std::vector<CooTensor> batches =
      make_replay_batches(stream_events(), 2, kBatches);
  return batches;
}

KruskalTensor serving_model(rank_t rank) {
  Rng rng(11);
  std::vector<Matrix> factors;
  for (const index_t d : stream_events().dims()) {
    factors.push_back(Matrix::random_uniform(d, rank, rng, 0.1, 1.0));
  }
  return KruskalTensor(std::move(factors));
}

/// Ingest: replay every batch into a fresh StreamingTensor (append +
/// overwrite + coordinate-index maintenance, no window, no solve).
void BM_StreamIngest(benchmark::State& state) {
  const auto& batches = stream_batches();
  for (auto _ : state) {
    StreamingTensor tensor(std::vector<index_t>(3, 1), StreamingOptions{});
    offset_t appended = 0;
    for (const CooTensor& b : batches) {
      appended += tensor.apply(b);
    }
    benchmark::DoNotOptimize(appended);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream_events().nnz()));
}
BENCHMARK(BM_StreamIngest)->Unit(benchmark::kMillisecond);

/// WAL-protected ingest: the same replay with every batch appended to a
/// write-ahead log segment first. Arg(0) = WalFsync::kNever (the default;
/// docs/fault_tolerance.md states its cost against BM_StreamIngest),
/// Arg(1) = kEveryBatch (the machine-crash-safe mode, expected to be
/// dominated by fsync latency).
void BM_StreamIngestWal(benchmark::State& state) {
  const auto& batches = stream_batches();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "bench_wal" /
       ("ingest" + std::to_string(state.range(0))))
          .string();
  WalOptions wopts;
  wopts.fsync = state.range(0) == 0 ? WalFsync::kNever : WalFsync::kEveryBatch;
  for (auto _ : state) {
    StreamingTensor tensor(std::vector<index_t>(3, 1), StreamingOptions{});
    WriteAheadLog wal(prefix, wopts);
    tensor.attach_wal(&wal);
    offset_t appended = 0;
    for (const CooTensor& b : batches) {
      appended += tensor.apply(b);
    }
    benchmark::DoNotOptimize(appended);
    state.PauseTiming();
    std::filesystem::remove_all(
        std::filesystem::path(prefix).parent_path());  // fresh log per iter
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream_events().nnz()));
}
BENCHMARK(BM_StreamIngestWal)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Windowed ingest: replay the events through a 32-tick window, so from the
/// ninth batch on every batch evicts as many ticks as it adds. Arg(0)
/// times apply() + coo() (ingest and compaction) of every batch, Arg(1)
/// the csf() rebuild that follows it; timing is paused everywhere else.
/// CI requires /0 to stay below /1 in the same run.
void BM_StreamWindowSlide(benchmark::State& state) {
  const bool time_rebuild = state.range(0) != 0;
  const auto& batches = stream_batches();
  StreamingOptions opts;
  opts.window = 32;
  for (auto _ : state) {
    state.PauseTiming();
    StreamingTensor tensor(std::vector<index_t>(3, 1), opts);
    for (const CooTensor& b : batches) {
      if (!time_rebuild) {
        state.ResumeTiming();
      }
      tensor.apply(b);
      benchmark::DoNotOptimize(tensor.coo().nnz());
      if (time_rebuild) {
        state.ResumeTiming();
      } else {
        state.PauseTiming();
      }
      benchmark::DoNotOptimize(tensor.csf().nnz());
      if (time_rebuild) {
        state.PauseTiming();
      }
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_StreamWindowSlide)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Structural refresh: each iteration appends one brand-new entry (a fresh
/// time tick, so the coordinate cannot collide) and times the full CSF
/// rebuild that structural churn forces.
void BM_StreamCsfRebuild(benchmark::State& state) {
  const auto& batches = stream_batches();
  StreamingTensor tensor(std::vector<index_t>(3, 1), StreamingOptions{});
  for (const CooTensor& b : batches) {
    tensor.apply(b);
  }
  tensor.csf();
  index_t next_tick = static_cast<index_t>(tensor.dims()[2]);
  for (auto _ : state) {
    state.PauseTiming();
    CooTensor one(tensor.dims());
    const index_t coord[3] = {0, 0, next_tick++};
    one.grow_to_fit(2, coord[2]);
    one.add({coord, 3}, 1.0);
    tensor.apply(one);
    state.ResumeTiming();
    const CsfSet& csf = tensor.csf();
    benchmark::DoNotOptimize(csf.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream_events().nnz()));
}
BENCHMARK(BM_StreamCsfRebuild)->Unit(benchmark::kMillisecond);

/// Value-only refresh: overwrite one batch's values, then csf() takes the
/// leaf-patch path (no tree rebuilt).
void BM_StreamCsfValuePatch(benchmark::State& state) {
  const auto& batches = stream_batches();
  StreamingTensor tensor(std::vector<index_t>(3, 1), StreamingOptions{});
  for (const CooTensor& b : batches) {
    tensor.apply(b);
  }
  tensor.csf();  // compile once; batches re-applied below are overwrites
  CooTensor churn = batches.front();
  for (auto _ : state) {
    state.PauseTiming();
    for (offset_t n = 0; n < churn.nnz(); ++n) {
      churn.value(n) += 0.5;
    }
    tensor.apply(churn);
    state.ResumeTiming();
    const CsfSet& csf = tensor.csf();
    benchmark::DoNotOptimize(csf.norm_sq());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(churn.nnz()));
}
BENCHMARK(BM_StreamCsfValuePatch)->Unit(benchmark::kMillisecond);

/// Serve: single-entry prediction against a published snapshot.
void BM_StreamQueryPredict(benchmark::State& state) {
  const auto rank = static_cast<rank_t>(state.range(0));
  ModelServer server;
  server.publish(serving_model(rank));
  ModelServer::Reader reader = server.reader();

  Rng rng(23);
  const auto& dims = stream_events().dims();
  std::vector<std::array<index_t, 3>> coords(1024);
  for (auto& c : coords) {
    for (std::size_t m = 0; m < 3; ++m) {
      c[m] = static_cast<index_t>(rng.uniform_index(dims[m]));
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& c = coords[i++ & 1023];
    benchmark::DoNotOptimize(reader.predict({c.data(), 3}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamQueryPredict)->Arg(16)->Arg(64);

/// Serve: top-16 recommendation over the full target mode.
void BM_StreamQueryTopK(benchmark::State& state) {
  const auto rank = static_cast<rank_t>(state.range(0));
  ModelServer server;
  server.publish(serving_model(rank));
  ModelServer::Reader reader = server.reader();

  Rng rng(23);
  const auto& dims = stream_events().dims();
  std::size_t i = 0;
  std::vector<index_t> rows(256);
  for (auto& r : rows) {
    r = static_cast<index_t>(rng.uniform_index(dims[0]));
  }
  for (auto _ : state) {
    const auto best = reader.top_k(0, rows[i++ & 255], 1, 16);
    benchmark::DoNotOptimize(best.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamQueryTopK)->Arg(16)->Unit(benchmark::kMicrosecond);

/// Serve under churn: a publisher thread swaps snapshots continuously while
/// this thread queries — the latency cost of epoch re-acquisition.
void BM_StreamQueryUnderRefresh(benchmark::State& state) {
  const rank_t rank = 16;
  ModelServer server;
  server.publish(serving_model(rank));

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    KruskalTensor a = serving_model(rank);
    KruskalTensor b = serving_model(rank);
    bool flip = false;
    while (!stop.load(std::memory_order_relaxed)) {
      server.publish(flip ? a : b);
      flip = !flip;
      std::this_thread::yield();
    }
  });

  ModelServer::Reader reader = server.reader();
  Rng rng(23);
  const auto& dims = stream_events().dims();
  std::vector<std::array<index_t, 3>> coords(1024);
  for (auto& c : coords) {
    for (std::size_t m = 0; m < 3; ++m) {
      c[m] = static_cast<index_t>(rng.uniform_index(dims[m]));
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& c = coords[i++ & 1023];
    benchmark::DoNotOptimize(reader.predict({c.data(), 3}));
  }
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamQueryUnderRefresh);

/// Telemetry overhead: the same predict loop with the windowed-quantile
/// recording gated off (arg 0) and on (arg 1). The acceptance bar for the
/// telemetry plane is <5% between the two.
void BM_StreamQueryTelemetry(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::set_telemetry_enabled(enabled);
  ModelServer server;
  server.publish(serving_model(16));
  ModelServer::Reader reader = server.reader();

  Rng rng(23);
  const auto& dims = stream_events().dims();
  std::vector<std::array<index_t, 3>> coords(1024);
  for (auto& c : coords) {
    for (std::size_t m = 0; m < 3; ++m) {
      c[m] = static_cast<index_t>(rng.uniform_index(dims[m]));
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& c = coords[i++ & 1023];
    benchmark::DoNotOptimize(reader.predict({c.data(), 3}));
  }
  obs::set_telemetry_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamQueryTelemetry)->Arg(0)->Arg(1);

/// Top-k with telemetry off/on — the longer query, same <5% bar.
void BM_StreamTopKTelemetry(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::set_telemetry_enabled(enabled);
  ModelServer server;
  server.publish(serving_model(16));
  ModelServer::Reader reader = server.reader();

  Rng rng(23);
  const auto& dims = stream_events().dims();
  std::size_t i = 0;
  std::vector<index_t> rows(256);
  for (auto& r : rows) {
    r = static_cast<index_t>(rng.uniform_index(dims[0]));
  }
  for (auto _ : state) {
    const auto best = reader.top_k(0, rows[i++ & 255], 1, 16);
    benchmark::DoNotOptimize(best.data());
  }
  obs::set_telemetry_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamTopKTelemetry)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Scrape under load: a background thread hammers queries while this
/// thread renders the full Prometheus exposition — the cost a scraper
/// imposes, and proof that rendering never blocks the hot path.
void BM_StreamScrapeUnderLoad(benchmark::State& state) {
  ModelServer server;
  server.publish(serving_model(16));

  std::atomic<bool> stop{false};
  std::thread querier([&] {
    ModelServer::Reader reader = server.reader();
    Rng rng(31);
    const auto& dims = stream_events().dims();
    std::array<index_t, 3> c{};
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t m = 0; m < 3; ++m) {
        c[m] = static_cast<index_t>(rng.uniform_index(dims[m]));
      }
      benchmark::DoNotOptimize(reader.predict({c.data(), 3}));
    }
  });

  for (auto _ : state) {
    std::ostringstream out;
    obs::write_prometheus(out);
    benchmark::DoNotOptimize(out.str().size());
  }
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamScrapeUnderLoad)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aoadmm
