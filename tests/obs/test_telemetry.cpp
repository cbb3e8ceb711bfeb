// Telemetry plane: windowed quantiles (deterministic via explicit
// timestamps), Prometheus/healthz exposition, the embedded HTTP endpoint
// over a real loopback socket, the rotating event journal, and the
// scrape-vs-writer non-blocking contract. Suite names all carry
// "Telemetry" so the TSan CI shard picks every one of them up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry/event_journal.hpp"
#include "obs/telemetry/exposition.hpp"
#include "obs/telemetry/trace_context.hpp"
#include "obs/telemetry/window_quantiles.hpp"
#include "testing/fault_injection.hpp"
#include "testing/json_check.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#define AOADMM_TEST_SOCKETS 1
#else
#define AOADMM_TEST_SOCKETS 0
#endif

namespace aoadmm::obs {
namespace {

constexpr std::int64_t kNs = 1000000000;  // 1 s in steady-clock ns

// ---------------------------------------------------------------------------
// WindowedHistogram — driven entirely through observe_at/snapshot_at, so
// every test is deterministic regardless of wall-clock behavior.
// ---------------------------------------------------------------------------

TEST(TelemetryWindow, QuantilesOverOneSlice) {
  // 16 s window -> 1 s slices. 90 fast + 10 slow observations in one slice.
  WindowedHistogram h(16.0);
  for (int i = 0; i < 90; ++i) {
    h.observe_at(0.5, kNs);
  }
  for (int i = 0; i < 10; ++i) {
    h.observe_at(8.0, kNs);
  }
  const HistogramSnapshot s = h.snapshot_at(kNs);
  EXPECT_EQ(s.count, 100u);
  const HistogramQuantiles q = histogram_quantiles(s);
  // p50 lives in the [0.5, 1) binade, p99 in [8, 16).
  EXPECT_GE(q.p50, 0.5);
  EXPECT_LT(q.p50, 1.0);
  EXPECT_GE(q.p99, 8.0);
  EXPECT_LE(q.p99, 16.0);
  EXPECT_LE(q.p50, q.p95);
  EXPECT_LE(q.p95, q.p99);
  EXPECT_LE(q.p99, q.p999);
}

TEST(TelemetryWindow, DerivedScalarsComeFromBuckets) {
  WindowedHistogram h(16.0);
  h.observe_at(1.0, kNs);  // lands in the [1, 2) binade
  const HistogramSnapshot s = h.snapshot_at(kNs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);           // binade lower bound
  EXPECT_DOUBLE_EQ(s.max, 2.0);           // binade upper bound
  EXPECT_DOUBLE_EQ(s.sum, 1.5);           // geometric midpoint
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);
}

TEST(TelemetryWindow, ObservationsExpireOutOfTheWindow) {
  WindowedHistogram h(16.0);
  h.observe_at(1.0, 0);          // tick 0
  h.observe_at(1.0, 10 * kNs);   // tick 10

  // At tick 10 both are inside the trailing 16-slice window.
  EXPECT_EQ(h.snapshot_at(10 * kNs).count, 2u);
  // At tick 20 the window is (4, 20]; tick 0 has fallen out.
  EXPECT_EQ(h.snapshot_at(20 * kNs).count, 1u);
  // At tick 40 everything has expired.
  EXPECT_EQ(h.snapshot_at(40 * kNs).count, 0u);
}

TEST(TelemetryWindow, SliceReuseZeroesTheOldTick) {
  WindowedHistogram h(16.0);
  for (int i = 0; i < 5; ++i) {
    h.observe_at(1.0, 0);  // tick 0, slice 0
  }
  // Tick 16 maps onto the same slice; the first write re-tags and zeroes.
  h.observe_at(1.0, 16 * kNs);
  const HistogramSnapshot s = h.snapshot_at(16 * kNs);
  EXPECT_EQ(s.count, 1u) << "stale tick-0 counts must not leak into tick 16";
}

TEST(TelemetryWindow, DisabledGateDropsObservations) {
  WindowedHistogram h(16.0);
  set_telemetry_enabled(false);
  h.observe_at(1.0, kNs);
  set_telemetry_enabled(true);
  EXPECT_EQ(h.snapshot_at(kNs).count, 0u);
  h.observe_at(1.0, kNs);
  EXPECT_EQ(h.snapshot_at(kNs).count, 1u);
}

TEST(TelemetryWindow, RegistryIsIdempotentPerName) {
  WindowedHistogram& a = windowed_histogram("tt/idempotent", 30.0);
  WindowedHistogram& b = windowed_histogram("tt/idempotent", 99.0);
  EXPECT_EQ(&a, &b);
  EXPECT_DOUBLE_EQ(b.window_seconds(), 30.0);  // first registration wins

  bool found = false;
  for (const auto& [name, hist] : windowed_list()) {
    if (name == "tt/idempotent") {
      found = true;
      EXPECT_EQ(hist, &a);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(TelemetryPrometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("stream/query_seconds"),
            "aoadmm_stream_query_seconds");
  EXPECT_EQ(prometheus_name("weird-name.v2"), "aoadmm_weird_name_v2");
  EXPECT_EQ(prometheus_name("x", "win_"), "win_x");
}

TEST(TelemetryPrometheus, ExposesAllMetricKinds) {
  auto& reg = MetricsRegistry::global();
  reg.counter("tt/prom_counter").add(3);
  reg.gauge("tt/prom_gauge").set(2.5);
  Histogram hist = reg.histogram("tt/prom_hist");
  hist.observe(0.25);
  hist.observe(4.0);
  windowed_histogram("tt/prom_window", 60.0).observe(0.125);

  std::ostringstream out;
  write_prometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE aoadmm_tt_prom_counter_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("aoadmm_tt_prom_counter_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aoadmm_tt_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("aoadmm_tt_prom_gauge 2.5"), std::string::npos);
  // Histogram family: cumulative buckets, +Inf terminator, sum/count, and
  // the shared interpolated quantile gauges.
  EXPECT_NE(text.find("# TYPE aoadmm_tt_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("aoadmm_tt_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("aoadmm_tt_prom_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("aoadmm_tt_prom_hist_p50 "), std::string::npos);
  EXPECT_NE(text.find("aoadmm_tt_prom_hist_p999 "), std::string::npos);
  // Windowed histogram as a summary with quantile labels.
  EXPECT_NE(text.find("# TYPE aoadmm_window_tt_prom_window summary"),
            std::string::npos);
  EXPECT_NE(text.find("aoadmm_window_tt_prom_window{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("aoadmm_window_tt_prom_window_count 1"),
            std::string::npos);
}

TEST(TelemetryPrometheus, BucketCountsAreCumulative) {
  auto& reg = MetricsRegistry::global();
  Histogram hist = reg.histogram("tt/prom_cum");
  hist.observe(0.5);
  hist.observe(0.5);
  hist.observe(8.0);

  std::ostringstream out;
  write_prometheus(out);
  const std::string text = out.str();

  // The le="1" bucket holds 2, the later le="16" bucket holds all 3.
  EXPECT_NE(text.find("aoadmm_tt_prom_cum_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("aoadmm_tt_prom_cum_bucket{le=\"16\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("aoadmm_tt_prom_cum_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// healthz
// ---------------------------------------------------------------------------

TEST(TelemetryHealthz, EmitsValidJsonWithAllSections) {
  std::ostringstream out;
  ExpositionOptions opts;
  write_healthz(out, opts);
  const std::string json = out.str();
  EXPECT_TRUE(testing::is_valid_json(json)) << json;
  for (const char* key :
       {"\"status\"", "\"model_staleness_seconds\"", "\"snapshot_epoch\"",
        "\"last_refresh\"", "\"recoveries\"", "\"window\"", "\"slo\"",
        "\"scrapes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(TelemetryHealthz, StalenessGateFlipsHealth) {
  auto& reg = MetricsRegistry::global();
  ExpositionOptions opts;
  opts.stale_after_seconds = 10.0;

  // Fresh model: healthy.
  reg.gauge("stream/snapshot_epoch").set(3);
  reg.gauge("stream/staleness_seconds").set(1.0);
  std::ostringstream fresh;
  EXPECT_TRUE(write_healthz(fresh, opts));
  EXPECT_NE(fresh.str().find("\"status\": \"ok\""), std::string::npos);

  // Stale model: unhealthy, distinct from the (still-200) degraded state.
  reg.gauge("stream/staleness_seconds").set(100.0);
  std::ostringstream stale;
  EXPECT_FALSE(write_healthz(stale, opts));
  EXPECT_NE(stale.str().find("\"status\": \"stale\""), std::string::npos);
  EXPECT_TRUE(testing::is_valid_json(stale.str()));

  // No model at all while a staleness bound is set: also unhealthy.
  reg.gauge("stream/snapshot_epoch").set(0);
  std::ostringstream none;
  EXPECT_FALSE(write_healthz(none, opts));

  // Without the bound, a missing model reports no_model but stays 200.
  opts.stale_after_seconds = 0;
  std::ostringstream lax;
  EXPECT_TRUE(write_healthz(lax, opts));
  EXPECT_NE(lax.str().find("\"status\": \"no_model\""), std::string::npos);
  reg.gauge("stream/staleness_seconds").set(0);
}

TEST(TelemetryHealthz, DegradedSignalsReportDegradedButStayHealthy) {
  auto& reg = MetricsRegistry::global();
  ExpositionOptions opts;
  opts.stale_after_seconds = 10.0;
  reg.gauge("stream/snapshot_epoch").set(3);
  reg.gauge("stream/staleness_seconds").set(1.0);

  // Breaker open: the server keeps serving the last snapshot, so healthz
  // stays 200 — but the status and reasons make the degradation visible.
  reg.gauge("robust/stream_breaker_open").set(1);
  std::ostringstream one;
  EXPECT_TRUE(write_healthz(one, opts));
  EXPECT_NE(one.str().find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(one.str().find("\"breaker_open\""), std::string::npos);
  EXPECT_TRUE(testing::is_valid_json(one.str())) << one.str();

  // Every firing signal is listed.
  reg.gauge("stream/wal_replaying").set(1);
  reg.gauge("stream/quarantine_pending").set(2);
  std::ostringstream all;
  EXPECT_TRUE(write_healthz(all, opts));
  for (const char* reason :
       {"\"breaker_open\"", "\"wal_replaying\"", "\"quarantine_pending\""}) {
    EXPECT_NE(all.str().find(reason), std::string::npos) << reason;
  }

  // Signals clear: back to plain ok, no degraded_reasons left.
  reg.gauge("robust/stream_breaker_open").set(0);
  reg.gauge("stream/wal_replaying").set(0);
  reg.gauge("stream/quarantine_pending").set(0);
  std::ostringstream clear;
  EXPECT_TRUE(write_healthz(clear, opts));
  EXPECT_NE(clear.str().find("\"status\": \"ok\""), std::string::npos);
  reg.gauge("stream/snapshot_epoch").set(0);
  reg.gauge("stream/staleness_seconds").set(0);
}

// ---------------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(TelemetryJournal, EveryLineIsValidJson) {
  const std::string path = ::testing::TempDir() + "tt_journal.jsonl";
  std::remove(path.c_str());
  EventJournal journal(path);

  TraceContext ctx;
  ctx.solve_id = 4;
  ctx.batch_id = 9;
  ctx.epoch = 4;
  journal.emit(EventKind::kRefreshStarted, ctx,
               EventJournal::Fields().num("nnz", std::uint64_t{123}));
  journal.emit(EventKind::kRefreshFinished, ctx,
               EventJournal::Fields()
                   .num("relative_error", 0.125)
                   .boolean("converged", true)
                   .str("note", "quote\" and \\ backslash")
                   .num("nan_field", std::nan(""))
                   .num("inf_field", HUGE_VAL));
  EXPECT_EQ(journal.events_written(), 2u);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(testing::is_valid_json(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"event\": \"refresh_started\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"solve_id\": 4"), std::string::npos);
  EXPECT_NE(lines[0].find("\"batch_id\": 9"), std::string::npos);
  EXPECT_NE(lines[1].find("\"converged\": true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"nan_field\": \"nan\""), std::string::npos);
}

TEST(TelemetryJournal, SurvivesInjectedWriteFailures) {
  const std::string path = ::testing::TempDir() + "tt_journal_faults.jsonl";
  std::remove(path.c_str());
  testing::disarm_faults();
  const double counter_before = MetricsRegistry::global().counter_value(
      "telemetry/journal_write_failures");

  EventJournal journal(path);
  journal.emit(EventKind::kBatchIngested, {});  // lands

  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kTelemetryWrite) = {1.0, 2};
  testing::arm_faults(cfg);
  journal.emit(EventKind::kBatchIngested, {});  // dropped
  journal.emit(EventKind::kBatchIngested, {});  // dropped
  journal.emit(EventKind::kBatchIngested, {});  // budget spent: lands
  testing::disarm_faults();

  EXPECT_EQ(journal.write_failures(), 2u);
  EXPECT_EQ(journal.events_written(), 2u);
  EXPECT_EQ(read_lines(path).size(), 2u);
  EXPECT_DOUBLE_EQ(MetricsRegistry::global().counter_value(
                       "telemetry/journal_write_failures"),
                   counter_before + 2);
}

TEST(TelemetryJournal, SequenceNumbersAreMonotone) {
  const std::string path = ::testing::TempDir() + "tt_journal_seq.jsonl";
  std::remove(path.c_str());
  EventJournal journal(path);
  for (int i = 0; i < 5; ++i) {
    journal.emit(EventKind::kBatchIngested, {});
  }
  std::uint64_t prev = 0;
  for (const std::string& line : read_lines(path)) {
    const std::size_t pos = line.find("\"seq\": ");
    ASSERT_NE(pos, std::string::npos);
    const std::uint64_t seq = std::stoull(line.substr(pos + 7));
    EXPECT_GT(seq, prev);
    prev = seq;
  }
}

TEST(TelemetryJournal, RotatesWhenFull) {
  const std::string path = ::testing::TempDir() + "tt_journal_rot.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".2").c_str());

  EventJournal::Options opts;
  opts.max_bytes = 512;
  opts.max_files = 2;
  EventJournal journal(path, opts);
  for (int i = 0; i < 40; ++i) {
    journal.emit(EventKind::kBatchIngested, {},
                 EventJournal::Fields().num("i", std::uint64_t(i)));
  }
  EXPECT_EQ(journal.events_written(), 40u);
  EXPECT_GT(journal.rotations(), 0u);

  // The rotated generation exists and both files hold only valid lines.
  std::vector<std::string> all = read_lines(path + ".1");
  ASSERT_FALSE(all.empty());
  const std::vector<std::string> active = read_lines(path);
  all.insert(all.end(), active.begin(), active.end());
  for (const std::string& line : all) {
    EXPECT_TRUE(testing::is_valid_json(line)) << line;
  }
}

TEST(TelemetryJournal, GlobalSinkIsOptional) {
  // With no sink installed, journal_event is a no-op (and must not crash).
  ASSERT_EQ(EventJournal::global(), nullptr);
  journal_event(EventKind::kRecovery, {});

  const std::string path = ::testing::TempDir() + "tt_journal_global.jsonl";
  std::remove(path.c_str());
  {
    EventJournal journal(path);
    EventJournal::install_global(&journal);
    journal_event(EventKind::kRecovery, {});
    EXPECT_EQ(journal.events_written(), 1u);
    // The destructor detaches the global pointer itself.
  }
  EXPECT_EQ(EventJournal::global(), nullptr);
  journal_event(EventKind::kRecovery, {});  // dropped, not a use-after-free
}

// ---------------------------------------------------------------------------
// Exporter quantiles (the shared helper behind JSON/CSV/Prometheus)
// ---------------------------------------------------------------------------

TEST(TelemetryExporters, QuantileSetAppearsInJsonAndCsv) {
  auto& reg = MetricsRegistry::global();
  Histogram hist = reg.histogram("tt/export_hist");
  for (int i = 0; i < 100; ++i) {
    hist.observe(0.001 * (1 + i % 7));
  }

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_TRUE(testing::is_valid_json(json.str()));
  for (const char* key : {"\"p50\"", "\"p95\"", "\"p99\"", "\"p999\""}) {
    EXPECT_NE(json.str().find(key), std::string::npos) << key;
  }

  std::ostringstream csv;
  reg.write_csv(csv);
  for (const char* field : {",p50,", ",p95,", ",p99,", ",p999,"}) {
    EXPECT_NE(csv.str().find(field), std::string::npos) << field;
  }
}

// ---------------------------------------------------------------------------
// HTTP endpoint over a real loopback socket
// ---------------------------------------------------------------------------

#if AOADMM_TEST_SOCKETS

/// A socket connected to 127.0.0.1:port, or -1.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1:port. Returns the full
/// response (status line + headers + body), empty on connection failure or
/// when no byte arrives for 10 s — ten times the server's own per-client
/// timeout, so a server that never answers fails a test instead of hanging
/// it.
std::string http_get(std::uint16_t port, const std::string& path,
                     const std::string& method = "GET") {
  const int fd = connect_loopback(port);
  if (fd < 0) {
    return "";
  }
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string req =
      method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(TelemetryServer, ServesMetricsHealthzAndErrors) {
  auto& reg = MetricsRegistry::global();
  reg.counter("tt/server_counter").add(1);
  reg.gauge("stream/snapshot_epoch").set(1);

  std::atomic<int> hook_calls{0};
  ExpositionOptions opts;
  opts.port = 0;  // ephemeral
  opts.pre_scrape = [&hook_calls] { ++hook_calls; };
  ExpositionServer server(opts);
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("aoadmm_tt_server_counter_total"),
            std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("application/json"), std::string::npos);
  EXPECT_TRUE(testing::is_valid_json(body_of(health))) << body_of(health);

  EXPECT_NE(http_get(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics", "POST").find("HTTP/1.1 405"),
            std::string::npos);

  // The request counter bumps after the response is flushed, so the last
  // client can return before it lands; wait briefly instead of racing it.
  for (int spin = 0; spin < 200 && server.requests() < 4u; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.requests(), 4u);
  EXPECT_GE(hook_calls.load(), 2);  // /metrics and /healthz ran the hook

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
  reg.gauge("stream/snapshot_epoch").set(0);
}

TEST(TelemetryServer, HealthzReturns503WhenStale) {
  auto& reg = MetricsRegistry::global();
  reg.gauge("stream/snapshot_epoch").set(2);
  reg.gauge("stream/staleness_seconds").set(500.0);

  ExpositionOptions opts;
  opts.stale_after_seconds = 1.0;
  ExpositionServer server(opts);
  server.start();
  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(health.find("\"status\": \"stale\""), std::string::npos);
  server.stop();
  reg.gauge("stream/snapshot_epoch").set(0);
  reg.gauge("stream/staleness_seconds").set(0);
}

TEST(TelemetryServer, IdleClientBlocksNeitherScrapesNorStop) {
  ExpositionServer server{ExpositionOptions{}};
  server.start();
  // Connected, never sends a byte. One thread serves every client, so the
  // server has to give up on this one before it can answer the next.
  const int idle = connect_loopback(server.port());
  ASSERT_GE(idle, 0);

  EXPECT_NE(http_get(server.port(), "/metrics").find("HTTP/1.1 200 OK"),
            std::string::npos);

  // stop() joins the serving thread. Run it aside so that a thread still
  // stuck on the idle socket fails the wait instead of hanging the test;
  // closing the socket afterwards lets such a thread go either way.
  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    server.stop();
    stopped.set_value();
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  ::close(idle);
  stopper.join();
  EXPECT_TRUE(returned) << "stop() waited on the idle client";
}

#endif  // AOADMM_TEST_SOCKETS

// ---------------------------------------------------------------------------
// File writer
// ---------------------------------------------------------------------------

TEST(TelemetryFileWriterTest, WritesBothFilesOnStop) {
  const std::string path = ::testing::TempDir() + "tt_tele.prom";
  std::remove(path.c_str());
  std::remove((path + ".health").c_str());
  MetricsRegistry::global().counter("tt/file_counter").add(7);
  {
    TelemetryFileWriter writer(path, 60.0);  // period >> test: stop() writes
    writer.start();
    writer.stop();
  }
  std::ifstream prom(path);
  ASSERT_TRUE(static_cast<bool>(prom));
  std::stringstream text;
  text << prom.rdbuf();
  EXPECT_NE(text.str().find("aoadmm_tt_file_counter_total"),
            std::string::npos);

  std::ifstream health(path + ".health");
  ASSERT_TRUE(static_cast<bool>(health));
  std::stringstream hjson;
  hjson << health.rdbuf();
  EXPECT_TRUE(testing::is_valid_json(hjson.str()));
}

TEST(TelemetryFileWriterTest, WriteFailuresAreCountedNotThrown) {
  testing::disarm_faults();
  auto& reg = MetricsRegistry::global();

  // Unwritable destination: the tmp file cannot even open.
  const double before_bad = reg.counter_value("telemetry/file_write_failures");
  {
    TelemetryFileWriter writer(
        ::testing::TempDir() + "no_such_dir_tt/tele.prom", 60.0);
    writer.write_now();  // must degrade, not throw
  }
  EXPECT_GE(reg.counter_value("telemetry/file_write_failures"),
            before_bad + 1);

  // Injected fault on a good path: the write is skipped and counted, and
  // the next (unfaulted) write lands the file.
  const std::string path = ::testing::TempDir() + "tt_tele_fault.prom";
  std::remove(path.c_str());
  const double before_fault =
      reg.counter_value("telemetry/file_write_failures");
  TelemetryFileWriter writer(path, 60.0);
  testing::FaultConfig cfg;
  cfg.at(testing::FaultSite::kTelemetryWrite) = {1.0, 1};
  testing::arm_faults(cfg);
  writer.write_now();
  testing::disarm_faults();
  EXPECT_FALSE(std::ifstream(path).good());  // skipped, nothing half-written
  EXPECT_GE(reg.counter_value("telemetry/file_write_failures"),
            before_fault + 1);
  writer.write_now();
  EXPECT_TRUE(std::ifstream(path).good());
}

// ---------------------------------------------------------------------------
// Scrape-vs-writer contract: rendering the full exposition concurrently
// with hot-path writers must never block or race them (satellite fix for
// the exporter contention bug; runs under TSan in CI).
// ---------------------------------------------------------------------------

TEST(TelemetryStress, ScrapesNeverBlockWriters) {
  auto& reg = MetricsRegistry::global();
  constexpr int kWriters = 4;
  constexpr int kIterations = 20000;

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&go, &reg, t] {
      Counter c = reg.counter("tt/stress_counter");
      Histogram h = reg.histogram("tt/stress_hist");
      WindowedHistogram& w = windowed_histogram("tt/stress_window", 60.0);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kIterations; ++i) {
        c.add(1);
        h.observe(1e-4 * ((t + i) % 16 + 1));
        w.observe(1e-4 * (i % 8 + 1));
      }
    });
  }

  go.store(true, std::memory_order_release);
  // Scrape continuously while the writers hammer: snapshots, full
  // Prometheus renders, and healthz — all must complete without blocking
  // a single writer iteration.
  std::size_t rendered = 0;
  for (int s = 0; s < 50; ++s) {
    const RegistrySnapshot snap = reg.snapshot();
    std::ostringstream out;
    write_prometheus(out);
    std::ostringstream hz;
    write_healthz(hz, {});
    rendered += out.str().size() + hz.str().size() + snap.counters.size();
  }
  EXPECT_GT(rendered, 0u);

  for (std::thread& w : writers) {
    w.join();
  }
  // Every writer iteration landed (no update lost to a scrape).
  EXPECT_GE(reg.counter_value("tt/stress_counter"),
            static_cast<double>(kWriters) * kIterations);
  EXPECT_GE(reg.histogram_snapshot("tt/stress_hist").count,
            static_cast<std::uint64_t>(kWriters) * kIterations);
}

}  // namespace
}  // namespace aoadmm::obs
