#include "obs/telemetry/exposition.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/window_quantiles.hpp"
#include "testing/fault_injection.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

#if defined(_WIN32)
#define AOADMM_HAVE_SOCKETS 0
#else
#define AOADMM_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace aoadmm::obs {
namespace {

struct TelemetryMetrics {
  Counter scrapes;
  Counter slo_breaches;
  Counter file_write_failures;

  static const TelemetryMetrics& get() {
    static const TelemetryMetrics m = [] {
      auto& reg = MetricsRegistry::global();
      TelemetryMetrics out;
      out.scrapes = reg.counter("telemetry/scrapes");
      out.slo_breaches = reg.counter("telemetry/slo_query_p99_breaches");
      out.file_write_failures = reg.counter("telemetry/file_write_failures");
      return out;
    }();
    return m;
  }
};

void write_prom_value(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << "NaN";
  } else if (std::isinf(v)) {
    out << (v > 0 ? "+Inf" : "-Inf");
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << buf;
  }
}

double snapshot_gauge(const RegistrySnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

double snapshot_counter(const RegistrySnapshot& snap,
                        const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

/// Run the pre-scrape hook and the SLO check that precede every rendered
/// exposition (HTTP scrape or file rewrite).
void pre_render(const ExpositionOptions& opts) {
  if (opts.pre_scrape) {
    opts.pre_scrape();
  }
  TelemetryMetrics::get().scrapes.add(1);
  if (opts.slo_query_p99_seconds > 0) {
    const HistogramSnapshot w =
        windowed_histogram(kWindowQuerySeconds).snapshot();
    if (w.count > 0 &&
        histogram_quantile(w, 0.99) > opts.slo_query_p99_seconds) {
      TelemetryMetrics::get().slo_breaches.add(1);
    }
  }
}

}  // namespace

std::string prometheus_name(const std::string& name, const char* prefix) {
  std::string out = prefix;
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void write_prometheus(std::ostream& out) {
  const RegistrySnapshot snap = MetricsRegistry::global().snapshot();

  for (const auto& [name, value] : snap.counters) {
    const std::string p = prometheus_name(name) + "_total";
    out << "# TYPE " << p << " counter\n" << p << " ";
    write_prom_value(out, value);
    out << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = prometheus_name(name);
    out << "# TYPE " << p << " gauge\n" << p << " ";
    write_prom_value(out, value);
    out << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = prometheus_name(name);
    out << "# TYPE " << p << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) {
        continue;  // elide empty buckets; `le` is cumulative so this is valid
      }
      cum += h.buckets[b];
      out << p << "_bucket{le=\"";
      write_prom_value(out, histogram_bucket_upper(b));
      out << "\"} " << cum << "\n";
    }
    out << p << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << p << "_sum ";
    write_prom_value(out, h.sum);
    out << "\n" << p << "_count " << h.count << "\n";
    // The interpolated quantile set every exporter shares, as gauges
    // (Prometheus forbids mixing histogram and summary under one name).
    const HistogramQuantiles q = histogram_quantiles(h);
    const std::pair<const char*, double> quants[] = {
        {"p50", q.p50}, {"p95", q.p95}, {"p99", q.p99}, {"p999", q.p999}};
    for (const auto& [suffix, value] : quants) {
      out << "# TYPE " << p << "_" << suffix << " gauge\n"
          << p << "_" << suffix << " ";
      write_prom_value(out, value);
      out << "\n";
    }
  }

  // Windowed histograms: trailing-window quantiles as a summary family.
  for (const auto& [name, hist] : windowed_list()) {
    const HistogramSnapshot w = hist->snapshot();
    const HistogramQuantiles q = histogram_quantiles(w);
    const std::string p = prometheus_name(name, "aoadmm_window_");
    out << "# TYPE " << p << " summary\n";
    const std::pair<const char*, double> quants[] = {
        {"0.5", q.p50}, {"0.95", q.p95}, {"0.99", q.p99}, {"0.999", q.p999}};
    for (const auto& [label, value] : quants) {
      out << p << "{quantile=\"" << label << "\"} ";
      write_prom_value(out, value);
      out << "\n";
    }
    out << p << "_sum ";
    write_prom_value(out, w.sum);
    out << "\n" << p << "_count " << w.count << "\n";
  }
}

bool write_healthz(std::ostream& out, const ExpositionOptions& opts) {
  using detail::json_number;
  const RegistrySnapshot snap = MetricsRegistry::global().snapshot();
  const double epoch = snapshot_gauge(snap, "stream/snapshot_epoch");
  const double staleness = snapshot_gauge(snap, "stream/staleness_seconds");
  const bool has_model = epoch > 0;
  const bool stale = opts.stale_after_seconds > 0 &&
                     (!has_model || !(staleness <= opts.stale_after_seconds));

  // Degraded is distinct from stale: the pipeline is still serving its last
  // good snapshot but something upstream needs attention (supervisor
  // breaker open, WAL replay in progress, quarantined batches pending).
  // Stale answers 503 — the model is too old to trust; degraded answers 200
  // — by design the last good model keeps serving while the supervisor
  // backs off. The signals arrive as gauges because this layer reads only
  // the registry and cannot depend on stream/.
  const std::pair<const char*, const char*> degraded_signals[] = {
      {"breaker_open", "robust/stream_breaker_open"},
      {"wal_replaying", "stream/wal_replaying"},
      {"quarantine_pending", "stream/quarantine_pending"}};
  std::string degraded_reasons;
  for (const auto& [reason, gauge] : degraded_signals) {
    if (snapshot_gauge(snap, gauge) > 0) {
      if (!degraded_reasons.empty()) {
        degraded_reasons += ", ";
      }
      degraded_reasons += '"';
      degraded_reasons += reason;
      degraded_reasons += '"';
    }
  }
  const bool degraded = !degraded_reasons.empty();
  const bool healthy = !stale;

  out << "{\"status\": \""
      << (!healthy ? "stale"
                   : (degraded ? "degraded"
                               : (has_model ? "ok" : "no_model")))
      << "\", \"degraded_reasons\": [" << degraded_reasons
      << "], \"model_staleness_seconds\": ";
  json_number(out, has_model ? staleness
                             : std::numeric_limits<double>::infinity());
  out << ", \"snapshot_epoch\": " << static_cast<std::uint64_t>(epoch);

  out << ", \"last_refresh\": {\"converged\": "
      << (snapshot_gauge(snap, "stream/last_refresh_converged") > 0 ? "true"
                                                                    : "false")
      << ", \"relative_error\": ";
  json_number(out, snapshot_gauge(snap, "stream/last_refresh_error"));
  out << ", \"outer_iterations\": "
      << static_cast<std::uint64_t>(
             snapshot_gauge(snap, "stream/last_refresh_outer_iterations"))
      << "}";

  const std::pair<const char*, const char*> recovery_counters[] = {
      {"cholesky_jitter", "robust/cholesky_jitter"},
      {"admm_restarts", "robust/admm_restarts"},
      {"admm_abandoned", "robust/admm_abandoned"},
      {"mttkrp_retries", "robust/mttkrp_retries"},
      {"factor_rollbacks", "robust/factor_rollbacks"},
      {"checkpoint_write_failures", "robust/checkpoint_write_failures"},
      {"stream_refresh_failures", "robust/stream_refresh_failures"},
      {"stream_breaker_trips", "robust/stream_breaker_trips"},
      {"stream_quarantined_batches", "robust/stream_quarantined_batches"},
      {"stream_wal_write_failures", "robust/stream_wal_write_failures"}};
  out << ", \"recoveries\": {";
  double total_recoveries = 0;
  for (const auto& [key, counter] : recovery_counters) {
    const double v = snapshot_counter(snap, counter);
    total_recoveries += v;
    out << "\"" << key << "\": " << static_cast<std::uint64_t>(v) << ", ";
  }
  out << "\"total\": " << static_cast<std::uint64_t>(total_recoveries) << "}";

  const HistogramSnapshot w =
      windowed_histogram(kWindowQuerySeconds).snapshot();
  const HistogramQuantiles q = histogram_quantiles(w);
  out << ", \"window\": {\"query_count\": " << w.count
      << ", \"query_p50_seconds\": ";
  json_number(out, q.p50);
  out << ", \"query_p95_seconds\": ";
  json_number(out, q.p95);
  out << ", \"query_p99_seconds\": ";
  json_number(out, q.p99);
  out << ", \"query_p999_seconds\": ";
  json_number(out, q.p999);
  out << "}";

  out << ", \"slo\": {\"query_p99_target_seconds\": ";
  json_number(out, opts.slo_query_p99_seconds);
  out << ", \"query_p99_breaches\": "
      << static_cast<std::uint64_t>(
             snapshot_counter(snap, "telemetry/slo_query_p99_breaches"))
      << "}";

  out << ", \"scrapes\": "
      << static_cast<std::uint64_t>(
             snapshot_counter(snap, "telemetry/scrapes"))
      << "}\n";
  return healthy;
}

// ---------------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------------

struct ExpositionServer::Impl {
  ExpositionOptions opts;
  std::atomic<bool> running{false};
  std::atomic<std::uint16_t> port{0};
  std::atomic<std::uint64_t> requests{0};
  int listen_fd = -1;
  std::thread thread;
};

ExpositionServer::ExpositionServer(ExpositionOptions opts) : impl_(new Impl()) {
  impl_->opts = std::move(opts);
}

ExpositionServer::~ExpositionServer() {
  stop();
  delete impl_;
}

bool ExpositionServer::running() const noexcept {
  return impl_->running.load(std::memory_order_acquire);
}

std::uint16_t ExpositionServer::port() const noexcept {
  return impl_->port.load(std::memory_order_acquire);
}

std::uint64_t ExpositionServer::requests() const noexcept {
  return impl_->requests.load(std::memory_order_relaxed);
}

#if AOADMM_HAVE_SOCKETS

void ExpositionServer::start() {
  AOADMM_CHECK_MSG(!running(), "exposition server already started");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  AOADMM_CHECK_MSG(fd >= 0, "exposition server: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never exposed off-host
  addr.sin_port = htons(impl_->opts.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw Error("exposition server: cannot bind 127.0.0.1:" +
                std::to_string(impl_->opts.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  impl_->port.store(ntohs(bound.sin_port), std::memory_order_release);
  impl_->listen_fd = fd;
  impl_->running.store(true, std::memory_order_release);
  impl_->thread = std::thread([this] { serve_loop(); });
  AOADMM_LOG_INFO << "telemetry: serving /metrics and /healthz on 127.0.0.1:"
                  << port();
}

void ExpositionServer::stop() {
  if (!impl_->running.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Unblock accept(): shutdown + close the listening socket.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  if (impl_->thread.joinable()) {
    impl_->thread.join();
  }
}

void ExpositionServer::serve_loop() {
  const int listen_fd = impl_->listen_fd;
  while (impl_->running.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      continue;  // stop() closed the socket, or a transient accept error
    }
    // One thread serves every client: a client that sends nothing (or stops
    // reading) is dropped after a second, not waited on by later scrapes.
    timeval timeout{};
    timeout.tv_sec = 1;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    // Read the request head (we only need the request line).
    char buf[2048];
    std::string req;
    while (req.find("\r\n") == std::string::npos && req.size() < 16384) {
      const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
      if (n <= 0) {
        break;
      }
      req.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t sp1 = req.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : req.find(' ', sp1 + 1);
    const std::string method =
        sp1 == std::string::npos ? "" : req.substr(0, sp1);
    const std::string path =
        sp2 == std::string::npos ? "" : req.substr(sp1 + 1, sp2 - sp1 - 1);

    std::string status = "200 OK";
    std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
    std::ostringstream body;
    if (method != "GET") {
      status = "405 Method Not Allowed";
      body << "only GET is supported\n";
    } else if (path == "/metrics" || path == "/") {
      pre_render(impl_->opts);
      write_prometheus(body);
    } else if (path == "/healthz") {
      pre_render(impl_->opts);
      content_type = "application/json";
      if (!write_healthz(body, impl_->opts)) {
        status = "503 Service Unavailable";
      }
    } else {
      status = "404 Not Found";
      body << "routes: /metrics /healthz\n";
    }

    const std::string payload = body.str();
    std::ostringstream resp;
    resp << "HTTP/1.1 " << status << "\r\nContent-Type: " << content_type
         << "\r\nContent-Length: " << payload.size()
         << "\r\nConnection: close\r\n\r\n"
         << payload;
    const std::string wire = resp.str();
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::send(client, wire.data() + off, wire.size() - off,
#if defined(MSG_NOSIGNAL)
                               MSG_NOSIGNAL
#else
                               0
#endif
      );
      if (n <= 0) {
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    ::close(client);
    impl_->requests.fetch_add(1, std::memory_order_relaxed);
  }
}

#else  // !AOADMM_HAVE_SOCKETS

void ExpositionServer::start() {
  throw Error(
      "exposition server: sockets unavailable on this platform; use "
      "--telemetry-file");
}
void ExpositionServer::stop() {}
void ExpositionServer::serve_loop() {}

#endif

// ---------------------------------------------------------------------------
// File writer
// ---------------------------------------------------------------------------

struct TelemetryFileWriter::Impl {
  std::string path;
  double period_seconds;
  ExpositionOptions opts;
  std::mutex mutex;
  std::condition_variable cv;
  bool running = false;
  std::thread thread;
};

TelemetryFileWriter::TelemetryFileWriter(std::string path,
                                         double period_seconds,
                                         ExpositionOptions opts)
    : impl_(new Impl()) {
  AOADMM_CHECK_MSG(period_seconds > 0,
                   "telemetry file writer needs a positive period");
  impl_->path = std::move(path);
  impl_->period_seconds = period_seconds;
  impl_->opts = std::move(opts);
}

TelemetryFileWriter::~TelemetryFileWriter() {
  stop();
  delete impl_;
}

const std::string& TelemetryFileWriter::path() const noexcept {
  return impl_->path;
}

void TelemetryFileWriter::write_now() {
  pre_render(impl_->opts);
  // Every failure mode — unwritable tmp, short write (disk full), failed
  // rename, injected kTelemetryWrite fault — degrades to a counted skip.
  // The previous generation of the file stays intact and the writer thread
  // keeps its cadence; telemetry must never wedge the pipeline it observes.
  const auto atomically = [](const std::string& path,
                             const std::string& content) {
    const auto fail = [&path](const char* why) {
      TelemetryMetrics::get().file_write_failures.add(1);
      AOADMM_LOG_WARN << "telemetry: " << why << " for " << path
                      << " (keeping previous file)";
    };
    const std::string tmp = path + ".tmp";
    if (testing::maybe_fail_telemetry_write()) {
      std::remove(tmp.c_str());
      fail("injected write failure");
      return;
    }
    {
      std::ofstream out(tmp, std::ios::out | std::ios::trunc);
      if (!out) {
        fail("cannot open tmp file");
        return;
      }
      out << content;
      out.flush();
      if (!out) {
        out.close();
        std::remove(tmp.c_str());
        fail("short write");
        return;
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      fail("rename failed");
      return;
    }
  };
  std::ostringstream prom;
  write_prometheus(prom);
  atomically(impl_->path, prom.str());
  std::ostringstream health;
  write_healthz(health, impl_->opts);
  atomically(impl_->path + ".health", health.str());
}

void TelemetryFileWriter::start() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  if (impl_->running) {
    return;
  }
  impl_->running = true;
  impl_->thread = std::thread([this] {
    std::unique_lock<std::mutex> lk(impl_->mutex);
    while (impl_->running) {
      lk.unlock();
      write_now();
      lk.lock();
      impl_->cv.wait_for(
          lk, std::chrono::duration<double>(impl_->period_seconds),
          [this] { return !impl_->running; });
    }
  });
}

void TelemetryFileWriter::stop() {
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    if (!impl_->running && !impl_->thread.joinable()) {
      return;
    }
    impl_->running = false;
    impl_->cv.notify_all();
  }
  if (impl_->thread.joinable()) {
    impl_->thread.join();
  }
  write_now();  // leave fresh files behind even for sub-period runs
}

}  // namespace aoadmm::obs
