// Outside-in tracing for the traced run: spans recorded by the benchmark
// around its own calls into the library, kept in memory and written as a
// Chrome trace when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";  // static string: "<layer>.<call>"
  double start_s = 0;     // since the tracer was created
  double end_s = 0;
  int parent = -1;        // index of the enclosing span, -1 for a root
  std::uint64_t solve = 0;
};

/// Single-threaded span recorder. Spans nest by call order: a span opened
/// while another is open becomes its child.
class Tracer {
 public:
  explicit Tracer(std::string workload);

  /// Spans opened from now on belong to `solve`.
  void set_solve(std::uint64_t solve) { solve_ = solve; }

  /// Seconds since the tracer was created.
  double now() const;

  int open(const char* name);
  void close(int span);
  /// A finished span whose times the library reported (an outer iteration
  /// from its per-iteration snapshot); a child of the innermost open span.
  void add(const char* name, double start_s, double end_s);

  /// RAII span around one call; a null tracer records nothing (untraced
  /// runs).
  class Scope {
   public:
    Scope(Tracer* t, const char* name)
        : t_(t), id_(t != nullptr ? t->open(name) : -1) {}
    ~Scope() {
      if (t_ != nullptr) {
        t_->close(id_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  /// Chrome trace-event JSON ("X" events, microseconds, one tid per solve).
  void write_chrome(const std::string& path) const;

 private:
  std::string workload_;
  std::chrono::steady_clock::time_point t0_;
  std::uint64_t solve_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace e2e
