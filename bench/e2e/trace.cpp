#include "trace.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace e2e {

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), t0_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 12);
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.solve = solve_;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  spans_[id].start_s = now();
  return id;
}

void Tracer::close(int span) {
  spans_[span].end_s = now();
  open_.pop_back();
}

void Tracer::add(const char* name, double start_s, double end_s) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.solve = solve_;
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(s);
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write chrome trace " + path);
  }
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.solve
        << ",\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"workload\":\"" << workload_
        << "\",\"solve\":" << s.solve << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace e2e
