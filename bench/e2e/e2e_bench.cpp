// End-to-end benchmark program: runs one workload and prints one JSON line
// with its metrics, the checked-operation counts and its context.
//
//   e2e_bench --workload nell-admm --seed 1 --seconds 10 --trace 0
//             [--smoke 0|1] [--chrome-trace out.json]
//             [--work-dir build-e2e/work]
//
// bench/e2e/run.py builds and runs this; see bench/e2e/README.md.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::cerr << "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke 0|1] [--chrome-trace PATH] "
               "[--work-dir DIR]\n";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      const std::string val = argv[++i];
      if (arg == "--workload") {
        o.workload = val;
      } else if (arg == "--seed") {
        o.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(val);
      } else if (arg == "--trace") {
        o.trace = std::stoi(val) != 0;
      } else if (arg == "--smoke") {
        o.smoke = std::stoi(val) != 0;
      } else if (arg == "--chrome-trace") {
        o.chrome_trace = val;
      } else if (arg == "--work-dir") {
        o.work_dir = val;
      } else {
        usage();
        return 2;
      }
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  const e2e::WorkloadFn run = e2e::find_workload(o.workload);
  if (run == nullptr || !(o.seconds > 0)) {
    usage();
    return 2;
  }

  e2e::Metrics metrics;
  e2e::Checks checks;
  e2e::Context ctx;
  try {
    run(o, metrics, checks, ctx);
  } catch (const std::exception& e) {
    std::cerr << "e2e: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  std::string out = "{\"workload\":" + json_string(o.workload);
  out += ",\"correct\":";
  out += checks.failed() == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(checks.attempted());
  out += ",\"failed\":" + std::to_string(checks.failed());
  out += ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    out += sep;
    out += json_string(name);
    out += ":{\"value\":" + json_number(metric.value);
    out += ",\"unit\":" + json_string(metric.unit) + "}";
    sep = ",";
  }
  out += "},\"context\":{";
  sep = "";
  for (const auto& [key, value] : ctx) {
    out += sep;
    out += json_string(key) + ":" + json_string(value);
    sep = ",";
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}
