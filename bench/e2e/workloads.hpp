// The four end-to-end workloads. Each reads its input size and seed from
// Options, fills Metrics with every end-to-end metric (and, when
// Options::trace is set, every per-layer metric), records each checked
// operation in Checks, and adds what it ran on to the context map.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace e2e {

using Context = std::map<std::string, std::string>;

using WorkloadFn = void (*)(const Options&, Metrics&, Checks&, Context&);

/// The workload registered under `name`, or nullptr.
WorkloadFn find_workload(const std::string& name);

}  // namespace e2e
