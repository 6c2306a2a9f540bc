// The benchmark's three workloads. Each builds its inputs from the seed,
// computes every query's reference output with the navigational evaluator
// before timing starts, and reports either the end-to-end metrics (timed
// run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the d3 corpus file and its index sidecar.
  std::string workdir = ".";
  /// Where the traced run writes its spans and counts.
  std::string trace_path;
  /// The environment stamp (JSON object), embedded in the trace file.
  std::string env_json;
};

/// Runs one workload. An unknown name yields correct=false.
RunResult RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
