#ifndef BLOSSOMTREE_BENCH_REGRESSION_CHECK_H_
#define BLOSSOMTREE_BENCH_REGRESSION_CHECK_H_

#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace blossomtree {
namespace bench {

/// One query's comparable slice of a BENCH_*.json artifact: the
/// deterministic work counters summed over the plan's operators (and over
/// the crossing-edge join steps of multi-tree FLWORs), plus the
/// (machine-dependent) wall time kept aside for the optional latency check.
///
/// The perf gate diffs the counters, not the clock: with a fixed dataset
/// seed and scale the counters are pure functions of the plan, identical
/// across machines, compilers, and thread counts — so a checked-in baseline
/// stays green in CI until a change actually alters the work a plan does.
struct QueryCounters {
  uint64_t nodes_scanned = 0;
  uint64_t index_entries = 0;
  uint64_t comparisons = 0;
  uint64_t rows = 0;
  uint64_t nl_cells = 0;
  /// Crossing-edge join steps ("cross_joins"), summed over the steps.
  uint64_t join_build_rows = 0;
  uint64_t join_probe_rows = 0;
  uint64_t join_candidate_pairs = 0;
  uint64_t join_emitted = 0;
  double total_wall_ms = 0;  ///< Clock time; only the --check-latency path.
};

/// Keyed per-query counters of one artifact, plus its header fields.
struct BenchRun {
  std::string bench;
  int schema_version = 0;
  std::map<std::string, QueryCounters> queries;
};

/// Tolerances for CompareRuns. Counters are deterministic, so the default
/// tolerance is exact; latency is off by default (CI machines are noisy).
struct RegressionOptions {
  double counter_tolerance = 0.0;  ///< Allowed relative counter growth.
  bool check_latency = false;
  double latency_tolerance = 0.5;  ///< Allowed relative wall-time growth.
};

/// Outcome of one baseline-vs-current comparison.
struct RegressionReport {
  std::vector<std::string> failures;  ///< Regressions / missing queries.
  std::vector<std::string> warnings;  ///< New queries, improvements.
  int queries_compared = 0;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

/// Parses a BENCH_*.json artifact into per-query counters. The key of each
/// entry is the concatenation of its context fields (dataset, id, system,
/// ... — everything except the profile itself) plus the profile's query
/// text, so any two runs of the same harness key identically.
Result<BenchRun> LoadBenchRun(const std::string& path);

/// LoadBenchRun over an already-parsed JSON value (for tests).
Result<BenchRun> BenchRunFromJson(const util::JsonValue& root);

/// Diffs `current` against `baseline` under `options`. Failures: a counter
/// above baseline * (1 + counter_tolerance); a baseline query missing from
/// the current run; a bench/schema mismatch; optionally wall time above
/// baseline * (1 + latency_tolerance). Queries only in `current` warn.
RegressionReport CompareRuns(const BenchRun& baseline, const BenchRun& current,
                             const RegressionOptions& options = {});

}  // namespace bench
}  // namespace blossomtree

#endif  // BLOSSOMTREE_BENCH_REGRESSION_CHECK_H_
