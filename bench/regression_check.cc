#include "regression_check.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace blossomtree {
namespace bench {

namespace {

/// Renders a context value compactly for the query key.
std::string KeyValue(const util::JsonValue& v) {
  switch (v.kind()) {
    case util::JsonValue::Kind::kString:
      return v.AsString();
    case util::JsonValue::Kind::kNumber: {
      char buf[32];
      double d = v.AsNumber();
      if (d == std::floor(d) && std::fabs(d) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(d));
      } else {
        std::snprintf(buf, sizeof(buf), "%g", d);
      }
      return buf;
    }
    case util::JsonValue::Kind::kBool:
      return v.AsBool() ? "true" : "false";
    default:
      return "?";
  }
}

/// Sums counter `name` over the objects of the profile's `list` array.
uint64_t SumCounter(const util::JsonValue& profile, const char* name,
                    const char* list = "operators") {
  const util::JsonValue* ops = profile.Find(list);
  if (ops == nullptr || !ops->is_array()) return 0;
  double total = 0;
  for (const util::JsonValue& op : ops->AsArray()) {
    total += op.NumberOr(name, 0);
  }
  return static_cast<uint64_t>(total);
}

}  // namespace

std::string RegressionReport::ToString() const {
  std::string out;
  for (const std::string& f : failures) out += "FAIL: " + f + "\n";
  for (const std::string& w : warnings) out += "warn: " + w + "\n";
  char line[96];
  std::snprintf(line, sizeof(line), "%d queries compared, %zu failures\n",
                queries_compared, failures.size());
  out += line;
  return out;
}

Result<BenchRun> BenchRunFromJson(const util::JsonValue& root) {
  if (!root.is_object()) {
    return Status::InvalidArgument("bench artifact is not a JSON object");
  }
  BenchRun run;
  run.bench = root.StringOr("bench", "");
  run.schema_version =
      static_cast<int>(root.NumberOr("schema_version", 1));
  const util::JsonValue* profiles = root.Find("profiles");
  if (profiles == nullptr || !profiles->is_array()) {
    return Status::InvalidArgument("bench artifact has no profiles array");
  }
  for (const util::JsonValue& entry : profiles->AsArray()) {
    if (!entry.is_object()) continue;
    const util::JsonValue* profile = entry.Find("profile");
    // Context fields (everything but the profile and the timing samples —
    // latency and, for the service bench, queue delay) identify the query
    // across runs; std::map iteration makes the key order-independent of
    // the artifact's field order.
    std::string key;
    for (const auto& [name, value] : entry.AsObject()) {
      if (name == "profile" || name == "latency_ns" ||
          name == "queue_delay_ns") {
        continue;
      }
      key += name + "=" + KeyValue(value) + " ";
    }
    QueryCounters c;
    if (profile != nullptr && profile->is_object()) {
      key += profile->StringOr("query", "");
      c.nodes_scanned = SumCounter(*profile, "nodes_scanned");
      c.index_entries = SumCounter(*profile, "index_entries");
      c.comparisons = SumCounter(*profile, "comparisons");
      c.rows = SumCounter(*profile, "rows");
      c.nl_cells = SumCounter(*profile, "nl_cells");
      c.join_build_rows = SumCounter(*profile, "build_rows", "cross_joins");
      c.join_probe_rows = SumCounter(*profile, "probe_rows", "cross_joins");
      c.join_candidate_pairs =
          SumCounter(*profile, "candidate_pairs", "cross_joins");
      c.join_emitted = SumCounter(*profile, "emitted", "cross_joins");
      c.total_wall_ms = profile->NumberOr("total_wall_ms", 0);
    }
    run.queries[key] = c;
  }
  return run;
}

Result<BenchRun> LoadBenchRun(const std::string& path) {
  BT_ASSIGN_OR_RETURN(util::JsonValue root, util::ParseJsonFile(path));
  auto run = BenchRunFromJson(root);
  if (!run.ok()) {
    return Status::InvalidArgument(path + ": " + run.status().message());
  }
  return run;
}

namespace {

void CheckCounter(const std::string& key, const char* name, uint64_t base,
                  uint64_t cur, double tolerance, RegressionReport* report) {
  double limit = static_cast<double>(base) * (1.0 + tolerance);
  if (static_cast<double>(cur) > limit) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s %" PRIu64 " -> %" PRIu64 " (limit %.0f)", name, base,
                  cur, limit);
    report->failures.push_back(key + ": " + line);
  } else if (cur < base) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s improved %" PRIu64 " -> %" PRIu64,
                  name, base, cur);
    report->warnings.push_back(key + ": " + line);
  }
}

}  // namespace

RegressionReport CompareRuns(const BenchRun& baseline, const BenchRun& current,
                             const RegressionOptions& options) {
  RegressionReport report;
  if (baseline.bench != current.bench) {
    report.failures.push_back("bench mismatch: baseline \"" +
                              baseline.bench + "\" vs current \"" +
                              current.bench + "\"");
    return report;
  }
  if (baseline.schema_version != current.schema_version) {
    report.failures.push_back(
        "schema_version mismatch: baseline " +
        std::to_string(baseline.schema_version) + " vs current " +
        std::to_string(current.schema_version) +
        " (regenerate the baseline)");
    return report;
  }
  for (const auto& [key, base] : baseline.queries) {
    auto it = current.queries.find(key);
    if (it == current.queries.end()) {
      report.failures.push_back(key + ": missing from current run");
      continue;
    }
    ++report.queries_compared;
    const QueryCounters& cur = it->second;
    double tol = options.counter_tolerance;
    CheckCounter(key, "nodes_scanned", base.nodes_scanned, cur.nodes_scanned,
                 tol, &report);
    CheckCounter(key, "index_entries", base.index_entries, cur.index_entries,
                 tol, &report);
    CheckCounter(key, "comparisons", base.comparisons, cur.comparisons, tol,
                 &report);
    CheckCounter(key, "rows", base.rows, cur.rows, tol, &report);
    CheckCounter(key, "nl_cells", base.nl_cells, cur.nl_cells, tol, &report);
    CheckCounter(key, "join_build_rows", base.join_build_rows,
                 cur.join_build_rows, tol, &report);
    CheckCounter(key, "join_probe_rows", base.join_probe_rows,
                 cur.join_probe_rows, tol, &report);
    CheckCounter(key, "join_candidate_pairs", base.join_candidate_pairs,
                 cur.join_candidate_pairs, tol, &report);
    CheckCounter(key, "join_emitted", base.join_emitted, cur.join_emitted,
                 tol, &report);
    if (options.check_latency && base.total_wall_ms > 0 &&
        cur.total_wall_ms >
            base.total_wall_ms * (1.0 + options.latency_tolerance)) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "total_wall_ms %.3f -> %.3f (tolerance %.0f%%)",
                    base.total_wall_ms, cur.total_wall_ms,
                    options.latency_tolerance * 100);
      report.failures.push_back(key + ": " + line);
    }
  }
  for (const auto& [key, cur] : current.queries) {
    if (baseline.queries.find(key) == baseline.queries.end()) {
      report.warnings.push_back(key +
                                ": new query (not in baseline; regenerate "
                                "to start tracking it)");
    }
  }
  return report;
}

}  // namespace bench
}  // namespace blossomtree
