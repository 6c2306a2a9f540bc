#include "engine/query_profile.h"

#include <algorithm>
#include <cstdio>

namespace blossomtree {
namespace engine {

namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string MsString(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(nanos) / 1e6);
  return buf;
}

}  // namespace

std::string CrossJoinProfile::Counters() const {
  return "build_rows=" + std::to_string(build_rows) +
         " probe_rows=" + std::to_string(probe_rows) +
         " candidate_pairs=" + std::to_string(candidate_pairs) +
         " emitted=" + std::to_string(emitted);
}

void QueryProfile::AddOperator(std::string label, int depth,
                               const exec::ExecStats& s,
                               double estimated_rows) {
  OperatorProfile op;
  op.label = std::move(label);
  op.depth = depth;
  op.estimated_rows = estimated_rows;
  op.stats = s;
  operators.push_back(std::move(op));
}

std::string QueryProfile::ToJson() const {
  std::string out = "{";
  out += "\"query\": \"" + EscapeJson(query) + "\", ";
  out += "\"strategy\": \"" + EscapeJson(strategy) + "\", ";
  out += "\"threads\": " + std::to_string(threads) + ", ";
  out += "\"total_wall_ms\": " + MsString(total_wall_nanos) + ", ";
  out += "\"operators\": [";
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorProfile& op = operators[i];
    if (i > 0) out += ", ";
    out += "{\"label\": \"" + EscapeJson(op.label) + "\"";
    out += ", \"depth\": " + std::to_string(op.depth);
    if (op.estimated_rows >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", op.estimated_rows);
      out += ", \"estimated_rows\": ";
      out += buf;
    }
    const exec::ExecStats& s = op.stats;
    out += ", \"wall_ms\": " + MsString(s.wall_nanos);
    out += ", \"nodes_scanned\": " + std::to_string(s.nodes_scanned);
    out += ", \"index_entries\": " + std::to_string(s.index_entries);
    out += ", \"comparisons\": " + std::to_string(s.comparisons);
    out += ", \"rows\": " + std::to_string(s.matches);
    out += ", \"nl_cells\": " + std::to_string(s.nl_cells);
    out += ", \"peak_buffer_bytes\": " +
           std::to_string(s.peak_buffer_bytes);
    out += ", \"rescans\": " + std::to_string(s.rescans);
    out += "}";
  }
  out += "]";
  if (!cross_joins.empty()) {
    out += ", \"cross_joins\": [";
    for (size_t i = 0; i < cross_joins.size(); ++i) {
      const CrossJoinProfile& j = cross_joins[i];
      if (i > 0) out += ", ";
      out += "{\"label\": \"" + EscapeJson(j.label) + "\"";
      out += ", \"wall_ms\": " + MsString(j.wall_nanos);
      out += ", \"build_rows\": " + std::to_string(j.build_rows);
      out += ", \"probe_rows\": " + std::to_string(j.probe_rows);
      out += ", \"candidate_pairs\": " + std::to_string(j.candidate_pairs);
      out += ", \"emitted\": " + std::to_string(j.emitted);
      out += "}";
    }
    out += "]";
  }
  if (!metrics_json.empty()) out += ", \"metrics\": " + metrics_json;
  out += "}";
  return out;
}

std::string QueryProfile::ToText() const {
  std::string out = "strategy: " + strategy + "\n";
  // Two passes: size the label column first, so the counter column starts
  // at one fixed offset whatever the tree depth, label length, or counter
  // magnitude (7+-digit counters used to shear the layout).
  size_t width = 0;
  for (const OperatorProfile& op : operators) {
    width = std::max(width,
                     static_cast<size_t>(op.depth) * 2 + op.label.size());
  }
  for (const OperatorProfile& op : operators) {
    std::string line(static_cast<size_t>(op.depth) * 2, ' ');
    line += op.label;
    line.append(width - line.size() + 2, ' ');
    out += line + op.stats.Counters() + "\n";
  }
  for (const CrossJoinProfile& j : cross_joins) {
    out += "cross join " + j.label + "  " + j.Counters() + "\n";
  }
  return out;
}

QueryProfile BuildQueryProfile(opt::QueryPlan* plan, std::string query,
                               unsigned threads) {
  QueryProfile profile;
  profile.query = std::move(query);
  profile.strategy = opt::JoinStrategyToString(plan->chosen);
  profile.threads = threads;
  plan->FinishAll();
  if (plan->merged_scan != nullptr) {
    profile.AddOperator("MergedNokScan", 0, plan->merged_scan->ScanStats());
  }
  opt::ForEachOperator(
      *plan, [&](const exec::NestedListOperator& op, int depth) {
        profile.AddOperator(op.Label(), depth, op.Stats(),
                            op.estimated_rows());
      });
  for (const opt::PatternTreePlan& tp : plan->trees) {
    if (tp.root != nullptr) {
      profile.total_wall_nanos += tp.root->Stats().wall_nanos;
    }
  }
  if (plan->merged_scan != nullptr) {
    profile.total_wall_nanos += plan->merged_scan->ScanStats().wall_nanos;
  }
  return profile;
}

}  // namespace engine
}  // namespace blossomtree
