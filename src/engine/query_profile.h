#ifndef BLOSSOMTREE_ENGINE_QUERY_PROFILE_H_
#define BLOSSOMTREE_ENGINE_QUERY_PROFILE_H_

#include <string>
#include <vector>

#include "exec/exec_stats.h"
#include "opt/planner.h"

namespace blossomtree {
namespace engine {

/// \brief One operator's slice of a query profile.
struct OperatorProfile {
  std::string label;           ///< Planner label, e.g. "NokScan(a,b)".
  int depth = 0;               ///< Depth in the operator tree (0 = root).
  double estimated_rows = -1;  ///< Planner estimate; < 0 when not planned
                               ///< with estimate_cardinalities.
  exec::ExecStats stats;
};

/// \brief One crossing-edge join step of a multi-tree FLWOR (DESIGN.md §17):
/// the join that adds one pattern tree's binding tuples to the tuples of the
/// trees before it. All counters are deterministic; `wall_nanos` is not.
struct CrossJoinProfile {
  std::string label;             ///< e.g. "HashValueJoin($a/x = $b/x)".
  uint64_t build_rows = 0;       ///< Tuples of the joined tree (filtered).
  uint64_t probe_rows = 0;       ///< Tuples of the trees joined so far.
  uint64_t candidate_pairs = 0;  ///< Pairs the join tested.
  uint64_t emitted = 0;          ///< Tuples that passed every predicate.
  uint64_t wall_nanos = 0;

  /// \brief "build_rows=.. probe_rows=.. candidate_pairs=.. emitted=..".
  std::string Counters() const;
};

/// \brief Per-operator execution profile of one query (DESIGN.md §8).
///
/// Counters come from run-to-completion totals (QueryPlan::FinishAll), so
/// ToText() — which renders only the deterministic counters — is identical
/// at every thread count; ToJson() additionally carries wall times.
struct QueryProfile {
  std::string query;     ///< The query text (or a bench label).
  std::string strategy;  ///< Join strategy of the executed plan.
  unsigned threads = 1;  ///< Resolved intra-query parallelism.
  uint64_t total_wall_nanos = 0;  ///< Wall time of the plan roots.
  std::vector<OperatorProfile> operators;
  /// Crossing-edge join steps, in execution order; empty for single-tree
  /// FLWORs and path queries, whose profiles are unchanged by them.
  std::vector<CrossJoinProfile> cross_joins;
  /// Snapshot of the engine's MetricsRegistry as a JSON object (empty
  /// unless EngineOptions::collect_metrics): counters plus histogram
  /// summaries with p50/p90/p99. Embedded verbatim by ToJson(); excluded
  /// from ToText(), which stays wall-clock-free.
  std::string metrics_json;

  void AddOperator(std::string label, int depth, const exec::ExecStats& s,
                   double estimated_rows = -1);

  /// \brief JSON object: {"query":..., "strategy":..., "threads":...,
  /// "total_wall_ms":..., "operators":[{...}, ...]}, plus
  /// "cross_joins":[{...}, ...] when there are any.
  std::string ToJson() const;

  /// \brief Deterministic text form (labels + Counters(), no wall times)
  /// — the cross-thread bitwise-identity surface.
  std::string ToText() const;
};

/// \brief Collects the profile of an executed plan: finishes every operator
/// tree (run-to-completion normalization), then walks the trees recording
/// labels, estimates, and counters; a merged shared scan contributes one
/// extra "MergedNokScan" entry. `query` labels the profile.
QueryProfile BuildQueryProfile(opt::QueryPlan* plan, std::string query,
                               unsigned threads);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_QUERY_PROFILE_H_
