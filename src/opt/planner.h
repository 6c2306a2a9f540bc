#ifndef BLOSSOMTREE_OPT_PLANNER_H_
#define BLOSSOMTREE_OPT_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/index_seek.h"
#include "exec/merged_scan.h"
#include "exec/nok_scan.h"
#include "exec/operator.h"
#include "exec/result_cache.h"
#include "index/structural_index.h"
#include "pattern/decompose.h"
#include "util/resource_guard.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace blossomtree {
namespace opt {

/// \brief Physical join strategy for the //-connections between NoKs.
enum class JoinStrategy {
  kAuto,             ///< Recursion-aware choice (paper §4.2/§4.3 and §5.2).
  kPipelined,        ///< Pipelined merge join — non-recursive documents only.
  kBoundedNestedLoop,///< BNLJ — correct everywhere, repeated bounded scans.
  kNaiveNestedLoop,  ///< Unbounded nested loop (full re-scan per outer
                     ///< match) — the strawman the BNLJ ablation compares
                     ///< against.
};

const char* JoinStrategyToString(JoinStrategy s);

struct PlanOptions {
  JoinStrategy strategy = JoinStrategy::kAuto;
  /// Evaluate all NoK scans of one document in a single merged pass
  /// (§4.2's merged-NoK optimization). Only applies with kPipelined /
  /// non-recursive kAuto plans (the BNLJ's inner must re-scan on demand).
  bool merge_nok_scans = false;
  /// Worker pool for intra-query parallelism (borrowed, not owned):
  /// full-document NoK scans run partitioned across it. nullptr = serial
  /// plan, bitwise-identical results either way.
  util::ThreadPool* pool = nullptr;
  /// Per-query resource guard (borrowed, not owned): when set, every
  /// physical operator in the plan samples it at batch boundaries and ends
  /// its stream early once it trips (DESIGN.md §9). Callers must check
  /// guard->status() after draining the plan; nullptr = ungoverned.
  util::ResourceGuard* guard = nullptr;
  /// Annotate every operator with a CostModel cardinality estimate (for
  /// EXPLAIN ANALYZE's est-vs-actual and the calibration check). Off by
  /// default: building the model forces tag-index construction, which would
  /// perturb benchmark timings.
  bool estimate_cardinalities = false;
  /// NoK sub-result cache (borrowed, not owned; DESIGN.md §11): when set,
  /// every full-document NokScanOperator in the plan probes it before
  /// scanning and fills it after a complete cold scan. nullptr = uncached
  /// (the exact pre-cache behavior, counters included).
  exec::NokResultCache* result_cache = nullptr;
  /// Paged node store backing `doc` (borrowed, not owned): an in-RAM
  /// storage::PageStore or an out-of-core storage::DiskStore. When set,
  /// every NoK scan in the plan touches visited nodes through it (per-scan
  /// cursors), so block residency and page-read counters reflect the
  /// query's real access pattern; scan partitioning also goes through the
  /// store. nullptr = scans run purely over the document.
  const storage::NodeStore* store = nullptr;
  /// Structural index over `doc` (borrowed, not owned; DESIGN.md §14): when
  /// set and structurally matching the document, the planner costs an
  /// index-seek access path against the sequential scan per NoK root using
  /// the index's real posting-list cardinalities, short-circuits NoKs whose
  /// mandatory paths the DataGuide proves absent to empty streams (zero
  /// nodes scanned), and feeds the value index's selectivities into
  /// cardinality estimation. Access-path changes never change results:
  /// seeks re-verify every candidate and emit the scan's exact stream.
  /// nullptr = every NoK scans (the exact pre-index behavior).
  const index::StructuralIndex* index = nullptr;
  /// Execution knobs (DESIGN.md §16): the batch size of GetNextBatch
  /// exchanges and the SIMD kernel toggle (`exec.simd`). Every combination
  /// produces byte-identical results and bitwise-identical deterministic
  /// counters.
  exec::ExecOptions exec;
};

/// \brief A compiled plan for one pattern tree of a BlossomTree.
///
/// Owns the operator tree. `root` emits the pattern tree's NestedLists;
/// `tops` is their slot context; `scans` exposes the underlying NoK scan
/// drivers for I/O metrics.
struct PatternTreePlan {
  std::unique_ptr<exec::NestedListOperator> root;
  std::vector<pattern::SlotId> tops;
  std::vector<exec::NokScanOperator*> scans;  ///< Borrowed from `root`.
  std::vector<exec::IndexSeekOperator*> seeks;  ///< Borrowed from `root`.
  std::string explain;

  uint64_t TotalNodesScanned() const {
    uint64_t total = 0;
    for (const auto* s : scans) total += s->NodesScanned();
    for (const auto* s : seeks) total += s->NodesScanned();
    return total;
  }
};

/// \brief The plan for a whole BlossomTree: one PatternTreePlan per pattern
/// tree (FLWOR queries have several; path queries exactly one).
struct QueryPlan {
  const pattern::BlossomTree* tree = nullptr;
  pattern::Decomposition decomposition;
  std::vector<PatternTreePlan> trees;
  JoinStrategy chosen = JoinStrategy::kPipelined;
  /// Set when merge_nok_scans produced a shared single-scan (its
  /// NodesScanned() is the plan's scan I/O in that case).
  std::unique_ptr<exec::MergedNokScan> merged_scan;

  std::string Explain() const;

  /// \brief Runs every operator tree to completion (children included).
  /// Call before reading counters: it normalizes lazy serial pipelines and
  /// eagerly-materializing parallel scans to the same run-to-completion
  /// totals (DESIGN.md §8), so profiles are identical at every thread
  /// count. Idempotent on drained plans; invalidates further GetNext use.
  void FinishAll();

  /// \brief EXPLAIN ANALYZE rendering: the Explain() tree re-annotated with
  /// each operator's estimated cardinality (when planned with
  /// estimate_cardinalities) and actual counters. Call after FinishAll()
  /// for complete totals.
  std::string ExplainAnalyze() const;
};

/// \brief Depth-first pre-order walk over every operator of every pattern
/// tree in the plan.
void ForEachOperator(
    const QueryPlan& plan,
    const std::function<void(const exec::NestedListOperator&, int depth)>&
        fn);

/// \brief The rule-based optimizer (paper §5: "the optimizer needs to have
/// the knowledge of how recursive the input XML document is"):
///  - decomposes the BlossomTree into NoKs (Algorithm 1),
///  - drops the trivial virtual-root NoKs and their //-connections (a full
///    sequential scan subsumes them),
///  - for each remaining //-connection picks the join: pipelined on
///    non-recursive documents, bounded nested-loop otherwise,
///  - optionally merges all root NoK scans into one pass.
/// \param precomputed optional Decomposition of `tree` (e.g. from the plan
///        cache): copied into the plan instead of re-running Algorithm 1.
///        Must have been produced by pattern::Decompose(*tree).
Result<QueryPlan> PlanQuery(const xml::Document* doc,
                            const pattern::BlossomTree* tree,
                            const PlanOptions& options = {},
                            const pattern::Decomposition* precomputed =
                                nullptr);

/// \brief Convenience for path queries (single pattern tree, result bound
/// to the "result" variable): plans, executes, and returns the distinct
/// document-ordered matches.
Result<std::vector<xml::NodeId>> EvaluatePathQuery(
    const xml::Document* doc, const pattern::BlossomTree* tree,
    const PlanOptions& options = {});

}  // namespace opt
}  // namespace blossomtree

#endif  // BLOSSOMTREE_OPT_PLANNER_H_
