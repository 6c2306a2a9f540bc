#ifndef BLOSSOMTREE_ENGINE_ENGINE_H_
#define BLOSSOMTREE_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/construct.h"
#include "engine/path_eval.h"
#include "engine/plan_cache.h"
#include "engine/query_profile.h"
#include "exec/result_cache.h"
#include "flwor/ast.h"
#include "opt/planner.h"
#include "util/cache.h"
#include "util/metrics.h"
#include "util/resource_guard.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace blossomtree {
namespace engine {

/// \brief Options for the BlossomTree engine.
struct EngineOptions {
  opt::PlanOptions plan;
  /// Intra-query parallelism: worker threads for partitioned NoK scans and
  /// structural joins. 0 = hardware concurrency; 1 = the exact serial code
  /// path (no thread pool is created — the configuration bitwise-comparison
  /// tests pin against). Results are byte-identical at every setting.
  unsigned num_threads = 0;
  /// Collect a per-operator QueryProfile (and EXPLAIN ANALYZE text) for
  /// every planned query. Profiling runs every plan to completion after the
  /// result is drained, so enabling it changes timings but never results.
  bool collect_profile = false;
  /// Enable query-lifecycle tracing (DESIGN.md §10): the engine turns on
  /// the process-wide util::Tracer at construction, so every span from
  /// parse to per-operator GetNext batches is recorded and exportable as
  /// Chrome trace_event JSON via util::Tracer::ExportJsonFile(). When off
  /// (the default) every instrumentation point reduces to one relaxed
  /// atomic load. Tracing never changes results.
  bool trace = false;
  /// Populate the engine's MetricsRegistry with per-query counters and
  /// latency histograms (query.wall_ns, query.parse_ns, ...), and attach a
  /// registry snapshot to QueryProfile::ToJson(). Counter text
  /// (MetricsRegistry::CountersText) stays bitwise-identical across thread
  /// counts; wall-clock values live only in histograms. Like
  /// collect_profile, this runs every plan to completion after the result
  /// is drained (so exec.* totals are consumption-independent) — timings
  /// change, results never do.
  bool collect_metrics = false;
  /// Per-query resource limits (DESIGN.md §9): wall-clock deadline,
  /// NestedList cell/byte budget, result-row cap, and parser depth / input
  /// size caps. The engine arms its guard with these at the start of every
  /// top-level evaluation; an over-limit query returns kResourceExhausted
  /// (kCancelled for Cancel()) instead of a truncated result. Defaults are
  /// unlimited, which preserves the exact ungoverned behavior.
  util::QueryLimits limits;
  /// Plan cache (DESIGN.md §11): query text → parsed AST and canonical
  /// FLWOR/path fingerprint → compiled BlossomTree + decomposition +
  /// bindings. OFF by default — with it off every code path, counter, and
  /// profile is bitwise-identical to the pre-cache engine. Caching never
  /// changes results: cached artifacts are pure functions of the query.
  util::CacheOptions plan_cache;
  /// NoK sub-result cache (DESIGN.md §11): (document generation, canonical
  /// NoK, node range) → materialized match NestedLists, shared by every
  /// full-document NoK scan the engine plans. OFF by default. A hit replays
  /// exactly what a cold scan of the same range would emit, so results stay
  /// byte-identical at every thread count.
  util::CacheOptions result_cache;
  /// Corpus-scope plan cache (DESIGN.md §12), borrowed and shared across
  /// engines: when non-null the engine uses it instead of creating its own
  /// from `plan_cache` above (which is then ignored). Compiled plans are
  /// pure functions of the query text, so sharing one cache across every
  /// session and document of a service is sound; PlanCache is thread-safe.
  /// The corpus-scope NoK result cache has no separate knob — it rides the
  /// existing borrowed `plan.result_cache` pointer the same way.
  PlanCache* shared_plan_cache = nullptr;
};

/// \brief End-to-end query evaluation via BlossomTree pattern matching:
/// FLWOR → BlossomTree → NoK decomposition → (merged) NoK scans +
/// structural joins → NestedLists → variable binding (Env) → where
/// filtering → ordering → result construction.
class BlossomTreeEngine {
 public:
  explicit BlossomTreeEngine(const xml::Document* doc,
                             EngineOptions options = {});

  /// \brief Evaluates a parsed query expression to serialized XML (a
  /// sequence of elements / copied nodes).
  Result<std::string> EvaluateToXml(const flwor::Expr& expr);

  /// \brief Parses and evaluates a query string.
  Result<std::string> EvaluateQuery(std::string_view query);

  /// \brief Evaluates a path query to its distinct document-ordered node
  /// matches via the BlossomTree plan.
  Result<std::vector<xml::NodeId>> EvaluatePath(const xpath::PathExpr& path);

  /// \brief EXPLAIN text of the most recent FLWOR/path plan.
  const std::string& LastExplain() const { return last_explain_; }

  /// \brief EXPLAIN ANALYZE text of the most recent plan (empty unless
  /// EngineOptions::collect_profile): the plan tree annotated with each
  /// operator's estimated and actual cardinalities and counters.
  const std::string& LastExplainAnalyze() const {
    return last_explain_analyze_;
  }

  /// \brief Per-operator profile of the most recent plan (empty unless
  /// EngineOptions::collect_profile).
  const QueryProfile& LastProfile() const { return last_profile_; }

  /// \brief The resolved degree of intra-query parallelism (1 = serial).
  unsigned EffectiveThreads() const {
    return pool_ != nullptr ? static_cast<unsigned>(pool_->NumThreads()) : 1;
  }

  /// \brief Requests cooperative cancellation of the in-flight query (safe
  /// from any thread). Operators observe the token at their next batch
  /// boundary and the query returns kCancelled. The flag is cleared when
  /// the next top-level evaluation arms the guard.
  void Cancel() { guard_.token()->Cancel(); }

  /// \brief The engine's per-query resource guard (counters, trip status).
  const util::ResourceGuard& guard() const { return guard_; }

  /// \brief The engine's metrics registry (counters + latency histograms).
  /// Populated only when EngineOptions::collect_metrics; always readable.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

  /// \brief The effective plan cache (owned or shared); nullptr when
  /// caching is off.
  PlanCache* plan_cache() { return active_plan_cache_; }

  /// \brief The effective NoK sub-result cache (owned or shared); nullptr
  /// when caching is off.
  exec::NokResultCache* result_cache() { return options_.plan.result_cache; }

 private:
  /// EvaluatePath minus the guard arming: used for top-level paths and for
  /// paths nested inside an already-armed evaluation (re-arming would
  /// restart the deadline mid-query).
  Result<std::vector<xml::NodeId>> EvalPathPlan(const xpath::PathExpr& path);
  Status EvalExpr(const flwor::Expr& expr, const Env& env,
                  ResultBuilder* out);
  Status EvalFlwor(const flwor::Flwor& flwor, const Env& env,
                   ResultBuilder* out);
  Result<std::vector<Env>> FlworTuples(const flwor::Flwor& flwor);
  /// Joins the binding tuples of a multi-tree FLWOR's pattern trees
  /// (PlanCrossJoins + ExecuteCrossJoins), appending the join plan to
  /// EXPLAIN and folding the join steps into the profile/metrics.
  Result<std::vector<Env>> JoinTrees(
      const flwor::Flwor& flwor, const pattern::BlossomTree& tree,
      const std::vector<std::vector<Env>>& per_tree);
  Status EmitTuples(const flwor::Flwor& flwor, std::vector<Env> tuples,
                    ResultBuilder* out);
  /// Finishes the executed plan and snapshots last_profile_ /
  /// last_explain_analyze_ (no-op unless collect_profile).
  void CollectProfile(opt::QueryPlan* plan, const std::string& label);
  /// Compiles `flwor` (BlossomTree + decomposition + slot bindings) through
  /// the plan cache when enabled, building uncached otherwise.
  Result<std::shared_ptr<const CompiledFlwor>> CompileFlwor(
      const flwor::Flwor& flwor);
  /// Folds cache counters into the metrics registry: hits/misses/evictions
  /// as deltas since the last fold, bytes/entries as gauges (no-op unless
  /// collect_metrics and at least one cache is enabled).
  void FoldCacheMetrics();

  const xml::Document* doc_;
  EngineOptions options_;
  /// Engine-owned guard; options_.plan.guard borrows it so every physical
  /// operator in every plan samples the same trip flag.
  util::ResourceGuard guard_;
  /// Owned worker pool when num_threads resolves above 1; options_.plan.pool
  /// borrows it for the lifetime of the engine.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Engine-owned metrics: deterministic counters plus latency histograms
  /// (DESIGN.md §10). Snapshotted into QueryProfile when collect_metrics.
  util::MetricsRegistry metrics_;
  /// Owned caches (DESIGN.md §11), created only when the corresponding
  /// EngineOptions knob is enabled and no shared instance was borrowed;
  /// options_.plan.result_cache borrows result_cache_ so every planned NoK
  /// scan shares it.
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<exec::NokResultCache> result_cache_;
  /// The cache every lookup goes through: the borrowed corpus-scope cache
  /// when EngineOptions::shared_plan_cache is set, else plan_cache_.get().
  PlanCache* active_plan_cache_ = nullptr;
  /// Stats snapshots at the last FoldCacheMetrics, for delta folding of the
  /// monotonic cache counters.
  util::CacheStats folded_plan_stats_;
  util::CacheStats folded_result_stats_;
  std::string last_explain_;
  std::string last_explain_analyze_;
  QueryProfile last_profile_;
};

/// \brief FLWOR tuple enumeration by naive per-iteration path evaluation —
/// the semantics-following strategy the paper's introduction warns about.
/// Used by the navigational baseline and for nested FLWORs with free
/// variables.
Result<std::vector<Env>> NaiveFlworTuples(const flwor::Flwor& flwor,
                                          const Env& base_env,
                                          PathEvaluator* evaluator,
                                          util::ResourceGuard* guard = nullptr);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_ENGINE_H_
