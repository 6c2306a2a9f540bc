#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "engine/binder.h"
#include "engine/cross_join.h"
#include "engine/where_eval.h"
#include "nestedlist/ops.h"
#include "exec/operator.h"
#include "flwor/parser.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "util/trace.h"

namespace blossomtree {
namespace engine {

BlossomTreeEngine::BlossomTreeEngine(const xml::Document* doc,
                                     EngineOptions options)
    : doc_(doc), options_(std::move(options)), guard_(options_.limits) {
  options_.plan.guard = &guard_;
  unsigned threads = options_.num_threads == 0
                         ? static_cast<unsigned>(
                               util::ThreadPool::DefaultThreads())
                         : options_.num_threads;
  if (threads > 1 && options_.plan.pool == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(threads);
    options_.plan.pool = pool_.get();
  }
  if (options_.shared_plan_cache != nullptr) {
    // Borrowed corpus-scope cache (DESIGN.md §12): shared across engines,
    // so this engine creates none of its own.
    active_plan_cache_ = options_.shared_plan_cache;
  } else if (options_.plan_cache.enabled) {
    plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache);
    active_plan_cache_ = plan_cache_.get();
  }
  if (options_.result_cache.enabled && options_.plan.result_cache == nullptr) {
    result_cache_ = std::make_unique<exec::NokResultCache>(
        options_.result_cache);
    options_.plan.result_cache = result_cache_.get();
  }
  // Tracing is process-wide (spans land in per-thread rings regardless of
  // which engine issued them); any engine asking for it turns it on. An
  // already-running capture is left alone — Enable() restarts the capture,
  // which would drop spans a caller recorded before constructing the
  // engine (e.g. a CLI tracing its own query parse).
  if (options_.trace && !util::Tracer::Get().enabled()) {
    util::Tracer::Get().Enable();
  }
}

namespace {

/// Wall-clock nanoseconds since `start` — histogram fodder, never part of
/// the deterministic counter surface.
uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Result<std::string> BlossomTreeEngine::EvaluateQuery(std::string_view query) {
  // Plan-cache level 1: verbatim query text → parsed AST. A hit skips the
  // parser entirely (and records no query.parse_ns sample — there was no
  // parse). Parse failures are never cached: the error re-surfaces each time.
  std::shared_ptr<const flwor::Expr> expr;
  if (active_plan_cache_ != nullptr) {
    util::TraceSpan lookup("cache", "plan.parsed.lookup");
    expr = active_plan_cache_->GetParsed(std::string(query));
  }
  if (expr == nullptr) {
    auto parse_start = std::chrono::steady_clock::now();
    BT_ASSIGN_OR_RETURN(
        std::unique_ptr<flwor::Expr> parsed,
        flwor::ParseQuery(query, options_.limits.ToParseLimits()));
    if (options_.collect_metrics) {
      metrics_.GetHistogram("query.parse_ns")->Record(NanosSince(parse_start));
    }
    expr = std::shared_ptr<const flwor::Expr>(std::move(parsed));
    if (active_plan_cache_ != nullptr) {
      active_plan_cache_->PutParsed(std::string(query), expr);
    }
  }
  return EvaluateToXml(*expr);
}

Result<std::string> BlossomTreeEngine::EvaluateToXml(
    const flwor::Expr& expr) {
  util::TraceSpan span("engine", "query");
  auto start = std::chrono::steady_clock::now();
  guard_.Arm();  // The deadline clock starts here, not at construction.
  ResultBuilder out(doc_);
  BT_RETURN_NOT_OK(EvalExpr(expr, Env{}, &out));
  if (guard_.Tripped()) return guard_.status();
  Result<std::string> xml = out.ToXml();
  if (options_.collect_metrics) {
    FoldCacheMetrics();
    metrics_.GetCounter("engine.queries")->Increment();
    metrics_.GetHistogram("query.wall_ns")->Record(NanosSince(start));
    // Re-snapshot so the profile's embedded registry includes the
    // query-level counters recorded just now, not only the per-operator
    // ones folded in by CollectProfile.
    if (options_.collect_profile) last_profile_.metrics_json = metrics_.ToJson();
  }
  return xml;
}

Result<std::vector<xml::NodeId>> BlossomTreeEngine::EvaluatePath(
    const xpath::PathExpr& path) {
  util::TraceSpan span("engine", "path");
  auto start = std::chrono::steady_clock::now();
  guard_.Arm();
  BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> out, EvalPathPlan(path));
  if (guard_.Tripped()) return guard_.status();
  if (options_.collect_metrics) {
    FoldCacheMetrics();
    metrics_.GetCounter("engine.path_queries")->Increment();
    metrics_.GetCounter("engine.path_result_nodes")
        ->Add(static_cast<uint64_t>(out.size()));
    metrics_.GetHistogram("query.wall_ns")->Record(NanosSince(start));
    if (options_.collect_profile) last_profile_.metrics_json = metrics_.ToJson();
  }
  return out;
}

Result<std::vector<xml::NodeId>> BlossomTreeEngine::EvalPathPlan(
    const xpath::PathExpr& path) {
  // Plan-cache level 2: canonical path fingerprint → compiled BlossomTree +
  // decomposition. The navigational fallback below produces no compiled
  // artifact and is never cached.
  std::shared_ptr<const CompiledPath> compiled;
  std::string key;
  if (active_plan_cache_ != nullptr) {
    key = CanonicalPathKey(path);
    util::TraceSpan lookup("cache", "plan.path.lookup");
    compiled = active_plan_cache_->GetPath(key);
  }
  if (compiled == nullptr) {
    auto built = pattern::BuildFromPath(path);
    if (!built.ok()) {
      if (built.status().code() == StatusCode::kUnsupported) {
        // Constructs outside the BlossomTree subset (e.g. reverse axes)
        // degrade gracefully to navigational evaluation.
        PathEvaluator ev(doc_);
        last_explain_ =
            "navigational fallback (" + built.status().message() + ")\n";
        return ev.Evaluate(path);
      }
      return built.status();
    }
    auto fresh = std::make_shared<CompiledPath>();
    fresh->tree = built.MoveValue();
    fresh->decomposition = pattern::Decompose(fresh->tree);
    if (active_plan_cache_ != nullptr) active_plan_cache_->PutPath(key, fresh);
    compiled = std::move(fresh);
  }
  const pattern::BlossomTree& tree = compiled->tree;
  BT_ASSIGN_OR_RETURN(opt::QueryPlan plan,
                      opt::PlanQuery(doc_, &tree, options_.plan,
                                     &compiled->decomposition));
  last_explain_ = plan.Explain();
  pattern::SlotId result = tree.SlotOfVariable("result");
  std::vector<xml::NodeId> out;
  // Batch-at-a-time drain (DESIGN.md §16): one virtual call and one trace
  // span per batch instead of per row.
  exec::Batch batch;
  size_t batch_rows = exec::ClampBatchRows(options_.plan.exec.batch_rows);
  while (plan.trees[0].root->GetNextBatch(&batch, batch_rows) > 0) {
    for (const nestedlist::NestedList& nl : batch.rows) {
      auto part = nestedlist::Project(tree, plan.trees[0].tops, nl, result);
      out.insert(out.end(), part.begin(), part.end());
    }
  }
  // Tripped operators end their streams early; refuse to pass the partial
  // result off as complete.
  if (guard_.Tripped()) return guard_.status();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (!guard_.ChargeRows(out.size())) return guard_.status();
  CollectProfile(&plan, path.ToString());
  return out;
}

void BlossomTreeEngine::CollectProfile(opt::QueryPlan* plan,
                                       const std::string& label) {
  if (!options_.collect_profile && !options_.collect_metrics) return;
  QueryProfile profile = BuildQueryProfile(plan, label, EffectiveThreads());
  if (options_.collect_metrics) {
    // Fold deterministic per-operator counters into the registry — with or
    // without profile collection, so `--metrics` alone sees exec.* totals.
    for (const OperatorProfile& op : profile.operators) {
      metrics_.GetCounter("exec.rows")->Add(op.stats.matches);
      metrics_.GetCounter("exec.nodes_scanned")->Add(op.stats.nodes_scanned);
      metrics_.GetCounter("exec.comparisons")->Add(op.stats.comparisons);
      metrics_.GetCounter("exec.nl_cells")->Add(op.stats.nl_cells);
    }
  }
  if (!options_.collect_profile) return;
  last_profile_ = std::move(profile);
  last_explain_analyze_ = plan->ExplainAnalyze();
  if (options_.collect_metrics) {
    // Attach a registry snapshot (histogram summaries included) to the
    // profile's JSON form.
    last_profile_.metrics_json = metrics_.ToJson();
  }
}

Status BlossomTreeEngine::EvalExpr(const flwor::Expr& expr, const Env& env,
                                   ResultBuilder* out) {
  switch (expr.kind) {
    case flwor::Expr::Kind::kPath: {
      std::vector<xml::NodeId> nodes;
      if (env.empty() &&
          expr.path.start == xpath::PathExpr::StartKind::kRoot) {
        // Free-standing absolute path: use the BlossomTree plan. The guard
        // is already armed by the top-level entry point — EvaluatePath
        // would restart the deadline mid-query.
        BT_ASSIGN_OR_RETURN(nodes, EvalPathPlan(expr.path));
      } else {
        // Variable-/context-rooted paths are evaluated from the bindings.
        PathEvaluator ev(doc_);
        BT_ASSIGN_OR_RETURN(nodes, ev.EvaluateWith(expr.path, env, {}));
      }
      for (xml::NodeId n : nodes) out->CopyNode(n);
      return Status::OK();
    }
    case flwor::Expr::Kind::kConstructor: {
      out->BeginElement(expr.ctor->name);
      for (const auto& [name, value] : expr.ctor->attributes) {
        out->AddAttribute(name, value);
      }
      for (const flwor::ConstructorItem& item : expr.ctor->items) {
        if (item.kind == flwor::ConstructorItem::Kind::kText) {
          out->AddText(item.text);
        } else {
          BT_RETURN_NOT_OK(EvalExpr(*item.expr, env, out));
        }
      }
      out->EndElement();
      return Status::OK();
    }
    case flwor::Expr::Kind::kFlwor:
      return EvalFlwor(*expr.flwor, env, out);
  }
  return Status::Internal("unhandled expression kind");
}

Status BlossomTreeEngine::EvalFlwor(const flwor::Flwor& flwor, const Env& env,
                                    ResultBuilder* out) {
  std::vector<Env> tuples;
  if (env.empty()) {
    auto r = FlworTuples(flwor);
    if (!r.ok() && r.status().code() == StatusCode::kUnsupported) {
      // Bindings outside the BlossomTree subset (e.g. reverse axes):
      // degrade to per-iteration evaluation.
      PathEvaluator ev(doc_);
      BT_ASSIGN_OR_RETURN(tuples, NaiveFlworTuples(flwor, env, &ev, &guard_));
    } else {
      BT_RETURN_NOT_OK(r.status());
      tuples = r.MoveValue();
    }
  } else {
    // Nested FLWOR with free variables from the enclosing scope: fall back
    // to per-iteration evaluation under the outer bindings.
    PathEvaluator ev(doc_);
    BT_ASSIGN_OR_RETURN(tuples, NaiveFlworTuples(flwor, env, &ev, &guard_));
  }
  return EmitTuples(flwor, std::move(tuples), out);
}

Result<std::shared_ptr<const CompiledFlwor>> BlossomTreeEngine::CompileFlwor(
    const flwor::Flwor& flwor) {
  // Plan-cache level 2: canonical FLWOR fingerprint → BlossomTree +
  // decomposition + slot bindings. Build failures (e.g. kUnsupported, which
  // FlworTuples' caller turns into the naive fallback) are never cached.
  std::string key;
  if (active_plan_cache_ != nullptr) {
    key = CanonicalFlworKey(flwor);
    util::TraceSpan lookup("cache", "plan.flwor.lookup");
    std::shared_ptr<const CompiledFlwor> hit = active_plan_cache_->GetFlwor(key);
    if (hit != nullptr) return hit;
  }
  auto compiled = std::make_shared<CompiledFlwor>();
  BT_ASSIGN_OR_RETURN(compiled->tree, pattern::BuildFromFlwor(flwor));
  compiled->decomposition = pattern::Decompose(compiled->tree);
  compiled->bindings = ComputeSlotBindings(compiled->tree, flwor);
  if (active_plan_cache_ != nullptr) active_plan_cache_->PutFlwor(key, compiled);
  return std::shared_ptr<const CompiledFlwor>(std::move(compiled));
}

void BlossomTreeEngine::FoldCacheMetrics() {
  auto fold = [this](const char* which, const util::CacheStats& now,
                     util::CacheStats* last) {
    std::string prefix = std::string("cache.") + which;
    metrics_.GetCounter(prefix + ".hits")->Add(now.hits - last->hits);
    metrics_.GetCounter(prefix + ".misses")->Add(now.misses - last->misses);
    metrics_.GetCounter(prefix + ".evictions")
        ->Add(now.evictions - last->evictions);
    // Occupancy is a gauge, not a monotonic counter: overwrite in place.
    util::Counter* bytes = metrics_.GetCounter(prefix + ".bytes");
    bytes->Reset();
    bytes->Add(now.bytes);
    util::Counter* entries = metrics_.GetCounter(prefix + ".entries");
    entries->Reset();
    entries->Add(now.entries);
    *last = now;
  };
  if (active_plan_cache_ != nullptr) {
    fold("plan", active_plan_cache_->Stats(), &folded_plan_stats_);
  }
  if (options_.plan.result_cache != nullptr) {
    // The effective cache: owned or borrowed (corpus-scope). With a shared
    // cache the deltas cover all engines' activity since this engine's
    // last fold — corpus-wide totals, which is what a service wants.
    fold("result", options_.plan.result_cache->Stats(), &folded_result_stats_);
  }
}

Result<std::vector<Env>> BlossomTreeEngine::FlworTuples(
    const flwor::Flwor& flwor) {
  util::TraceSpan span("engine", "flwor-tuples");
  BT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledFlwor> compiled,
                      CompileFlwor(flwor));
  const pattern::BlossomTree& tree = compiled->tree;
  BT_ASSIGN_OR_RETURN(opt::QueryPlan plan,
                      opt::PlanQuery(doc_, &tree, options_.plan,
                                     &compiled->decomposition));
  last_explain_ = plan.Explain();
  const std::vector<SlotBinding>& bindings = compiled->bindings;
  // Per pattern tree: drain the plan, expand bindings.
  std::vector<std::vector<Env>> per_tree;
  for (opt::PatternTreePlan& tp : plan.trees) {
    std::vector<nestedlist::NestedList> lists = exec::Drain(tp.root.get());
    if (guard_.Tripped()) return guard_.status();
    per_tree.push_back(EnumerateBindings(tree, tp.tops, lists, bindings));
  }
  CollectProfile(&plan, "flwor");
  if (per_tree.size() > 1) return JoinTrees(flwor, tree, per_tree);
  // One pattern tree: no crossing edges; the where-clause filters the
  // tree's own tuples.
  std::vector<Env> tuples = std::move(per_tree[0]);
  if (!guard_.ChargeRows(tuples.size())) return guard_.status();
  if (flwor.where != nullptr) {
    PathEvaluator ev(doc_);
    std::vector<Env> kept;
    uint64_t filtered = 0;
    for (Env& t : tuples) {
      if ((++filtered & 0x1FF) == 0 && !guard_.Check()) {
        return guard_.status();
      }
      BT_ASSIGN_OR_RETURN(bool ok, EvalWhere(*flwor.where, t, *doc_, &ev));
      if (ok) kept.push_back(std::move(t));
    }
    tuples = std::move(kept);
  }
  return tuples;
}

Result<std::vector<Env>> BlossomTreeEngine::JoinTrees(
    const flwor::Flwor& flwor, const pattern::BlossomTree& tree,
    const std::vector<std::vector<Env>>& per_tree) {
  // Crossing edges (<<, value joins, deep-equal, is) between pattern trees
  // are joins over the trees' binding tuples (paper §4.3, DESIGN.md §17).
  CrossJoinPlan joins = PlanCrossJoins(flwor, tree);
  last_explain_ += joins.Explain();
  std::vector<CrossJoinProfile> steps;
  Result<std::vector<Env>> tuples = [&] {
    util::TraceSpan span("engine", "cross-join");
    return ExecuteCrossJoins(joins, per_tree, *doc_, &guard_, &steps);
  }();
  if (options_.collect_metrics) {
    for (const CrossJoinProfile& s : steps) {
      metrics_.GetCounter("engine.cross_join.build_rows")->Add(s.build_rows);
      metrics_.GetCounter("engine.cross_join.probe_rows")->Add(s.probe_rows);
      metrics_.GetCounter("engine.cross_join.candidate_pairs")
          ->Add(s.candidate_pairs);
      metrics_.GetCounter("engine.cross_join.emitted")->Add(s.emitted);
    }
  }
  if (options_.collect_profile) {
    last_explain_analyze_ += "crossing-edge joins:\n";
    for (const CrossJoinProfile& s : steps) {
      char wall[32];
      std::snprintf(wall, sizeof(wall), " wall=%.3fms",
                    static_cast<double>(s.wall_nanos) / 1e6);
      last_explain_analyze_ += "  " + s.label + "  " + s.Counters() + wall +
                               "\n";
    }
    last_profile_.cross_joins = std::move(steps);
  }
  return tuples;
}

Status BlossomTreeEngine::EmitTuples(const flwor::Flwor& flwor,
                                     std::vector<Env> tuples,
                                     ResultBuilder* out) {
  util::TraceSpan span("engine", "emit");
  if (options_.collect_metrics) {
    metrics_.GetCounter("engine.flwor_tuples")
        ->Add(static_cast<uint64_t>(tuples.size()));
  }
  if (flwor.order_by.has_value()) {
    PathEvaluator ev(doc_);
    std::vector<std::pair<std::string, size_t>> keys;
    keys.reserve(tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i) {
      BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                          ev.EvaluateWith(*flwor.order_by, tuples[i], {}));
      keys.emplace_back(nodes.empty() ? "" : doc_->StringValue(nodes[0]), i);
    }
    std::stable_sort(keys.begin(), keys.end(),
                     [&](const auto& a, const auto& b) {
                       return flwor.order_descending ? a.first > b.first
                                                     : a.first < b.first;
                     });
    std::vector<Env> ordered;
    ordered.reserve(tuples.size());
    for (const auto& [key, idx] : keys) {
      ordered.push_back(std::move(tuples[idx]));
    }
    tuples = std::move(ordered);
  }
  uint64_t emitted = 0;
  for (const Env& t : tuples) {
    if ((++emitted & 0xFF) == 0 && !guard_.Check()) return guard_.status();
    BT_RETURN_NOT_OK(EvalExpr(*flwor.ret, t, out));
  }
  return Status::OK();
}

Result<std::vector<Env>> NaiveFlworTuples(const flwor::Flwor& flwor,
                                          const Env& base_env,
                                          PathEvaluator* evaluator,
                                          util::ResourceGuard* guard) {
  std::vector<Env> tuples = {base_env};
  for (const flwor::Binding& b : flwor.bindings) {
    std::vector<Env> next;
    for (const Env& t : tuples) {
      // Each iteration re-runs a full path evaluation, so one guard sample
      // per iteration is already amortized.
      if (guard != nullptr && !guard->Check()) return guard->status();
      // The path expression is re-evaluated for every iteration of the
      // enclosing loop — the inefficiency BlossomTree eliminates.
      BT_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                          evaluator->EvaluateWith(b.path, t, {}));
      // Every tuple is charged as a result row before it is appended, so
      // the row cap bounds the binding loop's memory too.
      if (b.kind == flwor::Binding::Kind::kLet) {
        if (guard != nullptr && !guard->ChargeRows(1)) return guard->status();
        Env env = t;
        env[b.var] = std::move(nodes);
        next.push_back(std::move(env));
      } else {
        if (guard != nullptr && !guard->ChargeRows(nodes.size())) {
          return guard->status();
        }
        for (xml::NodeId n : nodes) {
          Env env = t;
          env[b.var] = {n};
          next.push_back(std::move(env));
        }
      }
    }
    tuples = std::move(next);
  }
  if (flwor.where != nullptr) {
    std::vector<Env> kept;
    uint64_t filtered = 0;
    for (Env& t : tuples) {
      if (guard != nullptr && (++filtered & 0x1FF) == 0 && !guard->Check()) {
        return guard->status();
      }
      BT_ASSIGN_OR_RETURN(
          bool ok, EvalWhere(*flwor.where, t, *evaluator->doc(), evaluator));
      if (ok) kept.push_back(std::move(t));
    }
    tuples = std::move(kept);
  }
  return tuples;
}

}  // namespace engine
}  // namespace blossomtree
