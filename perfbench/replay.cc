#include "replay.h"

#include <algorithm>
#include <utility>

#include "engine/binder.h"
#include "engine/engine.h"
#include "engine/query_profile.h"
#include "engine/where_eval.h"
#include "exec/batch.h"
#include "exec/operator.h"
#include "flwor/parser.h"
#include "nestedlist/ops.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"

namespace perfbench {

namespace bt = blossomtree;
using bt::Result;
using bt::Status;
using bt::StatusCode;
using bt::engine::ResultBuilder;

Replayer::Replayer(const bt::xml::Document* doc, ReplayOptions options,
                   SpanLog* log)
    : doc_(doc), options_(std::move(options)), log_(log) {
  options_.plan.guard = &guard_;
}

Result<std::string> Replayer::Run(std::string_view query) {
  log_->BeginQuery();
  ScopedSpan root(log_, "query");
  std::shared_ptr<const bt::flwor::Expr> expr;
  if (options_.plan_cache != nullptr) {
    ScopedSpan span(log_, "engine.plan_cache");
    expr = options_.plan_cache->GetParsed(std::string(query));
  }
  if (expr == nullptr) {
    std::unique_ptr<bt::flwor::Expr> parsed;
    {
      ScopedSpan span(log_, "flwor.parse");
      BT_ASSIGN_OR_RETURN(parsed,
                          bt::flwor::ParseQuery(
                              query, guard_.limits().ToParseLimits()));
    }
    expr = std::shared_ptr<const bt::flwor::Expr>(std::move(parsed));
    if (options_.plan_cache != nullptr) {
      ScopedSpan span(log_, "engine.plan_cache");
      options_.plan_cache->PutParsed(std::string(query), expr);
    }
  }
  guard_.Arm();
  ResultBuilder out(doc_);
  BT_RETURN_NOT_OK(EvalExpr(*expr, Env{}, &out));
  if (guard_.Tripped()) return guard_.status();
  Result<std::string> xml = std::string{};
  {
    ScopedSpan span(log_, "engine.serialize");
    xml = out.ToXml();
  }
  if (xml.ok()) log_->AddCount("engine.out_bytes", xml->size());
  return xml;
}

Status Replayer::EvalExpr(const bt::flwor::Expr& expr, const Env& env,
                          ResultBuilder* out) {
  switch (expr.kind) {
    case bt::flwor::Expr::Kind::kPath: {
      NodeIds nodes;
      if (env.empty() &&
          expr.path.start == bt::xpath::PathExpr::StartKind::kRoot) {
        BT_ASSIGN_OR_RETURN(nodes, EvalPathPlan(expr.path));
      } else {
        bt::engine::PathEvaluator ev(doc_);
        BT_ASSIGN_OR_RETURN(nodes, ev.EvaluateWith(expr.path, env, {}));
      }
      ScopedSpan span(Spans(), "engine.serialize");
      for (bt::xml::NodeId n : nodes) out->CopyNode(n);
      return Status::OK();
    }
    case bt::flwor::Expr::Kind::kConstructor: {
      out->BeginElement(expr.ctor->name);
      for (const auto& [name, value] : expr.ctor->attributes) {
        out->AddAttribute(name, value);
      }
      for (const bt::flwor::ConstructorItem& item : expr.ctor->items) {
        if (item.kind == bt::flwor::ConstructorItem::Kind::kText) {
          out->AddText(item.text);
        } else {
          BT_RETURN_NOT_OK(EvalExpr(*item.expr, env, out));
        }
      }
      out->EndElement();
      return Status::OK();
    }
    case bt::flwor::Expr::Kind::kFlwor:
      return EvalFlwor(*expr.flwor, env, out);
  }
  return Status::Internal("unhandled expression kind");
}

Result<Replayer::NodeIds> Replayer::EvalPathPlan(
    const bt::xpath::PathExpr& path) {
  std::shared_ptr<const bt::engine::CompiledPath> compiled;
  std::string key;
  if (options_.plan_cache != nullptr) {
    ScopedSpan span(Spans(), "engine.plan_cache");
    key = bt::engine::CanonicalPathKey(path);
    compiled = options_.plan_cache->GetPath(key);
  }
  if (compiled == nullptr) {
    std::shared_ptr<bt::engine::CompiledPath> fresh;
    {
      ScopedSpan span(Spans(), "pattern.compile");
      auto built = bt::pattern::BuildFromPath(path);
      if (!built.ok()) {
        if (built.status().code() != StatusCode::kUnsupported) {
          return built.status();
        }
        fresh = nullptr;
      } else {
        fresh = std::make_shared<bt::engine::CompiledPath>();
        fresh->tree = built.MoveValue();
        fresh->decomposition = bt::pattern::Decompose(fresh->tree);
      }
    }
    if (fresh == nullptr) {
      // Outside the BlossomTree subset: the engine's navigational fallback.
      ScopedSpan span(Spans(), "engine.path_eval");
      bt::engine::PathEvaluator ev(doc_);
      return ev.Evaluate(path);
    }
    if (options_.plan_cache != nullptr) {
      ScopedSpan span(Spans(), "engine.plan_cache");
      options_.plan_cache->PutPath(key, fresh);
    }
    compiled = std::move(fresh);
  }
  const bt::pattern::BlossomTree& tree = compiled->tree;
  bt::opt::QueryPlan plan;
  {
    ScopedSpan span(Spans(), "opt.plan");
    BT_ASSIGN_OR_RETURN(plan, bt::opt::PlanQuery(doc_, &tree, options_.plan,
                                                 &compiled->decomposition));
    last_explain_ = plan.Explain();
  }
  bt::pattern::SlotId result = tree.SlotOfVariable("result");
  NodeIds out;
  bt::exec::Batch batch;
  size_t batch_rows = bt::exec::ClampBatchRows(options_.plan.exec.batch_rows);
  uint64_t batches = 0;
  uint64_t rows = 0;
  for (;;) {
    size_t n;
    {
      ScopedSpan span(Spans(), "exec.drain");
      n = plan.trees[0].root->GetNextBatch(&batch, batch_rows);
    }
    if (n == 0) break;
    ++batches;
    rows += n;
    ScopedSpan span(Spans(), "nestedlist.project");
    for (const bt::nestedlist::NestedList& nl : batch.rows) {
      auto part =
          bt::nestedlist::Project(tree, plan.trees[0].tops, nl, result);
      out.insert(out.end(), part.begin(), part.end());
    }
  }
  if (guard_.Tripped()) return guard_.status();
  {
    ScopedSpan span(Spans(), "nestedlist.project");
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  if (!guard_.ChargeRows(out.size())) return guard_.status();
  if (Spans() != nullptr) {
    log_->AddCount("exec.batches", static_cast<double>(batches));
    log_->AddCount("exec.root_rows", static_cast<double>(rows));
    log_->AddCount("nestedlist.result_nodes", static_cast<double>(out.size()));
    CountPlan(plan);
  }
  CollectProfile(&plan, path.ToString());
  return out;
}

void Replayer::CountPlan(const bt::opt::QueryPlan& plan) {
  double seeks = 0;
  double roots = 0;
  for (const bt::opt::PatternTreePlan& tp : plan.trees) {
    seeks += static_cast<double>(tp.seeks.size());
    roots += static_cast<double>(tp.seeks.size() + tp.scans.size());
  }
  log_->AddCount("index.seek_roots", seeks);
  log_->AddCount("index.nok_roots", roots);
  bt::exec::ExecStats total;
  bt::opt::ForEachOperator(
      plan, [&](const bt::exec::NestedListOperator& op, int) {
        total.MergeFrom(op.Stats());
      });
  log_->AddCount("exec.nodes_scanned",
                 static_cast<double>(total.nodes_scanned));
  log_->AddCount("exec.comparisons", static_cast<double>(total.comparisons));
  log_->AddCount("exec.nl_cells", static_cast<double>(total.nl_cells));
}

void Replayer::CollectProfile(bt::opt::QueryPlan* plan,
                              const std::string& label) {
  if (!options_.collect_profile) return;
  ScopedSpan span(Spans(), "engine.profile");
  bt::engine::QueryProfile profile =
      bt::engine::BuildQueryProfile(plan, label, 1);
  last_explain_ = plan->ExplainAnalyze();
}

Status Replayer::EvalFlwor(const bt::flwor::Flwor& flwor, const Env& env,
                           ResultBuilder* out) {
  std::vector<Env> tuples;
  if (env.empty()) {
    auto r = FlworTuples(flwor);
    if (!r.ok() && r.status().code() == StatusCode::kUnsupported) {
      ScopedSpan span(Spans(), "engine.enumerate");
      bt::engine::PathEvaluator ev(doc_);
      BT_ASSIGN_OR_RETURN(
          tuples, bt::engine::NaiveFlworTuples(flwor, env, &ev, &guard_));
    } else {
      BT_RETURN_NOT_OK(r.status());
      tuples = r.MoveValue();
    }
  } else {
    bt::engine::PathEvaluator ev(doc_);
    BT_ASSIGN_OR_RETURN(
        tuples, bt::engine::NaiveFlworTuples(flwor, env, &ev, &guard_));
  }
  return EmitTuples(flwor, std::move(tuples), out);
}

Result<std::vector<Replayer::Env>> Replayer::FlworTuples(
    const bt::flwor::Flwor& flwor) {
  std::shared_ptr<const bt::engine::CompiledFlwor> compiled;
  std::string key;
  if (options_.plan_cache != nullptr) {
    ScopedSpan span(Spans(), "engine.plan_cache");
    key = bt::engine::CanonicalFlworKey(flwor);
    compiled = options_.plan_cache->GetFlwor(key);
  }
  if (compiled == nullptr) {
    auto fresh = std::make_shared<bt::engine::CompiledFlwor>();
    {
      ScopedSpan span(Spans(), "pattern.compile");
      BT_ASSIGN_OR_RETURN(fresh->tree, bt::pattern::BuildFromFlwor(flwor));
      fresh->decomposition = bt::pattern::Decompose(fresh->tree);
      fresh->bindings = bt::engine::ComputeSlotBindings(fresh->tree, flwor);
    }
    if (options_.plan_cache != nullptr) {
      ScopedSpan span(Spans(), "engine.plan_cache");
      options_.plan_cache->PutFlwor(key, fresh);
    }
    compiled = std::move(fresh);
  }
  const bt::pattern::BlossomTree& tree = compiled->tree;
  bt::opt::QueryPlan plan;
  {
    ScopedSpan span(Spans(), "opt.plan");
    BT_ASSIGN_OR_RETURN(plan, bt::opt::PlanQuery(doc_, &tree, options_.plan,
                                                 &compiled->decomposition));
    last_explain_ = plan.Explain();
  }
  std::vector<std::vector<Env>> per_tree;
  uint64_t batches = 0;
  uint64_t rows = 0;
  double tuples_enumerated = 0;
  // exec::Drain's loop, with one span per root batch.
  size_t batch_rows =
      bt::exec::ClampBatchRows(bt::exec::ExecOptions{}.batch_rows);
  for (bt::opt::PatternTreePlan& tp : plan.trees) {
    std::vector<bt::nestedlist::NestedList> lists;
    bt::exec::Batch batch;
    for (;;) {
      ScopedSpan span(Spans(), "exec.drain");
      size_t n = tp.root->GetNextBatch(&batch, batch_rows);
      if (n == 0) break;
      ++batches;
      rows += n;
      lists.insert(lists.end(), std::make_move_iterator(batch.rows.begin()),
                   std::make_move_iterator(batch.rows.end()));
    }
    if (guard_.Tripped()) return guard_.status();
    ScopedSpan span(Spans(), "engine.enumerate");
    per_tree.push_back(bt::engine::EnumerateBindings(tree, tp.tops, lists,
                                                     compiled->bindings));
    tuples_enumerated += static_cast<double>(per_tree.back().size());
  }
  if (Spans() != nullptr) {
    log_->AddCount("exec.batches", static_cast<double>(batches));
    log_->AddCount("exec.root_rows", static_cast<double>(rows));
    log_->AddCount("engine.tuples", tuples_enumerated);
    CountPlan(plan);
  }
  CollectProfile(&plan, "flwor");
  std::vector<Env> tuples;
  {
    ScopedSpan span(Spans(), "engine.cross");
    tuples = bt::engine::CrossEnvs(per_tree);
    if (!guard_.ChargeRows(tuples.size())) return guard_.status();
  }
  if (Spans() != nullptr) {
    log_->AddCount("engine.cross_pairs", static_cast<double>(tuples.size()));
  }
  if (flwor.where != nullptr) {
    ScopedSpan span(Spans(), "engine.where");
    bt::engine::PathEvaluator ev(doc_);
    std::vector<Env> kept;
    uint64_t filtered = 0;
    for (Env& t : tuples) {
      if ((++filtered & 0x1FF) == 0 && !guard_.Check()) {
        return guard_.status();
      }
      BT_ASSIGN_OR_RETURN(bool ok,
                          bt::engine::EvalWhere(*flwor.where, t, *doc_, &ev));
      if (ok) kept.push_back(std::move(t));
    }
    if (Spans() != nullptr) {
      log_->AddCount("engine.where_evals", static_cast<double>(filtered));
      log_->AddCount("engine.where_kept", static_cast<double>(kept.size()));
    }
    tuples = std::move(kept);
  }
  return tuples;
}

Status Replayer::EmitTuples(const bt::flwor::Flwor& flwor,
                            std::vector<Env> tuples, ResultBuilder* out) {
  ScopedSpan span(Spans(), "engine.emit");
  bool outer_emit = in_emit_;
  in_emit_ = true;
  Status st = [&]() -> Status {
    if (flwor.order_by.has_value()) {
      bt::engine::PathEvaluator ev(doc_);
      std::vector<std::pair<std::string, size_t>> keys;
      keys.reserve(tuples.size());
      for (size_t i = 0; i < tuples.size(); ++i) {
        BT_ASSIGN_OR_RETURN(NodeIds nodes,
                            ev.EvaluateWith(*flwor.order_by, tuples[i], {}));
        keys.emplace_back(nodes.empty() ? "" : doc_->StringValue(nodes[0]),
                          i);
      }
      std::stable_sort(keys.begin(), keys.end(),
                       [&](const auto& a, const auto& b) {
                         return flwor.order_descending ? a.first > b.first
                                                       : a.first < b.first;
                       });
      std::vector<Env> ordered;
      ordered.reserve(tuples.size());
      for (const auto& [k, idx] : keys) ordered.push_back(tuples[idx]);
      tuples = std::move(ordered);
    }
    uint64_t emitted = 0;
    for (const Env& t : tuples) {
      if ((++emitted & 0xFF) == 0 && !guard_.Check()) return guard_.status();
      BT_RETURN_NOT_OK(EvalExpr(*flwor.ret, t, out));
    }
    return Status::OK();
  }();
  in_emit_ = outer_emit;
  return st;
}

}  // namespace perfbench
