// The traced pipeline: evaluates a query by calling the engine modules'
// public functions in the order BlossomTreeEngine::EvaluateQuery calls them,
// with one span around each call. Its output must equal the engine's byte
// for byte; the benchmark checks that on every traced query.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/construct.h"
#include "engine/path_eval.h"
#include "engine/plan_cache.h"
#include "flwor/ast.h"
#include "opt/planner.h"
#include "trace.h"
#include "util/resource_guard.h"
#include "util/status.h"

namespace perfbench {

/// The engine configuration the replay mirrors. `plan` carries the store,
/// structural index and NoK result cache exactly as EngineOptions::plan
/// would; the guard is the replayer's own.
struct ReplayOptions {
  blossomtree::opt::PlanOptions plan;
  blossomtree::engine::PlanCache* plan_cache = nullptr;
  /// Mirrors EngineOptions::collect_profile (the service forces it on).
  bool collect_profile = false;
};

class Replayer {
 public:
  Replayer(const blossomtree::xml::Document* doc, ReplayOptions options,
           SpanLog* log);

  /// Parses and evaluates `query` to serialized XML under a root span.
  blossomtree::Result<std::string> Run(std::string_view query);

 private:
  using Env = blossomtree::engine::Env;
  using NodeIds = std::vector<blossomtree::xml::NodeId>;

  blossomtree::Status EvalExpr(const blossomtree::flwor::Expr& expr,
                               const Env& env,
                               blossomtree::engine::ResultBuilder* out);
  blossomtree::Result<NodeIds> EvalPathPlan(
      const blossomtree::xpath::PathExpr& path);
  blossomtree::Status EvalFlwor(const blossomtree::flwor::Flwor& flwor,
                                const Env& env,
                                blossomtree::engine::ResultBuilder* out);
  blossomtree::Result<std::vector<Env>> FlworTuples(
      const blossomtree::flwor::Flwor& flwor);
  blossomtree::Status EmitTuples(const blossomtree::flwor::Flwor& flwor,
                                 std::vector<Env> tuples,
                                 blossomtree::engine::ResultBuilder* out);
  /// Records the plan's access paths and operator counters.
  void CountPlan(const blossomtree::opt::QueryPlan& plan);
  void CollectProfile(blossomtree::opt::QueryPlan* plan,
                      const std::string& label);

  /// Spans are recorded only outside emission: a return clause evaluates
  /// per tuple and would otherwise log one span per row.
  SpanLog* Spans() const { return in_emit_ ? nullptr : log_; }

  const blossomtree::xml::Document* doc_;
  ReplayOptions options_;
  SpanLog* log_;
  blossomtree::util::ResourceGuard guard_;
  bool in_emit_ = false;
  /// The engine renders EXPLAIN text for every plan it runs; the replay
  /// renders it too, so both do the same work.
  std::string last_explain_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
