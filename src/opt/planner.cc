#include "opt/planner.h"

#include <algorithm>
#include <unordered_set>

#include "exec/joins.h"
#include "nestedlist/ops.h"
#include "opt/cost_model.h"
#include "pattern/paths.h"
#include "util/trace.h"

namespace blossomtree {
namespace opt {

using exec::NestedListOperator;
using exec::NokScanOperator;
using pattern::Connection;
using pattern::Decomposition;
using pattern::VertexId;

const char* JoinStrategyToString(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kAuto:
      return "auto";
    case JoinStrategy::kPipelined:
      return "pipelined";
    case JoinStrategy::kBoundedNestedLoop:
      return "bounded-nested-loop";
    case JoinStrategy::kNaiveNestedLoop:
      return "naive-nested-loop";
  }
  return "?";
}

namespace {

bool IsTrivialRootNok(const pattern::BlossomTree& tree,
                      const pattern::NokTree& nok) {
  return nok.vertices.size() == 1 && tree.vertex(nok.root).IsVirtualRoot();
}

/// NoK-local cardinality estimate: EstimateVertexMatches restricted to the
/// NoK's own vertices — a bare scan does not enforce the //-connected
/// subtrees hanging off the NoK, so those children must not filter here.
double EstimateNokMatches(const CostModel& model,
                          const pattern::BlossomTree& tree,
                          const pattern::NokTree& nok, double num_elements,
                          pattern::VertexId v) {
  std::unordered_set<pattern::VertexId> members(nok.vertices.begin(),
                                                nok.vertices.end());
  std::function<double(pattern::VertexId)> est =
      [&](pattern::VertexId u) -> double {
    const pattern::Vertex& ux = tree.vertex(u);
    double base = ux.IsVirtualRoot() ? 1.0 : model.TagCount(ux.tag);
    if (base == 0) return 0;
    double selectivity = 1.0;
    if (ux.value) selectivity *= model.ValueSelectivity(ux);
    if (ux.position > 0) selectivity *= 0.5;
    double n = std::max(1.0, num_elements);
    for (pattern::VertexId c : ux.children) {
      if (members.count(c) == 0) continue;  // Cut //-edge: joined later.
      const pattern::Vertex& cx = tree.vertex(c);
      if (cx.mode == pattern::EdgeMode::kLet) continue;
      double scope = ux.IsVirtualRoot() ? n : model.AvgSubtreeSize(ux.tag);
      selectivity *= std::min(1.0, est(c) * scope / n);
    }
    return base * selectivity;
  };
  return est(v);
}

/// The planner's access-path decision for one NoK (DESIGN.md §14).
struct NokAccessPath {
  enum class Kind {
    kScan,  ///< Sequential (or merged) NoK scan — the default.
    kSeek,  ///< IndexSeek over a candidate list from the structural index.
    kEmpty  ///< Provably empty (DataGuide / absent tag): seek zero
            ///< candidates, scan nothing.
  };
  Kind kind = Kind::kScan;
  std::vector<xml::NodeId> candidates;  ///< For kSeek; empty for kEmpty.
  std::string detail;                   ///< EXPLAIN annotation.
};

/// Costs index-seek against sequential scan per NoK root using the index's
/// real posting-list cardinalities, and short-circuits NoKs whose mandatory
/// paths the DataGuide rules out. Every choice is result-preserving: seeks
/// re-verify candidates with the full matcher, and kEmpty is only chosen on
/// a structural *proof* of emptiness.
std::vector<NokAccessPath> ChooseAccessPaths(
    const xml::Document* doc, const pattern::BlossomTree* tree,
    const Decomposition& d, const index::StructuralIndex* index) {
  std::vector<NokAccessPath> out(d.noks.size());
  if (index == nullptr || !index->Matches(*doc)) return out;
  for (size_t i = 0; i < d.noks.size(); ++i) {
    const pattern::NokTree& nok = d.noks[i];
    const pattern::Vertex& root = tree->vertex(nok.root);
    NokAccessPath& ap = out[i];
    bool attr_root = !root.tag.empty() && root.tag[0] == '@';
    // DataGuide short-circuit: if the NoK's mandatory child-axis paths
    // cannot all embed at one guide node, no document node matches —
    // whatever the value or positional constraints say. Attribute-rooted
    // NoKs bypass the guide (attributes are element side data, not paths).
    if (!attr_root &&
        !index->CanMatchPaths(pattern::ExtractMandatoryPaths(*tree, nok))) {
      ap.kind = NokAccessPath::Kind::kEmpty;
      ap.detail = "guide: no such path";
      continue;
    }
    if (root.IsVirtualRoot() || root.MatchesAnyTag() || attr_root) {
      continue;  // No posting list to seek ("~" matches at most once).
    }
    xml::TagId t = doc->tags().Lookup(root.tag);
    if (t == xml::kNullTag) {
      ap.kind = NokAccessPath::Kind::kEmpty;
      ap.detail = "tag absent";
      continue;
    }
    // Candidate set: an exact value-index equality run when the root
    // carries an answerable `= literal` predicate, else the tag's posting
    // list. Both are provable supersets of the NoK's match roots.
    std::vector<xml::NodeId> candidates;
    std::string source;
    if (root.value && root.value->op == xpath::CompareOp::kEq) {
      index::EqualitySeek seek = index->SeekEquality(t, root.value->literal);
      if (seek.usable) {
        candidates = std::move(seek.nodes);
        source = "value-eq";
      }
    }
    if (source.empty()) {
      auto postings = index->Postings(t);
      candidates.reserve(postings.size());
      for (const index::PostingEntry& e : postings) {
        candidates.push_back(e.node);
      }
      source = "postings";
    }
    // Seek cost: each probe verifies one candidate subtree (~avg_subtree
    // node visits). Scan cost: one root test per document node. Real
    // cardinalities on both sides — no fixed selectivity guess.
    double probe = 1.0 + index->Stats(t).avg_subtree;
    double seek_cost = static_cast<double>(candidates.size()) * probe;
    double scan_cost = static_cast<double>(doc->NumNodes());
    if (seek_cost < scan_cost) {
      ap.kind = NokAccessPath::Kind::kSeek;
      ap.candidates = std::move(candidates);
      ap.detail =
          source + ", " + std::to_string(ap.candidates.size()) + " candidates";
    }
  }
  return out;
}

/// Recursive plan builder for the NoK-join tree under `nok_index`.
class TreePlanner {
 public:
  TreePlanner(const xml::Document* doc, const pattern::BlossomTree* tree,
              const Decomposition* decomp, JoinStrategy strategy,
              exec::MergedNokScan* merged,
              const std::vector<int>* merged_index,
              const std::vector<NokAccessPath>* access,
              PatternTreePlan* plan,
              bool* used_pipelined, bool* used_bnlj,
              util::ThreadPool* pool, util::ResourceGuard* guard,
              const CostModel* cost, exec::NokResultCache* result_cache,
              const storage::NodeStore* store, exec::ExecOptions exec)
      : doc_(doc),
        tree_(tree),
        decomp_(decomp),
        strategy_(strategy),
        merged_(merged),
        merged_index_(merged_index),
        access_(access),
        plan_(plan),
        used_pipelined_(used_pipelined),
        used_bnlj_(used_bnlj),
        pool_(pool),
        guard_(guard),
        cost_(cost),
        result_cache_(result_cache),
        store_(store),
        exec_(exec) {}

  /// True when matches of `v`'s tag can never nest — the precondition for
  /// the pipelined join's merge discipline (Theorem 2 holds per tag: a
  /// //-join whose outer tag has nesting degree 1 behaves as on a
  /// non-recursive document, even if other tags recurse).
  bool NonNesting(VertexId v) const {
    const pattern::Vertex& vx = tree_->vertex(v);
    if (vx.IsVirtualRoot()) return true;
    if (vx.MatchesAnyTag()) return false;
    std::string tag = vx.tag;
    if (!tag.empty() && tag[0] == '@') return false;
    xml::TagId t = doc_->tags().Lookup(tag);
    if (t == xml::kNullTag) return true;  // Tag absent: zero matches.
    return doc_->TagRecursionDegree(t) <= 1;
  }

  /// Per-connection strategy under kAuto (paper §5: the optimizer chooses
  /// using its knowledge of document recursion — here per tag).
  JoinStrategy Pick(const Connection& c, uint32_t outer_nok) const {
    if (strategy_ != JoinStrategy::kAuto) return strategy_;
    bool safe = NonNesting(decomp_->noks[outer_nok].root) && NonNesting(c.from);
    return safe ? JoinStrategy::kPipelined
                : JoinStrategy::kBoundedNestedLoop;
  }

  Result<std::unique_ptr<NestedListOperator>> Build(uint32_t nok_index,
                                                    int depth) {
    std::unique_ptr<NestedListOperator> op;
    double est = -1.0;
    if (cost_ != nullptr) {
      est = EstimateNokMatches(
          *cost_, *tree_, decomp_->noks[nok_index],
          static_cast<double>(doc_->NumElements()),
          decomp_->noks[nok_index].root);
    }
    const NokAccessPath& ap = (*access_)[nok_index];
    if (ap.kind != NokAccessPath::Kind::kScan) {
      auto seek = std::make_unique<exec::IndexSeekOperator>(
          doc_, tree_, &decomp_->noks[nok_index], ap.candidates, guard_,
          store_);
      plan_->seeks.push_back(seek.get());
      std::string label = "IndexSeek(" + NokLabel(nok_index) + ")";
      seek->set_label(label);
      Indent(depth);
      plan_->explain += label + " [";
      plan_->explain +=
          ap.kind == NokAccessPath::Kind::kEmpty ? "empty: " : "";
      plan_->explain += ap.detail + "]\n";
      op = std::move(seek);
    } else if (merged_ != nullptr && (*merged_index_)[nok_index] >= 0) {
      op = merged_->MakeOperator(
          static_cast<size_t>((*merged_index_)[nok_index]));
      op->set_label("MergedNokView(" + NokLabel(nok_index) + ")");
      Indent(depth);
      plan_->explain += "MergedNokView(" + NokLabel(nok_index) + ")\n";
    } else {
      auto scan = std::make_unique<NokScanOperator>(
          doc_, tree_, &decomp_->noks[nok_index], pool_, guard_,
          result_cache_, store_, exec_);
      plan_->scans.push_back(scan.get());
      scan->set_label("NokScan(" + NokLabel(nok_index) + ")");
      Indent(depth);
      plan_->explain += "NokScan(" + NokLabel(nok_index) + ")";
      if (pool_ != nullptr && pool_->NumThreads() > 1) {
        plan_->explain +=
            " [parallel x" + std::to_string(pool_->NumThreads()) + "]";
      }
      plan_->explain += "\n";
      op = std::move(scan);
    }
    if (cost_ != nullptr) op->set_estimated_rows(est);
    for (const Connection& c : decomp_->connections) {
      if (decomp_->NokOf(c.from) != nok_index) continue;
      pattern::SlotId from_slot = tree_->SlotOfVertex(c.from);
      if (from_slot == pattern::kNoSlot) {
        return Status::Internal("connection endpoint has no slot");
      }
      JoinStrategy join = Pick(c, nok_index);
      const char* join_name = "BoundedNestedLoopJoin";
      if (join == JoinStrategy::kPipelined) {
        join_name = "PipelinedDescJoin";
        *used_pipelined_ = true;
      } else if (join == JoinStrategy::kNaiveNestedLoop) {
        join_name = "NaiveNestedLoopJoin";
        *used_bnlj_ = true;
      } else {
        *used_bnlj_ = true;
      }
      Indent(depth);
      plan_->explain += std::string(join_name) + "(" +
                        tree_->vertex(c.from).tag + " // " +
                        tree_->vertex(c.to).tag +
                        (c.mode == pattern::EdgeMode::kLet ? ", l)\n"
                                                           : ", f)\n");
      BT_ASSIGN_OR_RETURN(auto inner,
                          Build(decomp_->NokOf(c.to), depth + 1));
      std::string join_label = std::string(join_name) + "(" +
                               tree_->vertex(c.from).tag + " // " +
                               tree_->vertex(c.to).tag + ")";
      if (join == JoinStrategy::kPipelined) {
        op = std::make_unique<exec::PipelinedDescJoin>(
            doc_, tree_, std::move(op), std::move(inner), from_slot, c.mode,
            guard_);
      } else {
        op = std::make_unique<exec::BoundedNestedLoopJoin>(
            doc_, tree_, std::move(op), std::move(inner), from_slot, c.mode,
            /*bounded=*/join != JoinStrategy::kNaiveNestedLoop, guard_);
      }
      op->set_label(std::move(join_label));
      if (cost_ != nullptr) {
        // A mandatory //-edge keeps the outer entries whose subtree holds
        // an inner match (containment assumption, as in the cost model);
        // optional edges never filter.
        if (c.mode != pattern::EdgeMode::kLet) {
          double n = std::max(
              1.0, static_cast<double>(doc_->NumElements()));
          double inner_est = cost_->EstimateVertexMatches(*tree_, c.to);
          double scope =
              tree_->vertex(c.from).IsVirtualRoot()
                  ? n
                  : cost_->AvgSubtreeSize(tree_->vertex(c.from).tag);
          est *= std::min(1.0, inner_est * scope / n);
        }
        op->set_estimated_rows(est);
      }
    }
    return op;
  }

 private:
  void Indent(int depth) {
    plan_->explain.append(static_cast<size_t>(depth) * 2, ' ');
  }

  std::string NokLabel(uint32_t nok_index) const {
    std::string out;
    for (size_t i = 0; i < decomp_->noks[nok_index].vertices.size(); ++i) {
      if (i > 0) out += ",";
      out += tree_->vertex(decomp_->noks[nok_index].vertices[i]).tag;
    }
    return out;
  }

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  const Decomposition* decomp_;
  JoinStrategy strategy_;
  exec::MergedNokScan* merged_;
  const std::vector<int>* merged_index_;
  const std::vector<NokAccessPath>* access_;
  PatternTreePlan* plan_;
  bool* used_pipelined_;
  bool* used_bnlj_;
  util::ThreadPool* pool_;
  util::ResourceGuard* guard_;
  const CostModel* cost_;
  exec::NokResultCache* result_cache_;
  const storage::NodeStore* store_;
  exec::ExecOptions exec_;
};

}  // namespace

std::string QueryPlan::Explain() const {
  std::string out = "strategy: ";
  out += JoinStrategyToString(chosen);
  out += "\n";
  for (size_t i = 0; i < trees.size(); ++i) {
    out += "pattern tree " + std::to_string(i) + ":\n";
    out += trees[i].explain;
  }
  return out;
}

void QueryPlan::FinishAll() {
  for (PatternTreePlan& tp : trees) {
    if (tp.root != nullptr) tp.root->Finish();
  }
}

std::string QueryPlan::ExplainAnalyze() const {
  std::string out = "strategy: ";
  out += JoinStrategyToString(chosen);
  out += "\n";
  if (merged_scan != nullptr) {
    out += "merged scan: " + merged_scan->ScanStats().Summary() + "\n";
  }
  for (size_t i = 0; i < trees.size(); ++i) {
    out += "pattern tree " + std::to_string(i) + ":\n";
    if (trees[i].root != nullptr) {
      out += exec::ExplainAnalyzeTree(*trees[i].root, 1);
    }
  }
  return out;
}

void ForEachOperator(
    const QueryPlan& plan,
    const std::function<void(const exec::NestedListOperator&, int depth)>&
        fn) {
  std::function<void(const exec::NestedListOperator&, int)> walk =
      [&](const exec::NestedListOperator& op, int depth) {
        fn(op, depth);
        for (size_t i = 0; i < op.NumChildren(); ++i) {
          if (op.Child(i) != nullptr) walk(*op.Child(i), depth + 1);
        }
      };
  for (const PatternTreePlan& tp : plan.trees) {
    if (tp.root != nullptr) walk(*tp.root, 0);
  }
}

Result<QueryPlan> PlanQuery(const xml::Document* doc,
                            const pattern::BlossomTree* tree,
                            const PlanOptions& options,
                            const pattern::Decomposition* precomputed) {
  util::TraceSpan span("plan", "opt::PlanQuery");
  if (!tree->finalized()) {
    return Status::InvalidArgument("BlossomTree must be finalized");
  }
  QueryPlan plan;
  plan.tree = tree;
  // Decompose is deterministic, so a plan built from a cached decomposition
  // is identical to one that re-runs Algorithm 1 here.
  plan.decomposition =
      precomputed != nullptr ? *precomputed : pattern::Decompose(*tree);
  const Decomposition& d = plan.decomposition;

  // Rule: pipelined joins need document-order preservation (Theorem 2).
  // Under kAuto that is decided *per connection* using the per-tag nesting
  // statistics (TreePlanner::Pick); forced strategies apply uniformly.
  JoinStrategy strategy = options.strategy;

  // Find each pattern tree's base NoK: the root NoK itself, or — when the
  // root NoK is the bare virtual root "~" connected by // — its single
  // connection target (the sequential scan subsumes the trivial //-join
  // from the document root).
  std::vector<uint32_t> bases;
  std::vector<bool> is_base_or_inner(d.noks.size(), true);
  for (VertexId r : tree->roots()) {
    uint32_t root_nok = d.NokOf(r);
    if (IsTrivialRootNok(*tree, d.noks[root_nok])) {
      is_base_or_inner[root_nok] = false;
      uint32_t target = static_cast<uint32_t>(-1);
      for (const Connection& c : d.connections) {
        if (d.NokOf(c.from) == root_nok) {
          if (target != static_cast<uint32_t>(-1)) {
            return Status::Unsupported(
                "virtual root with multiple //-connections");
          }
          target = d.NokOf(c.to);
        }
      }
      if (target == static_cast<uint32_t>(-1)) {
        return Status::Unsupported("pattern tree with no matchable NoK");
      }
      bases.push_back(target);
    } else {
      bases.push_back(root_nok);
    }
  }

  // Per-NoK access paths: the cost-based seek-vs-scan choice plus DataGuide
  // emptiness proofs, decided before the merged scan so indexed NoKs never
  // join (or pay for) the eager merged pass.
  std::vector<NokAccessPath> access =
      ChooseAccessPaths(doc, tree, d, options.index);

  // Emptiness composes: a mandatory (kFor) //-edge to a provably-empty
  // inner NoK empties the join, so an empty proof anywhere below the base
  // empties the whole pattern tree — mark every reachable NoK kEmpty and
  // the plan runs with zero scanned nodes.
  {
    std::function<bool(uint32_t)> composed_empty = [&](uint32_t n) -> bool {
      if (access[n].kind == NokAccessPath::Kind::kEmpty) return true;
      for (const Connection& c : d.connections) {
        if (d.NokOf(c.from) != n) continue;
        if (c.mode != pattern::EdgeMode::kLet &&
            composed_empty(d.NokOf(c.to))) {
          return true;
        }
      }
      return false;
    };
    std::function<void(uint32_t)> mark_empty = [&](uint32_t n) {
      if (access[n].kind != NokAccessPath::Kind::kEmpty) {
        access[n].kind = NokAccessPath::Kind::kEmpty;
        access[n].candidates.clear();
        access[n].detail = "short-circuit: empty subplan";
      }
      for (const Connection& c : d.connections) {
        if (d.NokOf(c.from) == n) mark_empty(d.NokOf(c.to));
      }
    };
    for (uint32_t base : bases) {
      if (composed_empty(base)) mark_empty(base);
    }
  }

  // Optional merged single scan across every still-scanning NoK in the
  // plan (NoKs routed to index seeks or proven empty stay out of the
  // merged probe set — and out of its scan cost).
  std::unique_ptr<exec::MergedNokScan> merged;
  std::vector<int> merged_index(d.noks.size(), -1);
  if (options.merge_nok_scans &&
      strategy == JoinStrategy::kPipelined) {
    std::vector<const pattern::NokTree*> noks;
    for (size_t i = 0; i < d.noks.size(); ++i) {
      if (!is_base_or_inner[i]) continue;
      if (access[i].kind != NokAccessPath::Kind::kScan) continue;
      merged_index[i] = static_cast<int>(noks.size());
      noks.push_back(&d.noks[i]);
    }
    if (!noks.empty()) {
      merged = std::make_unique<exec::MergedNokScan>(doc, tree,
                                                     std::move(noks),
                                                     options.guard,
                                                     options.exec);
      merged->Run();
      // A trip during the eager merged scan leaves partial match lists;
      // surface it now rather than handing out a truncated plan.
      if (options.guard != nullptr && options.guard->Tripped()) {
        return options.guard->status();
      }
    }
  }

  bool used_pipelined = false;
  bool used_bnlj = false;
  std::unique_ptr<CostModel> cost;
  if (options.estimate_cardinalities) {
    cost = std::make_unique<CostModel>(doc, options.index);
  }
  for (uint32_t base : bases) {
    PatternTreePlan tp;
    TreePlanner builder(doc, tree, &plan.decomposition, strategy,
                        merged.get(), &merged_index, &access, &tp,
                        &used_pipelined, &used_bnlj, options.pool,
                        options.guard, cost.get(), options.result_cache,
                        options.store, options.exec);
    BT_ASSIGN_OR_RETURN(tp.root, builder.Build(base, 1));
    tp.tops = tp.root->top_slots();
    plan.trees.push_back(std::move(tp));
  }
  plan.merged_scan = std::move(merged);
  // Summarize: the single strategy used, or kAuto for mixed plans.
  if (used_pipelined && used_bnlj) {
    plan.chosen = JoinStrategy::kAuto;
  } else if (used_bnlj) {
    plan.chosen = strategy == JoinStrategy::kNaiveNestedLoop
                      ? JoinStrategy::kNaiveNestedLoop
                      : JoinStrategy::kBoundedNestedLoop;
  } else {
    plan.chosen = JoinStrategy::kPipelined;
  }
  return plan;
}

Result<std::vector<xml::NodeId>> EvaluatePathQuery(
    const xml::Document* doc, const pattern::BlossomTree* tree,
    const PlanOptions& options) {
  BT_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(doc, tree, options));
  if (plan.trees.size() != 1) {
    return Status::InvalidArgument("path queries have one pattern tree");
  }
  pattern::SlotId result = tree->SlotOfVariable("result");
  if (result == pattern::kNoSlot) {
    return Status::InvalidArgument("no result slot; not a path query");
  }
  PatternTreePlan& tp = plan.trees[0];
  std::vector<xml::NodeId> out;
  nestedlist::NestedList nl;
  while (tp.root->GetNext(&nl)) {
    auto part = nestedlist::Project(*tree, tp.tops, nl, result);
    out.insert(out.end(), part.begin(), part.end());
  }
  // Operators end their streams early when the guard trips; distinguish
  // that from genuine exhaustion before claiming a complete result.
  if (options.guard != nullptr && options.guard->Tripped()) {
    return options.guard->status();
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace opt
}  // namespace blossomtree
