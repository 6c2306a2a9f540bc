#include "engine/cross_join.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

#include "engine/where_eval.h"
#include "exec/value_ops.h"
#include "util/strings.h"

namespace blossomtree {
namespace engine {

using flwor::BoolExpr;
using flwor::Operand;
using flwor::WhereOp;

namespace {

const char* CrossJoinKindToString(CrossJoinKind kind) {
  switch (kind) {
    case CrossJoinKind::kHashValue:
      return "HashValueJoin";
    case CrossJoinKind::kHashDeepEqual:
      return "HashDeepEqualJoin";
    case CrossJoinKind::kHashIdentity:
      return "HashIdentityJoin";
    case CrossJoinKind::kNeqSummary:
      return "NeqSummaryJoin";
    case CrossJoinKind::kDocOrder:
      return "DocOrderJoin";
  }
  return "?";
}

/// Candidate pairs (and probe rows) between two samples of the deadline and
/// the cancellation token: the "probe batch" a trip may lag by.
constexpr uint64_t kProbeBatch = 4096;

std::string OperandText(const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::kPath:
      return op.path.ToString();
    case Operand::Kind::kLiteral:
      return "\"" + op.literal + "\"";
    case Operand::Kind::kCount:
      return "count(" + op.path.ToString() + ")";
  }
  return "?";
}

std::string BoolText(const BoolExpr& e) {
  switch (e.kind) {
    case BoolExpr::Kind::kAnd:
    case BoolExpr::Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) out += e.kind == BoolExpr::Kind::kAnd ? " and " : " or ";
        out += BoolText(*e.children[i]);
      }
      return out + ")";
    }
    case BoolExpr::Kind::kNot:
      return "not(" + BoolText(*e.children[0]) + ")";
    case BoolExpr::Kind::kCompare:
      break;
  }
  if (e.op == WhereOp::kExists) return "exists(" + OperandText(e.left) + ")";
  if (e.op == WhereOp::kDeepEqual) {
    return "deep-equal(" + OperandText(e.left) + ", " + OperandText(e.right) +
           ")";
  }
  return OperandText(e.left) + " " + flwor::WhereOpToString(e.op) + " " +
         OperandText(e.right);
}

/// True when PathEvaluator may reject `path` whatever the bindings: a
/// malformed absolute start or a position predicate on a `.` step.
bool PathMayError(const xpath::PathExpr& path) {
  if (path.start == xpath::PathExpr::StartKind::kRoot &&
      (path.steps.empty() ||
       (path.steps[0].axis != xpath::Axis::kChild &&
        path.steps[0].axis != xpath::Axis::kDescendant))) {
    return true;
  }
  for (const xpath::Step& step : path.steps) {
    for (const xpath::Predicate& pred : step.predicates) {
      if (pred.kind == xpath::Predicate::Kind::kPosition) {
        if (step.axis == xpath::Axis::kSelf) return true;
      } else if (pred.path != nullptr && PathMayError(*pred.path)) {
        return true;
      }
    }
  }
  return false;
}

/// True when EvalWhere may return an error on `e` for some bindings.
bool MayError(const BoolExpr& e) {
  if (e.kind != BoolExpr::Kind::kCompare) {
    for (const auto& c : e.children) {
      if (MayError(*c)) return true;
    }
    return false;
  }
  switch (e.op) {
    case WhereOp::kDocBefore:
    case WhereOp::kDocAfter:
    case WhereOp::kIs:
      return true;  // Non-singleton or literal operands are errors.
    case WhereOp::kExists:
      return e.left.kind != Operand::Kind::kPath || PathMayError(e.left.path);
    case WhereOp::kDeepEqual:
      if (e.left.kind != Operand::Kind::kPath ||
          e.right.kind != Operand::Kind::kPath) {
        return true;
      }
      break;
    case WhereOp::kEq:
    case WhereOp::kNeq:
      break;
  }
  for (const Operand* op : {&e.left, &e.right}) {
    if (op->kind != Operand::Kind::kLiteral && PathMayError(op->path)) {
      return true;
    }
  }
  return false;
}

using VarTrees = std::map<std::string, size_t>;

/// Adds the pattern trees whose variables `e` references to `trees`;
/// returns false when `e` references a variable the FLWOR does not bind.
bool CollectTrees(const BoolExpr& e, const VarTrees& vars,
                  std::set<size_t>* trees) {
  bool known = true;
  if (e.kind != BoolExpr::Kind::kCompare) {
    for (const auto& c : e.children) {
      known = CollectTrees(*c, vars, trees) && known;
    }
    return known;
  }
  auto visit = [&](const Operand& op) {
    if (op.kind == Operand::Kind::kLiteral ||
        op.path.start != xpath::PathExpr::StartKind::kVariable) {
      return;
    }
    auto it = vars.find(op.path.variable);
    if (it == vars.end()) {
      known = false;
    } else {
      trees->insert(it->second);
    }
  };
  visit(e.left);
  if (e.op != WhereOp::kExists) visit(e.right);
  return known;
}

void FlattenAnd(const BoolExpr* e, std::vector<const BoolExpr*>* out) {
  if (e->kind == BoolExpr::Kind::kAnd) {
    for (const auto& c : e->children) FlattenAnd(c.get(), out);
  } else {
    out->push_back(e);
  }
}

/// The join predicate `conjunct` states, if it is one: a possibly negated
/// comparison between error-free variable-rooted paths of two trees.
bool AsJoinPredicate(const BoolExpr* conjunct, const VarTrees& vars,
                     JoinPredicate* out) {
  bool negated = false;
  while (conjunct->kind == BoolExpr::Kind::kNot) {
    negated = !negated;
    conjunct = conjunct->children[0].get();
  }
  if (conjunct->kind != BoolExpr::Kind::kCompare) return false;
  switch (conjunct->op) {
    case WhereOp::kEq:
      out->kind = CrossJoinKind::kHashValue;
      break;
    case WhereOp::kNeq:
      out->kind = CrossJoinKind::kNeqSummary;
      break;
    case WhereOp::kDeepEqual:
      out->kind = CrossJoinKind::kHashDeepEqual;
      break;
    case WhereOp::kIs:
      out->kind = CrossJoinKind::kHashIdentity;
      break;
    case WhereOp::kDocBefore:
    case WhereOp::kDocAfter:
      out->kind = CrossJoinKind::kDocOrder;
      break;
    case WhereOp::kExists:
      return false;
  }
  size_t sides[2];
  const Operand* ops[2] = {&conjunct->left, &conjunct->right};
  for (int i = 0; i < 2; ++i) {
    const Operand& op = *ops[i];
    if (op.kind != Operand::Kind::kPath ||
        op.path.start != xpath::PathExpr::StartKind::kVariable ||
        PathMayError(op.path)) {
      return false;
    }
    auto it = vars.find(op.path.variable);
    if (it == vars.end()) return false;
    sides[i] = it->second;
  }
  if (sides[0] == sides[1]) return false;
  out->compare = conjunct;
  out->negated = negated;
  out->left_tree = sides[0];
  out->right_tree = sides[1];
  return true;
}

bool IsHashable(const JoinPredicate& p) {
  return !p.negated && (p.kind == CrossJoinKind::kHashValue ||
                        p.kind == CrossJoinKind::kHashDeepEqual ||
                        p.kind == CrossJoinKind::kHashIdentity);
}

std::string StepLabel(const CrossJoinPlan& plan, const CrossJoinStep& step) {
  if (step.predicates.empty()) {
    return step.residuals.empty() ? "CrossProduct" : "NestedLoopJoin";
  }
  std::string out;
  for (size_t i = 0; i < step.predicates.size(); ++i) {
    if (i > 0) out += " + ";
    out += plan.predicates[step.predicates[i]].Label();
  }
  return out;
}

// -- Value keys and structural digests ---------------------------------------

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-dependent combination of a running hash with one more value.
uint64_t Combine(uint64_t h, uint64_t v) {
  return Mix(h ^ Mix(v + 0x9e3779b97f4a7c15ULL));
}

uint64_t HashText(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

/// Interns `=` keys: two values get the same id iff CompareValues calls
/// them equal. A value ParseDouble accepts keys on its double (−0 folded
/// to 0; ParseDouble never yields NaN), anything else on its raw string.
/// Mixing the two is exact: a numeric string never equals a non-numeric one
/// under CompareValues, whose fallback string comparison would need the two
/// strings to be identical.
class KeyDictionary {
 public:
  uint32_t Intern(const std::string& value) {
    double d = 0;
    std::string key;
    if (ParseDouble(value, &d)) {
      if (d == 0) d = 0;  // −0 == 0 numerically.
      key.resize(1 + sizeof(d));
      key[0] = 'n';
      std::memcpy(key.data() + 1, &d, sizeof(d));
    } else {
      key.reserve(1 + value.size());
      key.push_back('s');
      key += value;
    }
    return ids_.emplace(std::move(key), static_cast<uint32_t>(ids_.size()))
        .first->second;
  }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

/// Digest of the subtree at `root`, equal for subtrees DeepEqualNodes calls
/// equal: tag, the attribute set (summed, so order-independent), children
/// in order, and text. Computed bottom-up over the subtree's contiguous
/// preorder range, so deep documents need no recursion.
uint64_t SubtreeDigest(const xml::Document& doc, xml::NodeId root,
                       std::vector<uint64_t>* scratch) {
  xml::NodeId end = doc.SubtreeEnd(root);
  scratch->assign(static_cast<size_t>(end - root) + 1, 0);
  for (xml::NodeId n = end + 1; n-- > root;) {
    uint64_t h;
    if (!doc.IsElement(n)) {
      h = Combine(1, HashText(doc.Text(n)));
    } else {
      h = Combine(2, doc.Tag(n));
      uint64_t attrs = 0;
      for (const auto& [name, value] : doc.Attributes(n)) {
        attrs += Combine(HashText(name), HashText(value));
      }
      h = Combine(h, attrs);
      for (xml::NodeId c = doc.FirstChild(n); c != xml::kNullNode;
           c = doc.NextSibling(c)) {
        h = Combine(h, (*scratch)[c - root]);
      }
    }
    (*scratch)[n - root] = h;
  }
  return (*scratch)[0];
}

/// One join operand evaluated once for every tuple of its pattern tree.
struct OperandValues {
  std::vector<size_t> node_begin = {0};
  std::vector<xml::NodeId> nodes;
  std::vector<size_t> key_begin = {0};  ///< `=` / `!=`: distinct key ids,
  std::vector<uint32_t> keys;           ///< ascending, per tuple.
  std::vector<uint64_t> digests;        ///< deep-equal: sequence digest.

  std::span<const xml::NodeId> Nodes(size_t t) const {
    return {nodes.data() + node_begin[t], nodes.data() + node_begin[t + 1]};
  }
  std::span<const uint32_t> Keys(size_t t) const {
    return {keys.data() + key_begin[t], keys.data() + key_begin[t + 1]};
  }
};

bool Intersects(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Runs one CrossJoinPlan over the per-tree tuples.
class CrossJoinExecutor {
 public:
  CrossJoinExecutor(const CrossJoinPlan& plan,
                    const std::vector<std::vector<Env>>& per_tree,
                    const xml::Document& doc, util::ResourceGuard* guard,
                    std::vector<CrossJoinProfile>* profile)
      : plan_(plan),
        per_tree_(per_tree),
        doc_(doc),
        guard_(guard),
        profile_(profile),
        evaluator_(&doc) {}

  Result<std::vector<Env>> Run() {
    for (const std::vector<Env>& envs : per_tree_) {
      if (envs.empty()) {
        // No tuples, so the reference never evaluates the where-clause.
        RecordIdleSteps();
        return std::vector<Env>{};
      }
    }
    if (!plan_.may_error) {
      BT_ASSIGN_OR_RETURN(Route route, Prepare());
      if (route == Route::kEmpty) {
        RecordIdleSteps();
        return std::vector<Env>{};
      }
      if (route == Route::kJoin) return RunJoins();
    }
    return RunOrderedLoop();
  }

 private:
  enum class Route { kJoin, kEmpty, kOrdered };

  /// Samples the deadline and the cancellation token once per probe batch.
  bool Tick(uint64_t work) {
    since_check_ += work;
    if (since_check_ < kProbeBatch) return true;
    since_check_ = 0;
    return guard_ == nullptr || guard_->Check();
  }
  bool Charge(uint64_t rows) {
    return guard_ == nullptr || guard_->ChargeRows(rows);
  }
  Status Tripped() const { return guard_->status(); }

  void RecordIdleSteps() {
    if (profile_ == nullptr) return;
    for (const CrossJoinStep& step : plan_.steps) {
      CrossJoinProfile p;
      p.label = StepLabel(plan_, step);
      profile_->push_back(std::move(p));
    }
  }

  /// Evaluates constants, per-tree filters and join operands. Routes to the
  /// ordered loop when any of them fails or a `<<`/`is` pair could fail,
  /// and to the empty result when no tuple can survive.
  Result<Route> Prepare() {
    bool empty = false;
    for (const BoolExpr* c : plan_.constants) {
      auto v = EvalWhere(*c, Env{}, doc_, &evaluator_);
      if (!v.ok()) return Route::kOrdered;
      if (!*v) empty = true;
    }
    filtered_.resize(per_tree_.size());
    for (size_t t = 0; t < per_tree_.size(); ++t) {
      const std::vector<Env>& envs = per_tree_[t];
      for (size_t i = 0; i < envs.size(); ++i) {
        if (!Tick(1)) return Tripped();
        bool keep = true;
        for (const BoolExpr* f : plan_.filters[t]) {
          auto v = EvalWhere(*f, envs[i], doc_, &evaluator_);
          if (!v.ok()) return Route::kOrdered;
          if (!*v) {
            keep = false;
            break;
          }
        }
        if (keep) filtered_[t].push_back(static_cast<uint32_t>(i));
      }
      if (filtered_[t].empty()) empty = true;
    }
    operands_.resize(plan_.predicates.size());
    for (size_t p = 0; p < plan_.predicates.size(); ++p) {
      const JoinPredicate& pred = plan_.predicates[p];
      for (int side = 0; side < 2; ++side) {
        const Operand& op = side == 0 ? pred.compare->left
                                      : pred.compare->right;
        size_t tree = side == 0 ? pred.left_tree : pred.right_tree;
        BT_ASSIGN_OR_RETURN(bool ok, Evaluate(pred.kind, op, tree,
                                              &operands_[p][side]));
        if (!ok) return Route::kOrdered;
      }
      if (pred.kind == CrossJoinKind::kDocOrder ||
          pred.kind == CrossJoinKind::kHashIdentity) {
        // EvalWhere rejects a pair whose operands are both non-empty and
        // not both singletons; which error wins depends on conjunct order.
        const OperandValues& l = operands_[p][0];
        const OperandValues& r = operands_[p][1];
        if ((HasSize(l, 2) && HasSize(r, 1)) ||
            (HasSize(l, 1) && HasSize(r, 2))) {
          return Route::kOrdered;
        }
      }
    }
    return empty ? Route::kEmpty : Route::kJoin;
  }

  /// True when some tuple's operand has at least `n` nodes.
  static bool HasSize(const OperandValues& v, size_t n) {
    for (size_t t = 0; t + 1 < v.node_begin.size(); ++t) {
      if (v.node_begin[t + 1] - v.node_begin[t] >= n) return true;
    }
    return false;
  }

  /// Evaluates `op` over every tuple of `tree`; false when a path fails.
  Result<bool> Evaluate(CrossJoinKind kind, const Operand& op, size_t tree,
                        OperandValues* out) {
    const std::vector<Env>& envs = per_tree_[tree];
    std::vector<uint32_t> keys;
    for (const Env& env : envs) {
      if (!Tick(1)) return Tripped();
      auto nodes = evaluator_.EvaluateWith(op.path, env, {});
      if (!nodes.ok()) return false;
      out->nodes.insert(out->nodes.end(), nodes->begin(), nodes->end());
      out->node_begin.push_back(out->nodes.size());
      if (kind == CrossJoinKind::kHashValue ||
          kind == CrossJoinKind::kNeqSummary) {
        keys.clear();
        for (xml::NodeId n : *nodes) {
          keys.push_back(dictionary_.Intern(doc_.StringValue(n)));
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        out->keys.insert(out->keys.end(), keys.begin(), keys.end());
        out->key_begin.push_back(out->keys.size());
      } else if (kind == CrossJoinKind::kHashDeepEqual) {
        uint64_t h = Combine(3, nodes->size());
        for (xml::NodeId n : *nodes) {
          auto [it, fresh] = node_digests_.emplace(n, 0);
          if (fresh) it->second = SubtreeDigest(doc_, n, &scratch_);
          h = Combine(h, it->second);
        }
        out->digests.push_back(h);
      }
    }
    return true;
  }

  /// Hash keys of tuple `t` for a hashed predicate's operand.
  static void HashKeys(CrossJoinKind kind, const OperandValues& v, size_t t,
                       std::vector<uint64_t>* out) {
    out->clear();
    switch (kind) {
      case CrossJoinKind::kHashValue:
        for (uint32_t k : v.Keys(t)) out->push_back(k);
        break;
      case CrossJoinKind::kHashDeepEqual:
        out->push_back(v.digests[t]);
        break;
      case CrossJoinKind::kHashIdentity:
        if (v.Nodes(t).size() == 1) out->push_back(v.Nodes(t)[0]);
        break;
      default:
        break;
    }
  }

  /// Whether predicate `p` holds for `row` extended by tuple `c` of `tree`.
  bool Holds(size_t p, std::span<const uint32_t> row, size_t tree,
             uint32_t c) const {
    const JoinPredicate& pred = plan_.predicates[p];
    size_t l = pred.left_tree == tree ? c : row[pred.left_tree];
    size_t r = pred.right_tree == tree ? c : row[pred.right_tree];
    const OperandValues& lv = operands_[p][0];
    const OperandValues& rv = operands_[p][1];
    bool v = false;
    switch (pred.kind) {
      case CrossJoinKind::kHashValue:
        v = Intersects(lv.Keys(l), rv.Keys(r));
        break;
      case CrossJoinKind::kNeqSummary: {
        // Some pair differs unless both sides hold one and the same key.
        auto a = lv.Keys(l);
        auto b = rv.Keys(r);
        v = !a.empty() && !b.empty() &&
            !(a.size() == 1 && b.size() == 1 && a[0] == b[0]);
        break;
      }
      case CrossJoinKind::kHashDeepEqual:
        v = lv.digests[l] == rv.digests[r] &&
            exec::DeepEqualSequences(doc_, lv.Nodes(l), rv.Nodes(r));
        break;
      case CrossJoinKind::kHashIdentity: {
        auto a = lv.Nodes(l);
        auto b = rv.Nodes(r);
        v = a.size() == 1 && b.size() == 1 && a[0] == b[0];
        break;
      }
      case CrossJoinKind::kDocOrder: {
        auto a = lv.Nodes(l);
        auto b = rv.Nodes(r);
        v = a.size() == 1 && b.size() == 1 &&
            (pred.compare->op == WhereOp::kDocBefore ? a[0] < b[0]
                                                     : a[0] > b[0]);
        break;
      }
    }
    return v != pred.negated;
  }

  void MergeInto(size_t tree, uint32_t t, Env* env) const {
    for (const auto& [var, nodes] : per_tree_[tree][t]) (*env)[var] = nodes;
  }

  Result<std::vector<Env>> RunJoins() {
    std::vector<uint32_t> rows = filtered_[0];
    size_t width = 1;
    for (const CrossJoinStep& step : plan_.steps) {
      BT_RETURN_NOT_OK(JoinStep(step, &rows, width));
      ++width;
    }
    std::vector<Env> out;
    out.reserve(rows.size() / width);
    for (size_t r = 0; r < rows.size(); r += width) {
      if (!Tick(1)) return Tripped();
      Env env;
      for (size_t t = 0; t < width; ++t) MergeInto(t, rows[r + t], &env);
      out.push_back(std::move(env));
    }
    return out;
  }

  /// Extends each `width`-wide row of `rows` (tuple indices of trees
  /// 0 .. width-1, in lexicographic order) with the matching tuples of
  /// step.tree, in ascending order, so the output stays lexicographic.
  Status JoinStep(const CrossJoinStep& step, std::vector<uint32_t>* rows,
                  size_t width) {
    auto start = std::chrono::steady_clock::now();
    CrossJoinProfile stats;
    stats.label = StepLabel(plan_, step);
    const std::vector<uint32_t>& build = filtered_[step.tree];
    stats.build_rows = build.size();

    // The driving predicate's build side, hashed.
    size_t first_test = 0;
    const JoinPredicate* driver = nullptr;
    const OperandValues* probe_side = nullptr;
    size_t probe_tree = 0;
    std::unordered_map<uint64_t, std::vector<uint32_t>> index;
    std::vector<uint64_t> keys;
    if (step.hashed) {
      size_t p = step.predicates[0];
      driver = &plan_.predicates[p];
      bool build_left = driver->left_tree == step.tree;
      const OperandValues& build_side = operands_[p][build_left ? 0 : 1];
      probe_side = &operands_[p][build_left ? 1 : 0];
      probe_tree = build_left ? driver->right_tree : driver->left_tree;
      for (uint32_t b : build) {
        HashKeys(driver->kind, build_side, b, &keys);
        for (uint64_t k : keys) index[k].push_back(b);
      }
      // Value and identity keys are exact; digests are verified per pair.
      if (driver->kind != CrossJoinKind::kHashDeepEqual) first_test = 1;
    }

    std::vector<uint32_t> next;
    std::vector<uint32_t> candidates;
    std::vector<uint32_t> accepted;
    uint32_t last_probe = UINT32_MAX;
    Env row_env;
    for (size_t r = 0; r < rows->size(); r += width) {
      std::span<const uint32_t> row(rows->data() + r, width);
      ++stats.probe_rows;
      if (!Tick(1)) return Tripped();
      const std::vector<uint32_t>* cands = &build;
      if (driver != nullptr) {
        uint32_t probe = row[probe_tree];
        if (probe != last_probe) {
          // Rows come in lexicographic order, so consecutive rows often
          // share the probe tuple; reuse its candidate list.
          last_probe = probe;
          candidates.clear();
          HashKeys(driver->kind, *probe_side, probe, &keys);
          for (uint64_t k : keys) {
            auto it = index.find(k);
            if (it == index.end()) continue;
            candidates.insert(candidates.end(), it->second.begin(),
                              it->second.end());
          }
          if (keys.size() > 1) {
            std::sort(candidates.begin(), candidates.end());
            candidates.erase(
                std::unique(candidates.begin(), candidates.end()),
                candidates.end());
          }
        }
        cands = &candidates;
      }
      if (!step.residuals.empty()) {
        row_env.clear();
        for (size_t t = 0; t < width; ++t) MergeInto(t, row[t], &row_env);
      }
      accepted.clear();
      for (uint32_t c : *cands) {
        ++stats.candidate_pairs;
        if (!Tick(1)) return Tripped();
        bool ok = true;
        for (size_t i = first_test; ok && i < step.predicates.size(); ++i) {
          ok = Holds(step.predicates[i], row, step.tree, c);
        }
        if (ok && !step.residuals.empty()) {
          BT_ASSIGN_OR_RETURN(ok, Residuals(step, c, &row_env));
        }
        if (ok) accepted.push_back(c);
      }
      if (accepted.empty()) continue;
      // Charge before the rows are materialized.
      if (!Charge(accepted.size())) return Tripped();
      for (uint32_t c : accepted) {
        next.insert(next.end(), row.begin(), row.end());
        next.push_back(c);
      }
      stats.emitted += accepted.size();
    }
    *rows = std::move(next);
    stats.wall_nanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (profile_ != nullptr) profile_->push_back(std::move(stats));
    return Status::OK();
  }

  /// The step's residual conjuncts, in order, on `row_env` extended by
  /// tuple `c` of step.tree (whose variables are removed again after).
  Result<bool> Residuals(const CrossJoinStep& step, uint32_t c, Env* row_env) {
    const Env& added = per_tree_[step.tree][c];
    for (const auto& [var, nodes] : added) (*row_env)[var] = nodes;
    bool ok = true;
    Status error;
    for (const BoolExpr* res : step.residuals) {
      auto v = EvalWhere(*res, *row_env, doc_, &evaluator_);
      if (!v.ok()) {
        error = v.status();
        break;
      }
      if (!*v) {
        ok = false;
        break;
      }
    }
    for (const auto& entry : added) row_env->erase(entry.first);
    if (!error.ok()) return error;
    return ok;
  }

  /// The reference semantics, streamed: every combination in lexicographic
  /// order, the whole where-clause per combination.
  Result<std::vector<Env>> RunOrderedLoop() {
    auto start = std::chrono::steady_clock::now();
    CrossJoinProfile stats;
    stats.label = "NestedLoopWhere(ordered: a conjunct may raise an error)";
    stats.build_rows = per_tree_.back().size();
    std::vector<size_t> idx(per_tree_.size(), 0);
    std::vector<Env> out;
    for (bool more = true; more;) {
      ++stats.candidate_pairs;
      if (!Tick(1)) return Tripped();
      Env env;
      for (size_t t = 0; t < idx.size(); ++t) {
        MergeInto(t, static_cast<uint32_t>(idx[t]), &env);
      }
      bool keep = true;
      if (plan_.where != nullptr) {
        BT_ASSIGN_OR_RETURN(keep,
                            EvalWhere(*plan_.where, env, doc_, &evaluator_));
      }
      if (keep) {
        if (!Charge(1)) return Tripped();
        out.push_back(std::move(env));
      }
      // Advance the mixed-radix counter, last tree fastest.
      more = false;
      for (size_t t = idx.size(); t-- > 0;) {
        if (++idx[t] < per_tree_[t].size()) {
          more = true;
          break;
        }
        idx[t] = 0;
      }
    }
    stats.probe_rows = stats.candidate_pairs / stats.build_rows;
    stats.emitted = out.size();
    stats.wall_nanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (profile_ != nullptr) profile_->push_back(std::move(stats));
    return out;
  }

  const CrossJoinPlan& plan_;
  const std::vector<std::vector<Env>>& per_tree_;
  const xml::Document& doc_;
  util::ResourceGuard* guard_;
  std::vector<CrossJoinProfile>* profile_;
  PathEvaluator evaluator_;
  uint64_t since_check_ = 0;
  /// Per tree: indices of the tuples that pass its filters, ascending.
  std::vector<std::vector<uint32_t>> filtered_;
  /// Per predicate: left and right operand values.
  std::vector<std::array<OperandValues, 2>> operands_;
  KeyDictionary dictionary_;
  std::unordered_map<xml::NodeId, uint64_t> node_digests_;
  std::vector<uint64_t> scratch_;
};

}  // namespace

std::string JoinPredicate::Label() const {
  std::string text = BoolText(*compare);
  if (negated) text = "not(" + text + ")";
  return std::string(CrossJoinKindToString(kind)) + "(" + text + ")";
}

std::string CrossJoinPlan::Explain() const {
  std::string out = "crossing-edge joins (left-deep, tree order):\n";
  for (size_t t = 0; t < filters.size(); ++t) {
    for (const BoolExpr* f : filters[t]) {
      out += "  filter tree " + std::to_string(t) + ": " + BoolText(*f) + "\n";
    }
  }
  for (const BoolExpr* c : constants) {
    out += "  constant: " + BoolText(*c) + "\n";
  }
  for (const CrossJoinStep& step : steps) {
    out += "  tree " + std::to_string(step.tree) + ": " +
           StepLabel(*this, step) + "\n";
    for (const BoolExpr* r : step.residuals) {
      out += "    residual: " + BoolText(*r) + "\n";
    }
  }
  if (may_error) {
    out += "  ordered nested loop: a conjunct may raise an error\n";
  }
  return out;
}

CrossJoinPlan PlanCrossJoins(const flwor::Flwor& flwor,
                             const pattern::BlossomTree& tree) {
  CrossJoinPlan plan;
  plan.where = flwor.where.get();
  const std::vector<pattern::VertexId>& roots = tree.roots();
  plan.num_trees = roots.size();
  plan.filters.resize(plan.num_trees);
  for (size_t t = 1; t < plan.num_trees; ++t) {
    plan.steps.emplace_back();
    plan.steps.back().tree = t;
  }
  VarTrees vars;
  for (const flwor::Binding& b : flwor.bindings) {
    pattern::VertexId v = tree.VertexOfVariable(b.var);
    if (v == pattern::kNoVertex) continue;
    while (tree.vertex(v).parent != pattern::kNoVertex) {
      v = tree.vertex(v).parent;
    }
    auto it = std::find(roots.begin(), roots.end(), v);
    if (it != roots.end()) vars[b.var] = it - roots.begin();
  }
  if (plan.where == nullptr) return plan;

  std::vector<const BoolExpr*> conjuncts;
  FlattenAnd(plan.where, &conjuncts);
  for (const BoolExpr* c : conjuncts) {
    std::set<size_t> trees;
    bool known = CollectTrees(*c, vars, &trees);
    JoinPredicate pred;
    if (known && trees.size() == 2 && AsJoinPredicate(c, vars, &pred)) {
      plan.steps[std::max(pred.left_tree, pred.right_tree) - 1]
          .predicates.push_back(plan.predicates.size());
      plan.predicates.push_back(pred);
      continue;
    }
    if (known && trees.size() == 1) {
      // Errors here surface per tuple, before the join (see Prepare).
      plan.filters[*trees.begin()].push_back(c);
      continue;
    }
    if (!known || MayError(*c)) plan.may_error = true;
    if (known && trees.empty()) {
      plan.constants.push_back(c);
    } else {
      size_t last = known ? *trees.rbegin() : plan.num_trees - 1;
      plan.steps[std::max<size_t>(last, 1) - 1].residuals.push_back(c);
    }
  }
  // Drive each step with its first hashable predicate.
  for (CrossJoinStep& step : plan.steps) {
    auto it = std::find_if(
        step.predicates.begin(), step.predicates.end(),
        [&](size_t p) { return IsHashable(plan.predicates[p]); });
    if (it == step.predicates.end()) continue;
    std::rotate(step.predicates.begin(), it, it + 1);
    step.hashed = true;
  }
  return plan;
}

Result<std::vector<Env>> ExecuteCrossJoins(
    const CrossJoinPlan& plan, const std::vector<std::vector<Env>>& per_tree,
    const xml::Document& doc, util::ResourceGuard* guard,
    std::vector<CrossJoinProfile>* profile) {
  if (per_tree.size() != plan.num_trees || plan.num_trees < 2) {
    return Status::Internal("cross join: needs two or more pattern trees");
  }
  CrossJoinExecutor executor(plan, per_tree, doc, guard, profile);
  return executor.Run();
}

}  // namespace engine
}  // namespace blossomtree
