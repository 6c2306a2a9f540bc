#ifndef BLOSSOMTREE_ENGINE_CROSS_JOIN_H_
#define BLOSSOMTREE_ENGINE_CROSS_JOIN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "engine/path_eval.h"
#include "engine/query_profile.h"
#include "flwor/ast.h"
#include "pattern/blossom_tree.h"
#include "util/resource_guard.h"
#include "util/status.h"

namespace blossomtree {
namespace engine {

/// \brief How one crossing edge is evaluated (DESIGN.md §17).
enum class CrossJoinKind {
  kHashValue,      ///< `=`: hash join on normalized value keys.
  kHashDeepEqual,  ///< deep-equal: hash join on a structural digest,
                   ///< every candidate verified.
  kHashIdentity,   ///< `is`: hash join on node id.
  kNeqSummary,     ///< `!=`: O(1) test on per-tuple key summaries.
  kDocOrder,       ///< `<<` / `>>`: O(1) test on node ids.
};

/// \brief A crossing edge the join decides: a comparison between
/// variable-rooted paths of two different pattern trees, possibly under
/// `not`.
struct JoinPredicate {
  const flwor::BoolExpr* compare = nullptr;  ///< The kCompare node.
  bool negated = false;
  CrossJoinKind kind = CrossJoinKind::kHashValue;
  size_t left_tree = 0;   ///< Pattern tree of compare->left's variable.
  size_t right_tree = 0;  ///< Pattern tree of compare->right's variable.

  /// \brief e.g. "HashValueJoin($a/author = $b/author)".
  std::string Label() const;
};

/// \brief One left-deep step: joins the tuples of trees [0, tree) with the
/// tuples of `tree`.
struct CrossJoinStep {
  size_t tree = 0;
  /// Indices into CrossJoinPlan::predicates whose later tree is `tree`. When
  /// `hashed`, the first one drives a hash probe and the rest are per-pair
  /// tests; otherwise every build tuple is a candidate.
  std::vector<size_t> predicates;
  bool hashed = false;
  /// Conjuncts over `tree` and earlier trees that are not join predicates,
  /// evaluated with EvalWhere on the candidates that pass the predicates.
  std::vector<const flwor::BoolExpr*> residuals;
};

/// \brief The crossing-edge join of a multi-tree FLWOR: the `where` clause
/// split at its top-level `and` into per-tree filters, join predicates,
/// variable-free conjuncts, and residuals.
struct CrossJoinPlan {
  const flwor::BoolExpr* where = nullptr;
  size_t num_trees = 0;
  /// Per pattern tree: conjuncts over that tree's variables alone, pushed
  /// below the join.
  std::vector<std::vector<const flwor::BoolExpr*>> filters;
  /// Conjuncts with no variables, evaluated once.
  std::vector<const flwor::BoolExpr*> constants;
  std::vector<JoinPredicate> predicates;
  std::vector<CrossJoinStep> steps;  ///< For trees 1 .. num_trees - 1.
  /// A residual or constant conjunct may raise an error (`<<`/`is` on
  /// non-singletons, an unbound variable, ...). Which error the reference
  /// raises depends on conjunct order, so such FLWORs take the ordered
  /// nested loop.
  bool may_error = false;

  /// \brief EXPLAIN lines for the join.
  std::string Explain() const;
};

/// \brief Splits `flwor`'s where-clause over the pattern trees of `tree`
/// (the BlossomTree built from `flwor`, with two or more pattern trees). The
/// plan points into `flwor`, which must outlive it.
CrossJoinPlan PlanCrossJoins(const flwor::Flwor& flwor,
                             const pattern::BlossomTree& tree);

/// \brief Joins the per-tree binding tuples `per_tree` (EnumerateBindings
/// output, in plan.trees order) under `plan`. Requires two or more pattern
/// trees; single-tree FLWORs never reach the join.
///
/// The result equals CrossEnvs(per_tree) filtered by EvalWhere on the whole
/// where-clause, in the same order (tree 0 outermost), including which
/// error is returned. Every materialized tuple, intermediate or final, is
/// charged to `guard` as a result row before it is appended; the deadline
/// and cancellation are sampled at least once per probe batch. `profile`,
/// when non-null, receives one entry per step.
Result<std::vector<Env>> ExecuteCrossJoins(
    const CrossJoinPlan& plan, const std::vector<std::vector<Env>>& per_tree,
    const xml::Document& doc, util::ResourceGuard* guard,
    std::vector<CrossJoinProfile>* profile);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_CROSS_JOIN_H_
