#ifndef BLOSSOMTREE_ENGINE_BINDER_H_
#define BLOSSOMTREE_ENGINE_BINDER_H_

#include <vector>

#include "engine/path_eval.h"
#include "flwor/ast.h"
#include "nestedlist/nested_list.h"
#include "pattern/blossom_tree.h"

namespace blossomtree {
namespace engine {

/// \brief Variable-binding metadata per slot (derived from the FLWOR
/// bindings): whether the slot's blossom is for-bound (one tuple per match)
/// or let-bound (the whole match sequence in one binding).
struct SlotBinding {
  std::string variable;  ///< Empty for non-blossom slots.
  bool is_let = false;
};

/// \brief Computes per-slot binding metadata from the FLWOR clause list.
std::vector<SlotBinding> ComputeSlotBindings(const pattern::BlossomTree& tree,
                                             const flwor::Flwor& flwor);

/// \brief The variable-binding step of Figure 2 (NestedList → Env): expands
/// one pattern tree's NestedList sequence into the environments its blossoms
/// induce — for-bound blossoms branch per match, let-bound blossoms bind
/// their whole group (possibly empty), non-blossom returning slots are
/// traversed without branching.
///
/// Environments are deduplicated on their for-bound node assignments (path
/// expressions bind node *sets*, so a node reachable through two embeddings
/// still yields one binding).
std::vector<Env> EnumerateBindings(
    const pattern::BlossomTree& tree,
    const std::vector<pattern::SlotId>& tops,
    const std::vector<nestedlist::NestedList>& lists,
    const std::vector<SlotBinding>& bindings);

/// \brief Cross product of environment lists from independent pattern
/// trees. The engine no longer calls it: crossing edges are evaluated as
/// joins over binding tuples (engine/cross_join.h), which materialize only
/// the surviving tuples. Kept as the unfiltered reference.
std::vector<Env> CrossEnvs(const std::vector<std::vector<Env>>& per_tree);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_BINDER_H_
