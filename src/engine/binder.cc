#include "engine/binder.h"

#include <algorithm>
#include <set>

#include "util/trace.h"

namespace blossomtree {
namespace engine {

using nestedlist::Entry;
using nestedlist::Group;
using nestedlist::NestedList;
using pattern::SlotId;

std::vector<SlotBinding> ComputeSlotBindings(const pattern::BlossomTree& tree,
                                             const flwor::Flwor& flwor) {
  util::TraceSpan span("engine", "bind");
  std::vector<SlotBinding> out(tree.NumSlots());
  for (const flwor::Binding& b : flwor.bindings) {
    SlotId s = tree.SlotOfVariable(b.var);
    if (s == pattern::kNoSlot) continue;
    out[s].variable = b.var;
    out[s].is_let = b.kind == flwor::Binding::Kind::kLet;
  }
  return out;
}

namespace {

/// Merges two env lists as a cross product.
std::vector<Env> Cross(const std::vector<Env>& a, const std::vector<Env>& b) {
  std::vector<Env> out;
  out.reserve(a.size() * b.size());
  for (const Env& x : a) {
    for (const Env& y : b) {
      Env merged = x;
      for (const auto& [k, v] : y) merged[k] = v;
      out.push_back(std::move(merged));
    }
  }
  return out;
}

class Expander {
 public:
  Expander(const pattern::BlossomTree& tree,
           const std::vector<SlotBinding>& bindings)
      : tree_(tree), bindings_(bindings) {}

  /// Envs induced by group `g` of slot `s`.
  std::vector<Env> ExpandSlot(SlotId s, const Group& g) {
    const SlotBinding& sb = bindings_[s];
    if (!sb.variable.empty() && sb.is_let) {
      // let-binding: the whole (possibly empty) sequence in one env.
      Env env;
      std::vector<xml::NodeId>& seq = env[sb.variable];
      for (const Entry& e : g) {
        if (!e.IsPlaceholder()) seq.push_back(e.node);
      }
      // Variables nested below a let-binding would require sequence-valued
      // iteration; the supported FLWOR subset never produces them.
      return {std::move(env)};
    }
    if (!sb.variable.empty()) {
      // for-binding: one branch per match.
      std::vector<Env> out;
      for (const Entry& e : g) {
        if (e.IsPlaceholder()) continue;
        std::vector<Env> below = ExpandChildren(s, e);
        for (Env& env : below) {
          env[sb.variable] = {e.node};
          out.push_back(std::move(env));
        }
      }
      return out;
    }
    // Non-blossom returning slot (join endpoint): no branching — union the
    // environments contributed by every match.
    if (!SubtreeHasVariable(s)) {
      return {Env{}};
    }
    std::vector<Env> out;
    for (const Entry& e : g) {
      if (e.IsPlaceholder()) continue;
      std::vector<Env> below = ExpandChildren(s, e);
      out.insert(out.end(), std::make_move_iterator(below.begin()),
                 std::make_move_iterator(below.end()));
    }
    return out;
  }

 private:
  std::vector<Env> ExpandChildren(SlotId s, const Entry& e) {
    std::vector<Env> result = {Env{}};
    const auto& kids = tree_.slot(s).children;
    for (size_t i = 0; i < kids.size() && i < e.groups.size(); ++i) {
      if (!SubtreeHasVariable(kids[i])) continue;
      std::vector<Env> branch = ExpandSlot(kids[i], e.groups[i]);
      if (branch.empty()) {
        // No matches below. If everything down there is let-bound, the
        // bindings are empty sequences; a for-bound variable means zero
        // iterations, killing this entry's contribution.
        Env lets;
        if (!BindAllLetsEmpty(kids[i], &lets)) return {};
        branch.push_back(std::move(lets));
      }
      result = Cross(result, branch);
    }
    return result;
  }

  /// Binds every variable under `s` (inclusive) to the empty sequence;
  /// returns false if any of them is for-bound.
  bool BindAllLetsEmpty(SlotId s, Env* env) {
    const SlotBinding& sb = bindings_[s];
    if (!sb.variable.empty()) {
      if (!sb.is_let) return false;
      (*env)[sb.variable] = {};
    }
    for (SlotId c : tree_.slot(s).children) {
      if (!BindAllLetsEmpty(c, env)) return false;
    }
    return true;
  }

  bool SubtreeHasVariable(SlotId s) {
    if (!bindings_[s].variable.empty()) return true;
    for (SlotId c : tree_.slot(s).children) {
      if (SubtreeHasVariable(c)) return true;
    }
    return false;
  }

  const pattern::BlossomTree& tree_;
  const std::vector<SlotBinding>& bindings_;
};

/// Appends the blossom slots of the returning subtree rooted at `s`.
void CollectBlossoms(const pattern::BlossomTree& tree, SlotId s,
                     const std::vector<SlotBinding>& bindings,
                     std::vector<SlotId>* out) {
  if (!bindings[s].variable.empty()) out->push_back(s);
  for (SlotId c : tree.slot(s).children) {
    CollectBlossoms(tree, c, bindings, out);
  }
}

}  // namespace

std::vector<Env> EnumerateBindings(const pattern::BlossomTree& tree,
                                   const std::vector<SlotId>& tops,
                                   const std::vector<NestedList>& lists,
                                   const std::vector<SlotBinding>& bindings) {
  std::vector<SlotId> blossoms;
  for (SlotId t : tops) CollectBlossoms(tree, t, bindings, &blossoms);
  // A pattern tree whose blossoms are all let-bound comes from
  // `let $v := <absolute path>`: it binds each variable once, to all of
  // its matches in document order (possibly none), not once per
  // NestedList.
  bool let_only = !blossoms.empty();
  for (SlotId s : blossoms) let_only = let_only && bindings[s].is_let;
  Expander expander(tree, bindings);
  std::vector<Env> out;
  for (const NestedList& nl : lists) {
    std::vector<Env> per_list = {Env{}};
    for (size_t t = 0; t < tops.size() && t < nl.tops.size(); ++t) {
      std::vector<Env> branch = expander.ExpandSlot(tops[t], nl.tops[t]);
      if (branch.empty()) {
        per_list.clear();
        break;
      }
      per_list = Cross(per_list, branch);
    }
    out.insert(out.end(), std::make_move_iterator(per_list.begin()),
               std::make_move_iterator(per_list.end()));
  }
  if (let_only) {
    Env merged;
    for (SlotId s : blossoms) merged[bindings[s].variable];
    for (const Env& env : out) {
      for (const auto& [var, nodes] : env) {
        std::vector<xml::NodeId>& seq = merged[var];
        seq.insert(seq.end(), nodes.begin(), nodes.end());
      }
    }
    for (auto& [var, seq] : merged) {
      std::sort(seq.begin(), seq.end());
      seq.erase(std::unique(seq.begin(), seq.end()), seq.end());
    }
    return {std::move(merged)};
  }
  // Dedup on for-bound assignments: the same node reachable through two
  // embeddings (recursive documents) binds once.
  std::set<std::vector<std::pair<std::string, std::vector<xml::NodeId>>>>
      seen;
  std::vector<Env> deduped;
  for (Env& env : out) {
    std::vector<std::pair<std::string, std::vector<xml::NodeId>>> key(
        env.begin(), env.end());
    if (seen.insert(key).second) deduped.push_back(std::move(env));
  }
  return deduped;
}

std::vector<Env> CrossEnvs(const std::vector<std::vector<Env>>& per_tree) {
  std::vector<Env> out = {Env{}};
  for (const auto& envs : per_tree) {
    out = Cross(out, envs);
  }
  return out;
}

}  // namespace engine
}  // namespace blossomtree
