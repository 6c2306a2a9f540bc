#include "engine/binder.h"

#include <gtest/gtest.h>

#include "exec/operator.h"
#include "flwor/parser.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "xml/parser.h"

namespace blossomtree {
namespace engine {
namespace {

std::unique_ptr<xml::Document> Parse(std::string_view s) {
  auto r = xml::ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Runs the full NestedList pipeline for a FLWOR's pattern trees and
/// enumerates the environments.
struct BinderFixture {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<flwor::Expr> expr;
  pattern::BlossomTree tree;
  std::vector<Env> envs;

  BinderFixture(const char* xml, const char* query) : doc(Parse(xml)) {
    auto e = flwor::ParseQuery(query);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    expr = e.MoveValue();
    auto t = pattern::BuildFromQuery(*expr);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    tree = t.MoveValue();
    auto plan = opt::PlanQuery(doc.get(), &tree);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto bindings = ComputeSlotBindings(tree, *expr->flwor);
    std::vector<std::vector<Env>> per_tree;
    for (auto& tp : plan->trees) {
      auto lists = exec::Drain(tp.root.get());
      per_tree.push_back(EnumerateBindings(tree, tp.tops, lists, bindings));
    }
    envs = CrossEnvs(per_tree);
  }
};

TEST(BinderTest, ForBindingBranchesPerMatch) {
  BinderFixture fx("<r><k>1</k><k>2</k></r>", "for $x in //k return $x");
  ASSERT_EQ(fx.envs.size(), 2u);
  for (const Env& e : fx.envs) {
    ASSERT_EQ(e.count("x"), 1u);
    EXPECT_EQ(e.at("x").size(), 1u);
  }
}

TEST(BinderTest, LetBindingCollectsSequence) {
  BinderFixture fx("<r><g><k/><k/></g></r>",
                   "for $g in //g let $ks := $g/k return $g");
  ASSERT_EQ(fx.envs.size(), 1u);
  EXPECT_EQ(fx.envs[0].at("ks").size(), 2u);
}

TEST(BinderTest, LetOverEmptyBindsEmptySequence) {
  BinderFixture fx("<r><g/></r>", "for $g in //g let $ks := $g/k return $g");
  ASSERT_EQ(fx.envs.size(), 1u);
  EXPECT_TRUE(fx.envs[0].at("ks").empty());
}

TEST(BinderTest, LetOverAbsolutePathBindsWholeSequenceOnce) {
  BinderFixture fx("<r><k/><k/><m/><m/><m/></r>",
                   "for $x in //k let $all := //m return $x");
  // One tuple per $x, each seeing all three m's — not one per m.
  ASSERT_EQ(fx.envs.size(), 2u);
  for (const Env& e : fx.envs) EXPECT_EQ(e.at("all").size(), 3u);
}

TEST(BinderTest, LetOverAbsolutePathWithoutMatchesBindsEmpty) {
  BinderFixture fx("<r><k/></r>", "for $x in //k let $all := //m return $x");
  ASSERT_EQ(fx.envs.size(), 1u);
  EXPECT_TRUE(fx.envs[0].at("all").empty());
}

TEST(BinderTest, NestedForMultiplies) {
  BinderFixture fx("<r><g><k/><k/></g><g><k/></g></r>",
                   "for $g in //g for $k in $g/k return $k");
  // (g1,k1),(g1,k2),(g2,k3).
  ASSERT_EQ(fx.envs.size(), 3u);
}

TEST(BinderTest, ForOverEmptyYieldsNoTuples) {
  BinderFixture fx("<r><g/></r>", "for $g in //g for $k in $g/k return $k");
  EXPECT_TRUE(fx.envs.empty());
}

TEST(BinderTest, CrossProductOfTrees) {
  BinderFixture fx("<r><a/><a/><b/></r>",
                   "for $x in //a, $y in //b return $x");
  EXPECT_EQ(fx.envs.size(), 2u);  // 2 a's × 1 b.
}

TEST(BinderTest, DedupOnRecursiveEmbeddings) {
  // The same k is reachable under two nested g's; $k must bind once per
  // distinct (g, k) pair — and //g//k's k under both g's gives 2 pairs.
  BinderFixture fx("<r><g><g><k/></g></g></r>",
                   "for $k in //g//k return $k");
  // $k binds the single distinct k node once.
  ASSERT_EQ(fx.envs.size(), 1u);
}

TEST(BinderTest, ComputeSlotBindingsMarksKinds) {
  BinderFixture fx("<r><g><k/></g></r>",
                   "for $g in //g let $ks := $g/k return $g");
  auto bindings = ComputeSlotBindings(fx.tree, *fx.expr->flwor);
  pattern::SlotId sg = fx.tree.SlotOfVariable("g");
  pattern::SlotId sk = fx.tree.SlotOfVariable("ks");
  ASSERT_NE(sg, pattern::kNoSlot);
  ASSERT_NE(sk, pattern::kNoSlot);
  EXPECT_EQ(bindings[sg].variable, "g");
  EXPECT_FALSE(bindings[sg].is_let);
  EXPECT_TRUE(bindings[sk].is_let);
}

TEST(BinderTest, CrossEnvsMergesDisjointKeys) {
  std::vector<std::vector<Env>> per_tree(2);
  Env a1;
  a1["x"] = {1};
  Env a2;
  a2["x"] = {2};
  per_tree[0] = {a1, a2};
  Env b1;
  b1["y"] = {9};
  per_tree[1] = {b1};
  auto out = CrossEnvs(per_tree);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].at("x")[0], 1u);
  EXPECT_EQ(out[0].at("y")[0], 9u);
  EXPECT_EQ(out[1].at("x")[0], 2u);
}

TEST(BinderTest, CrossEnvsWithEmptyTreeIsEmpty) {
  std::vector<std::vector<Env>> per_tree(2);
  per_tree[0] = {Env{}};
  per_tree[1] = {};
  EXPECT_TRUE(CrossEnvs(per_tree).empty());
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
