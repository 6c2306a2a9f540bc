// Crossing-edge joins (DESIGN.md §17) against the navigational reference:
// every multi-tree FLWOR must serialize byte for byte like the per-iteration
// evaluation, or fail with the same error.
#include "engine/cross_join.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/navigational.h"
#include "engine/engine.h"
#include "flwor/parser.h"
#include "pattern/builder.h"
#include "util/rng.h"
#include "xml/parser.h"

namespace blossomtree {
namespace engine {
namespace {

/// Values chosen to collide under CompareValues' numeric rules ("1", "1.0",
/// "01", "1e0", " 1" are all 1; "-0" is 0) next to plain strings.
const char* const kValues[] = {"1",  "1.0", "01", "1e0", " 1", "-0",
                               "0",  "2",   "x",  "y",   "x y"};
constexpr size_t kNumValues = sizeof(kValues) / sizeof(kValues[0]);

/// A random bibliography: books, articles and inproceedings with 0-3
/// authors, one title (sometimes with attributed markup, for deep-equal),
/// a year, and a rare editor (so some operands are empty).
std::unique_ptr<xml::Document> RandomBibliography(Rng* rng, size_t entries) {
  static const char* kKinds[] = {"book", "article", "inproc"};
  auto doc = std::make_unique<xml::Document>();
  doc->BeginElement("bib");
  for (size_t e = 0; e < entries; ++e) {
    doc->BeginElement(kKinds[rng->Uniform(3)]);
    size_t authors = rng->Uniform(4);
    for (size_t i = 0; i < authors; ++i) {
      doc->BeginElement("author");
      doc->AddText(kValues[rng->Uniform(kNumValues)]);
      doc->EndElement();
    }
    doc->BeginElement("title");
    doc->AddText(kValues[rng->Uniform(4) + 7]);
    if (rng->Chance(0.3)) {
      doc->BeginElement("i");
      if (rng->Chance(0.5)) doc->AddAttribute("lang", "en");
      if (rng->Chance(0.5)) doc->AddAttribute("style", "b");
      doc->AddText(kValues[rng->Uniform(2) + 7]);
      doc->EndElement();
    }
    doc->EndElement();
    doc->BeginElement("year");
    doc->AddText(kValues[rng->Uniform(kNumValues)]);
    doc->EndElement();
    if (rng->Chance(0.15)) {
      doc->BeginElement("editor");
      doc->AddText(kValues[rng->Uniform(3) + 7]);
      doc->EndElement();
    }
    doc->EndElement();
  }
  doc->EndElement();
  EXPECT_TRUE(doc->Finish().ok());
  return doc;
}

const char* const kQueries[] = {
    // = on multi-valued operands, with the numeric key variants.
    "for $a in //book, $b in //article where $a/author = $b/author "
    "return <p>{$a/title}{$b/year}</p>",
    "for $a in //book, $b in //article where $a/year = $b/year "
    "return <p>{$a/year}{$b/year}</p>",
    // !=, including empty operands.
    "for $a in //book, $b in //inproc where $a/author != $b/author "
    "return <n>{$a/author}{$b/author}</n>",
    "for $a in //book, $b in //inproc where $a/editor != $b/editor "
    "return <n>{$b/editor}</n>",
    // Document order and identity.
    "for $a in //book, $b in //article where $a << $b return <o>{$a/year}</o>",
    "for $a in //book, $b in //article where $a >> $b return <o>{$b/year}</o>",
    "for $a in //book, $b in //book where $a is $b return <i>{$a/title}</i>",
    "for $a in //book, $b in //article where $a/title << $b/title "
    "return <o/>",
    // deep-equal, including deep-equal((), ()).
    "for $a in //book, $b in //article where deep-equal($a/title, $b/title) "
    "return <d>{$b/title}</d>",
    "for $a in //book, $b in //inproc where deep-equal($a/author, $b/author) "
    "return <d>{$a/author}</d>",
    "for $a in //book, $b in //inproc where deep-equal($a/editor, $b/editor) "
    "return <d/>",
    // Negated edges.
    "for $a in //book, $b in //article where not($a/author = $b/author) "
    "return <x>{$a/author}</x>",
    "for $a in //book, $b in //article where not($a << $b) return <x/>",
    "for $a in //book, $b in //article "
    "where not(deep-equal($a/title, $b/title)) return <x>{$a/title}</x>",
    "for $a in //book, $b in //article where not(not($a/year = $b/year)) "
    "return <x>{$b/year}</x>",
    // or residuals and literal pushdown conjuncts.
    "for $a in //book, $b in //article "
    "where $a/author = $b/author or $a/year = $b/year return <r>{$a/year}</r>",
    "for $a in //book, $b in //article "
    "where ($a/year = \"1\" or $b/year = \"x\") and $a/author = $b/author "
    "return <r>{$b/author}</r>",
    "for $a in //book, $b in //article where $a/year = \"1\" and "
    "$a/author = $b/author and $b/year != \"0\" return <r>{$a/title}</r>",
    "for $a in //book, $b in //article where $a/author = $b/author and "
    "$a << $b and $a/year != $b/year return <r>{$a/year}{$b/year}</r>",
    "for $a in //book, $b in //article "
    "where count($a/author) = count($b/author) return <c/>",
    "for $a in //book, $b in //article where \"1\" = \"1.0\" and "
    "$a/author = $b/author return <k/>",
    "for $a in //book, $b in //article where \"1\" = \"2\" return <k/>",
    // Three trees, with an edge only between trees 0 and 2.
    "for $a in //book, $b in //article, $c in //inproc "
    "where $a/author = $c/author return <t>{$a/year}{$b/year}{$c/year}</t>",
    "for $a in //book, $b in //article, $c in //inproc "
    "where $a/author = $c/author and $b/year = $c/year "
    "return <t>{$c/title}</t>",
    // let-bound and nested-for operands.
    "for $a in //book, $b in //article let $ba := $b/author "
    "where $a/author = $ba return <l>{$ba}</l>",
    "for $a in //book, $b in //article, $t in $b/title "
    "where deep-equal($a/title, $t) return <l>{$t}</l>",
    "for $a in //book, $b in //article, $y in $b/year "
    "where $a/year = $y return <l>{$y}</l>",
    "for $a in //book let $all := //article where $a/author = $all/author "
    "return <l>{$a/title}</l>",
    "let $all := //article for $a in //book where $a/year = $all/year "
    "return <l>{$a/year}</l>",
    // No where-clause: a plain cross product.
    "for $a in //book, $b in //inproc return <x>{$a/year}{$b/year}</x>",
    // Ordering over joined tuples.
    "for $a in //book, $b in //article where $a/author = $b/author "
    "order by $b/year return <s>{$b/year}</s>",
    // A non-singleton '<<' operand: the reference's error, not a result.
    "for $a in //book, $b in //article where $a/author << $b/author "
    "return <e/>",
    "for $a in //book, $b in //article where $a/author = $b/author and "
    "$a/author is $b/author return <e/>",
    // ... unless an earlier conjunct is false for every pair.
    "for $a in //book, $b in //article where $a/year = \"zzz\" and "
    "$a/author << $b/author return <e/>",
};

class CrossJoinDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossJoinDifferentialTest, MatchesNavigationalReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  auto doc = RandomBibliography(&rng, 12 + rng.Uniform(30));
  EngineOptions options;
  options.num_threads = 1;
  for (const char* query : kQueries) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(GetParam()) +
                 " query=" + query);
    BlossomTreeEngine engine(doc.get(), options);
    baseline::NavigationalEvaluator reference(doc.get());
    auto got = engine.EvaluateQuery(query);
    auto want = reference.EvaluateQuery(query);
    ASSERT_EQ(got.ok(), want.ok())
        << "engine: " << got.status().ToString()
        << " reference: " << want.status().ToString();
    if (want.ok()) {
      EXPECT_EQ(got.value(), want.value());
    } else {
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().message(), want.status().message());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossJoinDifferentialTest,
                         ::testing::Range(0, 24));

std::unique_ptr<xml::Document> Parse(std::string_view xml) {
  auto r = xml::ParseDocument(xml);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(CrossJoinTest, NumericKeysFollowCompareValues) {
  auto doc = Parse(
      "<r><a><v>1</v></a><a><v>-0</v></a><a><v>x</v></a>"
      "<b><v>1.0</v></b><b><v>01</v></b><b><v>1e0</v></b><b><v> 1</v></b>"
      "<b><v>0</v></b><b><v>1x</v></b><b><v>x</v></b></r>");
  const char* query =
      "for $a in //a, $b in //b where $a/v = $b/v "
      "return <m>{$a/v}{$b/v}</m>";
  BlossomTreeEngine engine(doc.get(), {});
  auto got = engine.EvaluateQuery(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(),
            "<m><v>1</v><v>1.0</v></m><m><v>1</v><v>01</v></m>"
            "<m><v>1</v><v>1e0</v></m><m><v>1</v><v> 1</v></m>"
            "<m><v>-0</v><v>0</v></m><m><v>x</v><v>x</v></m>");
  baseline::NavigationalEvaluator reference(doc.get());
  EXPECT_EQ(got.value(), reference.EvaluateQuery(query).value());
}

TEST(CrossJoinTest, ExplainNamesTheJoinOfEachCrossingEdge) {
  auto doc = Parse("<r><a><x>1</x></a><b><x>1</x></b><c/></r>");
  BlossomTreeEngine engine(doc.get(), {});
  ASSERT_TRUE(engine
                  .EvaluateQuery(
                      "for $a in //a, $b in //b, $c in //c where "
                      "$a/x = $b/x and $a << $c and $b/x != \"2\" "
                      "return <p/>")
                  .ok());
  const std::string& explain = engine.LastExplain();
  EXPECT_NE(explain.find("tree 1: HashValueJoin($a/x = $b/x)"),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("tree 2: DocOrderJoin($a << $c)"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("filter tree 1: $b/x != \"2\""), std::string::npos)
      << explain;
}

TEST(CrossJoinTest, ProfileReportsJoinCounters) {
  auto doc = Parse(
      "<r><a><x>1</x></a><a><x>2</x></a><a><x>3</x></a>"
      "<b><x>2</x></b><b><x>3</x></b><b><x>3</x></b><b><x>4</x></b></r>");
  EngineOptions options;
  options.collect_profile = true;
  BlossomTreeEngine engine(doc.get(), options);
  ASSERT_TRUE(engine
                  .EvaluateQuery("for $a in //a, $b in //b where $a/x = $b/x "
                                 "return <p/>")
                  .ok());
  const QueryProfile& profile = engine.LastProfile();
  ASSERT_EQ(profile.cross_joins.size(), 1u);
  const CrossJoinProfile& join = profile.cross_joins[0];
  EXPECT_EQ(join.label, "HashValueJoin($a/x = $b/x)");
  EXPECT_EQ(join.build_rows, 4u);
  EXPECT_EQ(join.probe_rows, 3u);
  EXPECT_EQ(join.candidate_pairs, 3u);  // 2→{2}, 3→{3,3}; 1 finds nothing.
  EXPECT_EQ(join.emitted, 3u);
  EXPECT_NE(profile.ToJson().find("\"cross_joins\": [{\"label\": "
                                  "\"HashValueJoin($a/x = $b/x)\""),
            std::string::npos);
  EXPECT_NE(profile.ToText().find("build_rows=4 probe_rows=3 "
                                  "candidate_pairs=3 emitted=3"),
            std::string::npos);
  EXPECT_NE(engine.LastExplainAnalyze().find("crossing-edge joins:"),
            std::string::npos);
}

TEST(CrossJoinTest, SingleTreeProfileHasNoJoinSection) {
  auto doc = Parse("<r><a><x>1</x></a><a><x>2</x></a></r>");
  EngineOptions options;
  options.collect_profile = true;
  BlossomTreeEngine engine(doc.get(), options);
  ASSERT_TRUE(
      engine.EvaluateQuery("for $a in //a where $a/x = \"1\" return $a").ok());
  EXPECT_TRUE(engine.LastProfile().cross_joins.empty());
  EXPECT_EQ(engine.LastProfile().ToJson().find("cross_joins"),
            std::string::npos);
  EXPECT_EQ(engine.LastExplain().find("crossing-edge"), std::string::npos);
}

TEST(CrossJoinTest, PlanSplitsTheWhereClause) {
  auto expr = flwor::ParseQuery(
      "for $a in //a, $b in //b where $a/x = \"1\" and $a/x = $b/x and "
      "($a/y = $b/y or $b/z = \"2\") and \"1\" = \"1\" return $a");
  ASSERT_TRUE(expr.ok());
  const flwor::Flwor& flwor = *expr.value()->flwor;
  auto tree = pattern::BuildFromFlwor(flwor);
  ASSERT_TRUE(tree.ok());
  CrossJoinPlan plan = PlanCrossJoins(flwor, tree.value());
  ASSERT_EQ(plan.num_trees, 2u);
  EXPECT_EQ(plan.filters[0].size(), 1u);
  EXPECT_TRUE(plan.filters[1].empty());
  EXPECT_EQ(plan.constants.size(), 1u);
  ASSERT_EQ(plan.predicates.size(), 1u);
  EXPECT_EQ(plan.predicates[0].kind, CrossJoinKind::kHashValue);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_TRUE(plan.steps[0].hashed);
  EXPECT_EQ(plan.steps[0].residuals.size(), 1u);
  EXPECT_FALSE(plan.may_error);
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
