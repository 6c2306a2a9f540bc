// Resource-limit semantics end to end (DESIGN.md §9): deadlines, cell/row
// budgets, cancellation, and parser caps through EngineOptions::limits.
#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace engine {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t MillisSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
}

std::unique_ptr<xml::Document> RecursiveDoc(double scale) {
  datagen::GenOptions o;
  o.scale = scale;
  o.seed = 7;
  return datagen::GenerateDataset(datagen::Dataset::kD1Recursive, o);
}

xpath::PathExpr MustParsePath(std::string_view s) {
  auto r = xpath::ParsePath(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

// The ISSUE's acceptance scenario: a same-tag-nested D1 query forced onto
// the naive O(n^2) join runs for seconds unlimited, but a 10ms deadline
// returns kResourceExhausted promptly — the guard is sampled inside the
// joins and scans, not just between queries.
TEST(EngineLimitsTest, DeadlineExceededPromptlyOnLongQuery) {
  // ~2200 nodes: the naive join's full-document re-scans make the
  // unlimited run a few seconds, so the 10ms deadline interrupts it six
  // orders of magnitude before completion.
  auto doc = RecursiveDoc(/*scale=*/0.015);
  xpath::PathExpr path = MustParsePath("//b1//c2//b1");

  EngineOptions slow;
  slow.plan.strategy = opt::JoinStrategy::kNaiveNestedLoop;
  slow.num_threads = 1;
  BlossomTreeEngine unlimited(doc.get(), slow);
  Clock::time_point t0 = Clock::now();
  auto full = unlimited.EvaluatePath(path);
  uint64_t unlimited_millis = MillisSince(t0);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full.value().empty());
  // The dataset must be big enough that the deadline actually interrupts
  // mid-query rather than racing query completion.
  EXPECT_GT(unlimited_millis, 1000u) << "dataset too small for the scenario";

  EngineOptions capped = slow;
  capped.limits.deadline_millis = 10;
  BlossomTreeEngine engine(doc.get(), capped);
  t0 = Clock::now();
  auto r = engine.EvaluatePath(path);
  uint64_t capped_millis = MillisSince(t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // "Promptly": orders of magnitude under the unlimited runtime. The slack
  // over the 10ms budget absorbs scheduler noise on loaded CI machines.
  EXPECT_LT(capped_millis, 500u);
  EXPECT_LT(capped_millis, unlimited_millis / 2);
}

TEST(EngineLimitsTest, ZeroCellBudgetRejectsImmediately) {
  auto doc = RecursiveDoc(/*scale=*/0.05);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_nl_cells = 0;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluatePath(MustParsePath("//b1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineLimitsTest, ZeroRowBudgetRejectsImmediately) {
  auto doc = RecursiveDoc(/*scale=*/0.05);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_result_rows = 0;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluatePath(MustParsePath("//b1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineLimitsTest, HugeBudgetsBehaveAsUnlimited) {
  auto doc = RecursiveDoc(/*scale=*/0.05);
  xpath::PathExpr path = MustParsePath("//b1//c2");

  BlossomTreeEngine plain(doc.get(), {});
  auto expected = plain.EvaluatePath(path);
  ASSERT_TRUE(expected.ok());

  EngineOptions options;
  options.limits.deadline_millis = 1000 * 60 * 60;
  options.limits.max_nl_cells = 1ull << 60;
  options.limits.max_nl_bytes = 1ull << 60;
  options.limits.max_result_rows = 1ull << 60;
  BlossomTreeEngine capped(doc.get(), options);
  auto r = capped.EvaluatePath(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), expected.value());
}

// Theorem-1 determinism survives governance: limits that are never hit must
// not perturb results at any thread count (charging happens in the same
// order everywhere; checks never mutate state).
TEST(EngineLimitsTest, UnhitLimitsBitwiseIdenticalAcrossThreads) {
  auto doc = RecursiveDoc(/*scale=*/0.1);
  const char* query =
      "for $b in //b1 let $c := $b//c2 where exists($b//c1) "
      "return <hit>{$c}</hit>";

  BlossomTreeEngine plain(doc.get(), {});
  auto expected = plain.EvaluateQuery(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (unsigned threads : {1u, 2u, 4u}) {
    EngineOptions options;
    options.num_threads = threads;
    options.limits.deadline_millis = 1000 * 60 * 60;
    options.limits.max_nl_cells = 1ull << 40;
    options.limits.max_nl_bytes = 1ull << 50;
    options.limits.max_result_rows = 1ull << 40;
    BlossomTreeEngine engine(doc.get(), options);
    auto r = engine.EvaluateQuery(query);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": "
                        << r.status().ToString();
    EXPECT_EQ(r.value(), expected.value()) << "threads=" << threads;
  }
}

TEST(EngineLimitsTest, DeadlineAppliesToFlworQueries) {
  auto doc = RecursiveDoc(/*scale=*/0.5);
  EngineOptions options;
  options.plan.strategy = opt::JoinStrategy::kNaiveNestedLoop;
  options.num_threads = 1;
  options.limits.deadline_millis = 0;  // Trips on the first check.
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluateQuery("for $b in //b1//c2//b1 return <r>{$b}</r>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineLimitsTest, CancelReturnsCancelled) {
  auto doc = RecursiveDoc(/*scale=*/0.05);
  BlossomTreeEngine engine(doc.get(), {});
  engine.Cancel();
  auto r = engine.EvaluatePath(MustParsePath("//b1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Re-arming does not clear external cancellation...
  r = engine.EvaluatePath(MustParsePath("//b1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(EngineLimitsTest, QuerySizeAndDepthLimitsApplyToParsing) {
  auto doc = RecursiveDoc(/*scale=*/0.02);
  EngineOptions options;
  options.limits.max_query_bytes = 16;
  BlossomTreeEngine tiny(doc.get(), options);
  auto r = tiny.EvaluateQuery("for $b in //b1 return <r>{$b}</r>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  EngineOptions shallow;
  shallow.limits.max_parse_depth = 4;
  BlossomTreeEngine engine(doc.get(), shallow);
  r = engine.EvaluateQuery(
      "for $b in //b1 where ((((((($b = \"x\"))))))) return <r/>");
  EXPECT_FALSE(r.ok());
}

// The cell budget caps intermediate NestedList materialization, and a trip
// must not poison the engine: each evaluation re-arms the guard, so the
// same engine keeps returning the same clean verdict instead of corrupt
// state, and the query still runs fine ungoverned.
TEST(EngineLimitsTest, CellBudgetTripsAndEngineRecovers) {
  auto doc = RecursiveDoc(/*scale=*/0.2);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_nl_cells = 8;
  BlossomTreeEngine engine(doc.get(), options);
  for (int round = 0; round < 2; ++round) {
    auto r = engine.EvaluatePath(MustParsePath("//b1//c2"));
    ASSERT_FALSE(r.ok()) << "round " << round;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GT(engine.guard().CellsCharged(), 8u);
  }

  EngineOptions unlimited;
  unlimited.num_threads = 1;
  BlossomTreeEngine fresh(doc.get(), unlimited);
  auto expected = fresh.EvaluatePath(MustParsePath("//b1//c2"));
  ASSERT_TRUE(expected.ok());
}

std::unique_ptr<xml::Document> BibliographyDoc(double scale) {
  datagen::GenOptions o;
  o.scale = scale;
  o.seed = 42;
  return datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
}

size_t CountPath(const xml::Document* doc, std::string_view path) {
  BlossomTreeEngine engine(doc, {});
  auto r = engine.EvaluatePath(MustParsePath(path));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value().size() : 0;
}

// The value join over articles × inproceedings at a scale where the cross
// product exceeds 10^6 pairs. The crossing-edge join charges each probe
// row's matches before appending them, so a 1000-row cap trips after about
// 1000 materialized tuples, not after the pairs are built.
TEST(EngineLimitsTest, RowCapTripsValueJoinBeforeMaterializing) {
  auto doc = BibliographyDoc(/*scale=*/0.1);
  size_t articles = CountPath(doc.get(), "//article");
  size_t inproceedings = CountPath(doc.get(), "//inproceedings");
  ASSERT_GT(articles * inproceedings, 1'000'000u);

  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_result_rows = 1000;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluateQuery(
      "for $a in //article, $b in //inproceedings where $a/author = "
      "$b/author return <p>{$a/title}</p>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // At most one probe row's matches past the cap were charged.
  EXPECT_GT(engine.guard().RowsCharged(), 1000u);
  EXPECT_LE(engine.guard().RowsCharged(), 1000u + inproceedings);
}

// Without a where-clause the join is a plain cross product; the first probe
// row already asks for more rows than the cap allows, so nothing of the
// product is allocated.
TEST(EngineLimitsTest, RowCapTripsCrossProductBeforeAllocating) {
  auto doc = BibliographyDoc(/*scale=*/0.1);
  size_t inproceedings = CountPath(doc.get(), "//inproceedings");
  ASSERT_GT(inproceedings, 1000u);

  EngineOptions options;
  options.num_threads = 1;
  options.limits.max_result_rows = 1000;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluateQuery(
      "for $a in //article, $b in //inproceedings return <p/>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.guard().RowsCharged(), inproceedings);
}

// A join whose pairs all go through an expensive residual (an `or` the join
// cannot decide) runs for seconds; the deadline is sampled once per probe
// batch inside the loop, so a 100 ms budget trips about on time.
TEST(EngineLimitsTest, DeadlineTripsInsideCrossJoin) {
  auto doc = BibliographyDoc(/*scale=*/0.1);
  EngineOptions options;
  options.num_threads = 1;
  options.limits.deadline_millis = 100;
  BlossomTreeEngine engine(doc.get(), options);
  Clock::time_point t0 = Clock::now();
  auto r = engine.EvaluateQuery(
      "for $a in //article, $b in //inproceedings where $a/title = "
      "$b/title or $a/year = \"zzz\" return <p/>");
  uint64_t millis = MillisSince(t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // Deadline plus one probe batch (4096 residual evaluations), with slack
  // for loaded CI machines.
  EXPECT_LT(millis, 500u);
}

// Every operator charges its emitted rows through the one base-class path,
// so no access path gets around the cell budget: not the virtual-root
// scan ("/dblp/..." is one NoK rooted at "~"), with or without the result
// cache and at any thread count, and not the merged scan's materialized
// per-NoK views.
std::unique_ptr<xml::Document> SmallBibliography() {
  datagen::GenOptions o;
  o.scale = 0.02;
  o.seed = 7;
  return datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
}

TEST(EngineLimitsTest, CellBudgetCoversVirtualRootScans) {
  auto doc = SmallBibliography();
  for (bool cache : {false, true}) {
    for (unsigned threads : {1u, 4u}) {
      EngineOptions options;
      options.num_threads = threads;
      options.result_cache.enabled = cache;
      options.limits.max_nl_cells = 5;
      BlossomTreeEngine engine(doc.get(), options);
      auto r = engine.EvaluatePath(MustParsePath("/dblp/article/title"));
      ASSERT_FALSE(r.ok()) << "cache=" << cache << " threads=" << threads
                           << " returned " << r.value().size() << " rows";
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

TEST(EngineLimitsTest, CellBudgetCoversMergedScanViews) {
  auto doc = SmallBibliography();
  EngineOptions options;
  options.num_threads = 1;
  options.plan.strategy = opt::JoinStrategy::kPipelined;
  options.plan.merge_nok_scans = true;
  options.limits.max_nl_cells = 5;
  BlossomTreeEngine engine(doc.get(), options);
  auto r = engine.EvaluatePath(MustParsePath("//article/title"));
  ASSERT_FALSE(r.ok()) << "returned " << r.value().size() << " rows";
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace engine
}  // namespace blossomtree
