// Unit tests for the perf-regression gate: parsing BENCH_*.json artifacts
// into comparable per-query counters and diffing two runs.

#include "regression_check.h"

#include <gtest/gtest.h>

#include <string>

#include "util/json.h"

namespace blossomtree {
namespace bench {
namespace {

Result<BenchRun> RunFromString(const std::string& json) {
  auto parsed = util::ParseJson(json);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return BenchRunFromJson(*parsed);
}

/// One-query artifact with the given summed counter values.
std::string Artifact(uint64_t nodes, uint64_t rows, double wall_ms = 1.0,
                     const char* query = "//a//b") {
  return std::string("{\"bench\": \"t\", \"schema_version\": 2, ") +
         "\"environment\": {\"build\": \"Release\", \"threads\": 2}, " +
         "\"profiles\": [{\"dataset\": \"d1\", \"id\": \"q1\", " +
         "\"latency_ns\": {\"count\": 3}, " +
         "\"profile\": {\"query\": \"" + query + "\", " +
         "\"total_wall_ms\": " + std::to_string(wall_ms) + ", " +
         "\"operators\": [" +
         "{\"label\": \"A\", \"nodes_scanned\": " + std::to_string(nodes) +
         ", \"rows\": " + std::to_string(rows) + "}]}}]}";
}

TEST(BenchRunFromJsonTest, ParsesArtifactAndSumsOperators) {
  auto run = RunFromString(
      R"({"bench": "t2", "schema_version": 2, "profiles": [
            {"dataset": "d1", "id": "q1",
             "profile": {"query": "//x", "total_wall_ms": 2.5,
                         "operators": [{"nodes_scanned": 10, "rows": 3},
                                       {"nodes_scanned": 5, "rows": 2,
                                        "comparisons": 7}]}}]})");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->bench, "t2");
  EXPECT_EQ(run->schema_version, 2);
  ASSERT_EQ(run->queries.size(), 1u);
  const QueryCounters& c = run->queries.begin()->second;
  EXPECT_EQ(c.nodes_scanned, 15u);
  EXPECT_EQ(c.rows, 5u);
  EXPECT_EQ(c.comparisons, 7u);
  EXPECT_DOUBLE_EQ(c.total_wall_ms, 2.5);
  // The key carries the context fields and query text; the latency
  // histogram and profile body stay out of it.
  const std::string& key = run->queries.begin()->first;
  EXPECT_NE(key.find("dataset=d1"), std::string::npos) << key;
  EXPECT_NE(key.find("id=q1"), std::string::npos) << key;
  EXPECT_NE(key.find("//x"), std::string::npos) << key;
}

TEST(BenchRunFromJsonTest, SumsCrossJoinSteps) {
  auto run = RunFromString(
      R"({"bench": "t3", "schema_version": 2, "profiles": [
            {"id": "j", "profile": {"query": "flwor", "operators": [],
             "cross_joins": [
               {"label": "HashValueJoin", "wall_ms": 1.5, "build_rows": 4,
                "probe_rows": 3, "candidate_pairs": 6, "emitted": 5},
               {"label": "CrossProduct", "wall_ms": 0.5, "build_rows": 2,
                "probe_rows": 5, "candidate_pairs": 10, "emitted": 10}]}}]})");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const QueryCounters& c = run->queries.begin()->second;
  EXPECT_EQ(c.join_build_rows, 6u);
  EXPECT_EQ(c.join_probe_rows, 8u);
  EXPECT_EQ(c.join_candidate_pairs, 16u);
  EXPECT_EQ(c.join_emitted, 15u);

  // The gate fails on any growth of a join counter.
  BenchRun grown = *run;
  grown.queries.begin()->second.join_candidate_pairs += 1;
  RegressionReport report = CompareRuns(*run, grown);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("join_candidate_pairs 16 -> 17"),
            std::string::npos)
      << report.failures[0];
}

TEST(BenchRunFromJsonTest, KeyIgnoresFieldOrderAndLatency) {
  auto a = RunFromString(
      R"({"bench": "t", "schema_version": 2, "profiles": [
            {"dataset": "d1", "id": "q1", "latency_ns": {"count": 3},
             "profile": {"query": "//x", "operators": []}}]})");
  auto b = RunFromString(
      R"({"bench": "t", "schema_version": 2, "profiles": [
            {"id": "q1", "dataset": "d1",
             "profile": {"query": "//x", "operators": []}}]})");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->queries.begin()->first, b->queries.begin()->first);
}

TEST(BenchRunFromJsonTest, RejectsNonArtifacts) {
  EXPECT_FALSE(RunFromString("[1, 2]").ok());
  EXPECT_FALSE(RunFromString("{\"bench\": \"t\"}").ok());  // No profiles.
  auto missing = LoadBenchRun("/nonexistent/BENCH_x.json");
  EXPECT_FALSE(missing.ok());
}

TEST(CompareRunsTest, IdenticalRunsPass) {
  auto base = RunFromString(Artifact(100, 10));
  auto cur = RunFromString(Artifact(100, 10, 5.0));  // Wall time differs.
  ASSERT_TRUE(base.ok() && cur.ok());
  RegressionReport report = CompareRuns(*base, *cur);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.queries_compared, 1);
  EXPECT_TRUE(report.warnings.empty());
}

TEST(CompareRunsTest, CounterGrowthFailsExactlyAtZeroTolerance) {
  auto base = RunFromString(Artifact(100, 10));
  auto cur = RunFromString(Artifact(101, 10));
  ASSERT_TRUE(base.ok() && cur.ok());
  RegressionReport report = CompareRuns(*base, *cur);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("nodes_scanned"), std::string::npos)
      << report.ToString();
  // The same growth passes under a 5% tolerance.
  RegressionOptions tolerant;
  tolerant.counter_tolerance = 0.05;
  EXPECT_TRUE(CompareRuns(*base, *cur, tolerant).ok());
}

TEST(CompareRunsTest, ImprovementWarnsButPasses) {
  auto base = RunFromString(Artifact(100, 10));
  auto cur = RunFromString(Artifact(60, 10));
  ASSERT_TRUE(base.ok() && cur.ok());
  RegressionReport report = CompareRuns(*base, *cur);
  EXPECT_TRUE(report.ok());
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("improved"), std::string::npos);
}

TEST(CompareRunsTest, MissingQueryFailsNewQueryWarns) {
  auto base = RunFromString(Artifact(100, 10, 1.0, "//old"));
  auto cur = RunFromString(Artifact(100, 10, 1.0, "//new"));
  ASSERT_TRUE(base.ok() && cur.ok());
  RegressionReport report = CompareRuns(*base, *cur);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("missing from current run"),
            std::string::npos);
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("new query"), std::string::npos);
}

TEST(CompareRunsTest, BenchAndSchemaMismatchesFailFast) {
  auto base = RunFromString(Artifact(100, 10));
  ASSERT_TRUE(base.ok());
  BenchRun other = *base;
  other.bench = "different";
  EXPECT_FALSE(CompareRuns(*base, other).ok());
  BenchRun old_schema = *base;
  old_schema.schema_version = 1;
  RegressionReport report = CompareRuns(*base, old_schema);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("schema_version"), std::string::npos);
}

TEST(CompareRunsTest, LatencyCheckIsOptInWithOwnTolerance) {
  auto base = RunFromString(Artifact(100, 10, 10.0));
  auto cur = RunFromString(Artifact(100, 10, 100.0));
  ASSERT_TRUE(base.ok() && cur.ok());
  // Off by default: a 10x wall-time growth is not a counter regression.
  EXPECT_TRUE(CompareRuns(*base, *cur).ok());
  RegressionOptions opts;
  opts.check_latency = true;  // Default tolerance 50%.
  RegressionReport report = CompareRuns(*base, *cur, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("total_wall_ms"), std::string::npos);
  opts.latency_tolerance = 20.0;  // 10x fits under 21x.
  EXPECT_TRUE(CompareRuns(*base, *cur, opts).ok());
}

}  // namespace
}  // namespace bench
}  // namespace blossomtree
