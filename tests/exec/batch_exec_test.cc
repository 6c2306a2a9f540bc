// Batch-at-a-time execution equivalence suite (DESIGN.md §16):
//  - every NoK scan stream and its counters must equal the node-at-a-time
//    reference scan (bench/reference_scan.h) on all five generated
//    datasets, serial and partitioned, with SIMD kernels on and off;
//  - every engine result and every deterministic counter must be bitwise-
//    identical across SIMD on/off, batch sizes {1, 7, 64, 4096}, and 1/2/4
//    threads, and results must equal the navigational evaluator's;
//  - operator streams drained via GetNextBatch (any size, or mixed with
//    GetNext) must equal the row-at-a-time stream byte for byte;
//  - mid-batch cancellation: a cell budget tripping at *every* possible
//    boundary (±1 row around each batch edge) must leave
//    matches/nl_cells equal to what the consumer actually received — the
//    count-before-charge audit fix — and Finish() normalization must stay
//    safe on tripped plans.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/navigational.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "exec/exec_stats.h"
#include "exec/nok_scan.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "reference_scan.h"
#include "util/resource_guard.h"
#include "util/thread_pool.h"
#include "workload/queries.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace exec {
namespace {

using nestedlist::NestedList;
using nestedlist::OccurrenceLabeler;

struct EngineRun {
  std::vector<xml::NodeId> result;
  std::string counters;  ///< QueryProfile::ToText() — wall-clock-free.
};

EngineRun RunEngine(const xml::Document* doc, const xpath::PathExpr& path,
                    unsigned threads, bool simd, size_t batch_rows) {
  engine::EngineOptions o;
  o.num_threads = threads;
  o.collect_profile = true;
  o.plan.exec.simd = simd;
  o.plan.exec.batch_rows = batch_rows;
  engine::BlossomTreeEngine eng(doc, o);
  EngineRun run;
  auto res = eng.EvaluatePath(path);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  if (res.ok()) run.result = *res;
  run.counters = eng.LastProfile().ToText();
  return run;
}

TEST(BatchExecTest, EngineIdenticalAcrossBatchSimdAndThreads) {
  for (datagen::Dataset ds : datagen::AllDatasets()) {
    datagen::GenOptions o;
    o.scale = 0.02;
    o.seed = 7;
    auto doc = datagen::GenerateDataset(ds, o);
    for (const workload::QuerySpec& q : workload::QueriesFor(ds)) {
      auto path = xpath::ParsePath(q.xpath);
      ASSERT_TRUE(path.ok()) << q.xpath;
      // Reference: the serial default configuration, whose results must
      // also agree with the navigational evaluator.
      EngineRun ref = RunEngine(doc.get(), *path, 1, true, 64);
      baseline::NavigationalEvaluator nav(doc.get());
      auto nav_result = nav.EvaluatePath(*path);
      ASSERT_TRUE(nav_result.ok()) << q.xpath;
      EXPECT_EQ(ref.result, *nav_result) << q.xpath;
      auto check = [&](unsigned threads, bool simd, size_t rows) {
        EngineRun got = RunEngine(doc.get(), *path, threads, simd, rows);
        EXPECT_EQ(got.result, ref.result)
            << q.xpath << " threads=" << threads << " simd=" << simd
            << " batch_rows=" << rows;
        EXPECT_EQ(got.counters, ref.counters)
            << q.xpath << " threads=" << threads << " simd=" << simd
            << " batch_rows=" << rows;
      };
      for (size_t rows : {1u, 7u, 64u, 4096u}) {
        for (bool simd : {true, false}) {
          for (unsigned threads : {1u, 2u, 4u}) check(threads, simd, rows);
        }
      }
    }
  }
}

std::string ToLines(const std::vector<NestedList>& lists,
                    const xml::Document& doc) {
  OccurrenceLabeler label(&doc);
  std::string out;
  for (const NestedList& nl : lists) {
    out += nestedlist::ToString(nl, label);
    out += '\n';
  }
  return out;
}

TEST(BatchExecTest, NokStreamsAndCountersMatchReferenceScan) {
  // The engine's one scan driver — chunked, SIMD-prefiltered, filled lazily
  // or as partitions — against the plain per-node loop, for every NoK of
  // every workload query over the whole document and over a restricted
  // middle third (the BNLJ inner side's lazy path): same stream, same nodes
  // scanned, comparisons, matches and cells.
  util::ThreadPool pool(4);
  util::ThreadPool* pools[] = {nullptr, &pool};
  for (datagen::Dataset ds : datagen::AllDatasets()) {
    datagen::GenOptions o;
    o.scale = 0.02;
    o.seed = 7;
    auto doc = datagen::GenerateDataset(ds, o);
    const xml::NodeId last = static_cast<xml::NodeId>(doc->NumNodes() - 1);
    const xml::NodeId ranges[][2] = {{0, last}, {last / 3, 2 * (last / 3)}};
    for (const workload::QuerySpec& q : workload::QueriesFor(ds)) {
      auto path = xpath::ParsePath(q.xpath);
      ASSERT_TRUE(path.ok()) << q.xpath;
      auto tree = pattern::BuildFromPath(*path);
      ASSERT_TRUE(tree.ok()) << q.xpath;
      pattern::Decomposition d = pattern::Decompose(*tree);
      for (size_t nok = 0; nok < d.noks.size(); ++nok) {
        for (const auto& range : ranges) {
          bench::ReferenceScan ref = bench::RunReferenceScan(
              *doc, *tree, d.noks[nok], range[0], range[1]);
          std::string expected = ToLines(ref.matches, *doc);
          for (util::ThreadPool* p : pools) {
            for (bool simd : {true, false}) {
              ExecOptions eo;
              eo.simd = simd;
              NokScanOperator scan(doc.get(), &*tree, &d.noks[nok], p,
                                   nullptr, nullptr, nullptr, eo);
              scan.Restrict(range[0], range[1]);
              std::string where = q.xpath + " nok=" + std::to_string(nok) +
                                  " range=[" + std::to_string(range[0]) +
                                  "," + std::to_string(range[1]) +
                                  "] pool=" + (p ? "4" : "none") +
                                  " simd=" + (simd ? "1" : "0");
              EXPECT_EQ(ToLines(Drain(&scan), *doc), expected) << where;
              ExecStats s = scan.Stats();
              EXPECT_EQ(s.nodes_scanned, ref.nodes_scanned) << where;
              EXPECT_EQ(s.comparisons, ref.comparisons) << where;
              EXPECT_EQ(s.matches, ref.matches.size()) << where;
              EXPECT_EQ(s.nl_cells, ref.nl_cells) << where;
            }
          }
        }
      }
    }
  }
}

std::string DrainRowAtATime(NestedListOperator* op,
                           const xml::Document& doc) {
  OccurrenceLabeler label(&doc);
  std::string out;
  NestedList nl;
  while (op->GetNext(&nl)) {
    out += nestedlist::ToString(nl, label);
    out += '\n';
  }
  return out;
}

std::string DrainBatched(NestedListOperator* op, const xml::Document& doc,
                         size_t batch_rows) {
  OccurrenceLabeler label(&doc);
  std::string out;
  Batch batch;
  while (op->GetNextBatch(&batch, batch_rows) > 0) {
    EXPECT_LE(batch.rows.size(), ClampBatchRows(batch_rows));
    for (const NestedList& nl : batch.rows) {
      out += nestedlist::ToString(nl, label);
      out += '\n';
    }
  }
  EXPECT_TRUE(batch.rows.empty());  // 0 return clears the batch.
  return out;
}

opt::PlanOptions PipelinedPlan(util::ResourceGuard* guard = nullptr) {
  opt::PlanOptions po;
  po.strategy = opt::JoinStrategy::kPipelined;
  po.guard = guard;
  return po;
}

TEST(BatchExecTest, PlanRootBatchedStreamEqualsRowAtATime) {
  // A scan → pipelined-//-join chain over a generated document, drained
  // through the plan root: batch sizes {1, 7, 64, 4096} plus a mixed
  // GetNext/GetNextBatch drain must all reproduce the reference stream.
  datagen::GenOptions o;
  o.scale = 0.02;
  o.seed = 7;
  auto doc = datagen::GenerateDataset(datagen::Dataset::kD5Dblp, o);
  for (const char* q : {"//article/title", "//inproceedings[/year]//author"}) {
    auto path = xpath::ParsePath(q);
    ASSERT_TRUE(path.ok()) << q;
    auto tree = pattern::BuildFromPath(*path);
    ASSERT_TRUE(tree.ok()) << q;
    auto ref_plan = opt::PlanQuery(doc.get(), &*tree, PipelinedPlan());
    ASSERT_TRUE(ref_plan.ok()) << q;
    ASSERT_EQ(ref_plan->trees.size(), 1u);
    std::string expected =
        DrainRowAtATime(ref_plan->trees[0].root.get(), *doc);
    ref_plan->FinishAll();
    std::string expected_counters =
        ref_plan->trees[0].root->Stats().Counters();
    for (size_t rows : {1u, 7u, 64u, 4096u}) {
      auto plan = opt::PlanQuery(doc.get(), &*tree, PipelinedPlan());
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(DrainBatched(plan->trees[0].root.get(), *doc, rows),
                expected)
          << q << " batch_rows=" << rows;
      plan->FinishAll();
      EXPECT_EQ(plan->trees[0].root->Stats().Counters(), expected_counters)
          << q << " batch_rows=" << rows;
    }
    // Mixed drain: one row, then one batch, alternating — both entry
    // points advance the same cursor.
    auto plan = opt::PlanQuery(doc.get(), &*tree, PipelinedPlan());
    ASSERT_TRUE(plan.ok());
    NestedListOperator* root = plan->trees[0].root.get();
    OccurrenceLabeler label(doc.get());
    std::string mixed;
    Batch batch;
    NestedList nl;
    for (;;) {
      if (!root->GetNext(&nl)) break;
      mixed += nestedlist::ToString(nl, label);
      mixed += '\n';
      if (root->GetNextBatch(&batch, 3) == 0) break;
      for (const NestedList& b : batch.rows) {
        mixed += nestedlist::ToString(b, label);
        mixed += '\n';
      }
    }
    EXPECT_EQ(mixed, expected) << q << " (mixed drain)";
  }
}

TEST(BatchExecTest, NokScanBatchedStreamEqualsRowAtATime) {
  auto doc = xml::ParseDocument(
                 "<r><a><b/><c/></a><a><b/></a><x/><a><c/><b/><b/></a>"
                 "<a><a><b/></a></a></r>")
                 .MoveValue();
  auto path = xpath::ParsePath("//a[/b]");
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());
  pattern::Decomposition d = pattern::Decompose(*tree);
  for (size_t nok = 0; nok < d.noks.size(); ++nok) {
    NokScanOperator ref(doc.get(), &*tree, &d.noks[nok]);
    std::string expected = DrainRowAtATime(&ref, *doc);
    for (size_t rows : {1u, 7u, 64u, 4096u}) {
      NokScanOperator scan(doc.get(), &*tree, &d.noks[nok]);
      EXPECT_EQ(DrainBatched(&scan, *doc, rows), expected)
          << "nok=" << nok << " batch_rows=" << rows;
      // A rewound operator replays the identical batched stream.
      scan.Rewind();
      EXPECT_EQ(DrainBatched(&scan, *doc, rows), expected);
    }
  }
}

// -- Stats under mid-batch budget trips -------------------------------------

/// Drains the plan root batched under `guard`, returning what the consumer
/// actually received.
struct GovernedDrain {
  uint64_t rows = 0;
  uint64_t cells = 0;
};

GovernedDrain DrainGoverned(NestedListOperator* root, size_t batch_rows) {
  GovernedDrain got;
  Batch batch;
  while (root->GetNextBatch(&batch, batch_rows) > 0) {
    for (const NestedList& nl : batch.rows) {
      ++got.rows;
      got.cells += CountCells(nl);
    }
  }
  return got;
}

TEST(BatchExecTest, StatsMatchDeliveryAtEveryCancellationPoint) {
  // Budget sweep over [0, total]: every cell budget in range makes the
  // trip land on a different row, covering every batch boundary ±1 row for
  // every tested batch size. The audit invariant: matches/nl_cells must
  // equal the rows/cells the consumer received — the row that tripped the
  // budget was never delivered, so it must not be counted.
  auto doc = xml::ParseDocument(
                 "<r><a><b/></a><a><b/><b/></a><a/><a><b/></a><a><b/><b/>"
                 "<b/></a><a><b/></a><a><b/></a><a><b/><b/></a></r>")
                 .MoveValue();
  auto path = xpath::ParsePath("//a//b");
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());

  // Total charge of an untripped run: every operator in the plan charges
  // its emissions, so the budget sweep must cover the *cumulative* charge,
  // not just the root's delivered cells.
  util::ResourceGuard unlimited;
  unlimited.Arm();
  auto full = opt::PlanQuery(doc.get(), &*tree, PipelinedPlan(&unlimited));
  ASSERT_TRUE(full.ok());
  GovernedDrain total = DrainGoverned(full->trees[0].root.get(), 64);
  ASSERT_GT(total.rows, 4u);
  const uint64_t total_charge = unlimited.CellsCharged();
  ASSERT_GE(total_charge, total.cells);

  for (size_t batch_rows : {1u, 7u, 64u}) {
    for (uint64_t budget = 0; budget <= total_charge; ++budget) {
      util::QueryLimits limits;
      limits.max_nl_cells = budget;
      util::ResourceGuard guard(limits);
      guard.Arm();
      auto plan = opt::PlanQuery(doc.get(), &*tree, PipelinedPlan(&guard));
      ASSERT_TRUE(plan.ok());
      NestedListOperator* root = plan->trees[0].root.get();
      GovernedDrain got = DrainGoverned(root, batch_rows);
      EXPECT_LE(got.cells, budget);
      EXPECT_EQ(guard.Tripped(), budget < total_charge)
          << "budget=" << budget;
      // Finish() on a tripped plan must be safe and must not inflate the
      // handout counters past what was delivered.
      plan->FinishAll();
      ExecStats s = plan->trees[0].root->Stats();
      EXPECT_EQ(s.matches, got.rows)
          << "batch_rows=" << batch_rows << " budget=" << budget;
      EXPECT_EQ(s.nl_cells, got.cells)
          << "batch_rows=" << batch_rows << " budget=" << budget;
      if (budget < total_charge) {
        EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
      } else {
        EXPECT_EQ(got.rows, total.rows);
        EXPECT_TRUE(guard.status().ok());
      }
    }
  }
}

TEST(BatchExecTest, ScanStatsMatchDeliveryUnderRowBudgetTrips) {
  // The same audit at the leaf: a bare NokScanOperator under cell budgets
  // tripping on every row, filling its buffer lazily (no pool) and as
  // partitions (a pool).
  auto doc = xml::ParseDocument(
                 "<r><a/><b/><a/><a/><c/><a/><a/><a/><b/><a/></r>")
                 .MoveValue();
  auto path = xpath::ParsePath("//a");
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());
  pattern::Decomposition d = pattern::Decompose(*tree);
  const pattern::NokTree* nok = &d.noks.back();

  NokScanOperator ungoverned(doc.get(), &*tree, nok);
  uint64_t total = 0;
  NestedList nl;
  while (ungoverned.GetNext(&nl)) total += CountCells(nl);
  ASSERT_GT(total, 0u);

  util::ThreadPool pool(2);
  util::ThreadPool* pools[] = {nullptr, &pool};
  for (util::ThreadPool* p : pools) {
    for (uint64_t budget = 0; budget <= total; ++budget) {
      util::QueryLimits limits;
      limits.max_nl_cells = budget;
      util::ResourceGuard guard(limits);
      guard.Arm();
      NokScanOperator scan(doc.get(), &*tree, nok, p, &guard);
      GovernedDrain got = DrainGoverned(&scan, 3);
      EXPECT_EQ(scan.Stats().matches, got.rows)
          << "pool=" << (p != nullptr) << " budget=" << budget;
      EXPECT_EQ(scan.Stats().nl_cells, got.cells)
          << "pool=" << (p != nullptr) << " budget=" << budget;
      EXPECT_EQ(guard.Tripped(), budget < total);
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
