// Equivalence of the partitioned parallel execution paths with their exact
// serial counterparts: the parallel NoK scan must emit the identical
// NestedList stream, and the forest-chunked structural joins must emit the
// identical pair/node sequences, on recursive and non-recursive documents.

#include <gtest/gtest.h>

#include <string>

#include "datagen/datagen.h"
#include "exec/nok_scan.h"
#include "exec/structural_join.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/queries.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace exec {
namespace {

using nestedlist::NestedList;
using nestedlist::OccurrenceLabeler;

/// Drains a NokScanOperator and renders every emitted NestedList — the
/// byte-exact observable output stream.
std::string DrainToString(NokScanOperator* scan,
                          const xml::Document& doc) {
  OccurrenceLabeler label(&doc);
  std::string out;
  NestedList nl;
  while (scan->GetNext(&nl)) {
    out += nestedlist::ToString(nl, label);
    out += '\n';
  }
  return out;
}

void ExpectParallelScanMatchesSerial(const xml::Document& doc,
                                     const std::string& xpath) {
  auto path = xpath::ParsePath(xpath);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  pattern::Decomposition d = pattern::Decompose(*tree);
  for (size_t nok = 0; nok < d.noks.size(); ++nok) {
    NokScanOperator serial(&doc, &*tree, &d.noks[nok]);
    std::string expected = DrainToString(&serial, doc);
    for (size_t threads : {2, 3, 8}) {
      util::ThreadPool pool(threads);
      NokScanOperator parallel(&doc, &*tree, &d.noks[nok], &pool);
      EXPECT_EQ(DrainToString(&parallel, doc), expected)
          << xpath << " nok=" << nok << " threads=" << threads;
      // A rewound parallel scan replays the identical stream.
      parallel.Rewind();
      EXPECT_EQ(DrainToString(&parallel, doc), expected);
    }
  }
}

TEST(ParallelNokScanTest, FlatDocument) {
  auto doc =
      xml::ParseDocument(
          "<r><a><b/><c/></a><a><b/></a><x/><a><c/><b/><b/></a></r>")
          .MoveValue();
  ExpectParallelScanMatchesSerial(*doc, "//a[/b]");
  ExpectParallelScanMatchesSerial(*doc, "//a/b");
}

TEST(ParallelNokScanTest, RecursiveDocument) {
  // Matches nest across and inside partitions; order must still hold.
  auto doc = xml::ParseDocument(
                 "<r><a><a><b/></a><b/></a><a><b/><a><a><b/></a></a></a>"
                 "<a/></r>")
                 .MoveValue();
  ExpectParallelScanMatchesSerial(*doc, "//a[/b]");
  ExpectParallelScanMatchesSerial(*doc, "//a/a/b");
}

TEST(ParallelNokScanTest, RestrictedRangeStaysSerialAndCorrect) {
  auto doc =
      xml::ParseDocument("<r><a><b/></a><a><b/></a><a><b/></a></r>")
          .MoveValue();
  auto path = xpath::ParsePath("//a/b");
  auto tree = pattern::BuildFromPath(*path);
  ASSERT_TRUE(tree.ok());
  pattern::Decomposition d = pattern::Decompose(*tree);
  util::ThreadPool pool(4);
  // Restrict to the second <a> subtree (nodes 3..5): the BNLJ inner path.
  size_t nok_index = d.noks.size() - 1;
  NokScanOperator sref(doc.get(), &*tree, &d.noks[nok_index]);
  sref.Restrict(3, 5);
  std::string expected = DrainToString(&sref, *doc);
  NokScanOperator par(doc.get(), &*tree, &d.noks[nok_index], &pool);
  par.Restrict(3, 5);
  EXPECT_EQ(par.PartitionsUsed(), 0u);
  EXPECT_EQ(DrainToString(&par, *doc), expected);
  EXPECT_EQ(par.PartitionsUsed(), 0u);  // Serial path: no partitions.
}

TEST(ParallelNokScanTest, WorkloadQueriesOnGeneratedData) {
  for (datagen::Dataset ds :
       {datagen::Dataset::kD1Recursive, datagen::Dataset::kD5Dblp}) {
    datagen::GenOptions o;
    o.scale = 0.02;
    auto doc = datagen::GenerateDataset(ds, o);
    for (const workload::QuerySpec& q : workload::QueriesFor(ds)) {
      ExpectParallelScanMatchesSerial(*doc, q.xpath);
    }
  }
}

// -- Structural joins ---------------------------------------------------------

/// Builds a pseudo-random recursive document and two interleaved sorted
/// node lists to join.
struct JoinFixture {
  std::unique_ptr<xml::Document> doc;
  std::vector<xml::NodeId> anc;
  std::vector<xml::NodeId> desc;

  explicit JoinFixture(uint64_t seed) {
    Rng rng(seed);
    // Built in place: Document is pinned in memory (non-movable) since its
    // lazy tag index went behind a std::once_flag.
    doc = std::make_unique<xml::Document>();
    // ~200 nodes, fanout up to 4, depth up to 6, one tag so ancestor and
    // descendant lists overlap heavily.
    size_t budget = 200;
    BuildSubtree(doc.get(), &rng, &budget, 0);
    EXPECT_TRUE(doc->Finish().ok());
    for (xml::NodeId n = 0; n < doc->NumNodes(); ++n) {
      if (rng.Uniform(100) < 60) anc.push_back(n);
      if (rng.Uniform(100) < 60) desc.push_back(n);
    }
  }

  void BuildSubtree(xml::Document* d, Rng* rng, size_t* budget,
                    int depth) {
    d->BeginElement("n");
    --*budget;
    if (depth < 6) {
      size_t kids = rng->Uniform(depth == 0 ? 8 : 4);
      for (size_t i = 0; i < kids && *budget > 0; ++i) {
        BuildSubtree(d, rng, budget, depth + 1);
      }
    }
    d->EndElement();
  }
};

std::string PairsToString(const std::vector<AncDescPair>& pairs) {
  std::string s;
  for (const AncDescPair& p : pairs) {
    s += std::to_string(p.ancestor) + ">" + std::to_string(p.descendant) +
         ";";
  }
  return s;
}

std::string NodesToString(const std::vector<xml::NodeId>& nodes) {
  std::string s;
  for (xml::NodeId n : nodes) s += std::to_string(n) + ";";
  return s;
}

TEST(ParallelStructuralJoinTest, AllFormsMatchSerial) {
  for (uint64_t seed : {1u, 7u, 42u, 99u}) {
    JoinFixture fx(seed);
    for (size_t threads : {2, 3, 8}) {
      util::ThreadPool pool(threads);
      EXPECT_EQ(PairsToString(StackStructuralJoin(*fx.doc, fx.anc, fx.desc,
                                                  &pool)),
                PairsToString(StackStructuralJoin(*fx.doc, fx.anc,
                                                  fx.desc)))
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(PairsToString(StackStructuralJoinParentChild(
                    *fx.doc, fx.anc, fx.desc, &pool)),
                PairsToString(StackStructuralJoinParentChild(
                    *fx.doc, fx.anc, fx.desc)));
      EXPECT_EQ(NodesToString(DescendantsWithAncestor(*fx.doc, fx.anc,
                                                      fx.desc, &pool)),
                NodesToString(
                    DescendantsWithAncestor(*fx.doc, fx.anc, fx.desc)));
      EXPECT_EQ(NodesToString(AncestorsWithDescendant(*fx.doc, fx.anc,
                                                      fx.desc, &pool)),
                NodesToString(
                    AncestorsWithDescendant(*fx.doc, fx.anc, fx.desc)));
      EXPECT_EQ(NodesToString(
                    ChildrenWithParent(*fx.doc, fx.anc, fx.desc, &pool)),
                NodesToString(
                    ChildrenWithParent(*fx.doc, fx.anc, fx.desc)));
      EXPECT_EQ(NodesToString(
                    ParentsWithChild(*fx.doc, fx.anc, fx.desc, &pool)),
                NodesToString(ParentsWithChild(*fx.doc, fx.anc, fx.desc)));
    }
  }
}

TEST(ParallelStructuralJoinTest, EmptyInputs) {
  auto doc = xml::ParseDocument("<r><a/><b/></r>").MoveValue();
  util::ThreadPool pool(4);
  std::vector<xml::NodeId> none;
  std::vector<xml::NodeId> some = {0, 1, 2};
  EXPECT_TRUE(StackStructuralJoin(*doc, none, some, &pool).empty());
  EXPECT_TRUE(StackStructuralJoin(*doc, some, none, &pool).empty());
}

}  // namespace
}  // namespace exec
}  // namespace blossomtree
