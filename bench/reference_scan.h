#ifndef BLOSSOMTREE_BENCH_REFERENCE_SCAN_H_
#define BLOSSOMTREE_BENCH_REFERENCE_SCAN_H_

// Node-at-a-time reference NoK scan: the oracle the engine's chunked scan
// driver is checked and timed against (bench_vectorized, batch_exec_test).
// It lives outside the engine library on purpose — it is the plainest
// reading of paper §3.3's sequential scan (RootTest + MatchAt at every node,
// no chunks, no kernels, no cache, no partitions), so an engine stream that
// equals it, counters included, is correct by comparison.

#include <cstdint>
#include <vector>

#include "exec/exec_stats.h"
#include "exec/nok_scan.h"
#include "exec/value_ops.h"
#include "nestedlist/nested_list.h"
#include "pattern/blossom_tree.h"
#include "pattern/decompose.h"
#include "xml/document.h"

namespace blossomtree {
namespace bench {

/// \brief One reference scan's stream and counters, named as in
/// exec::ExecStats.
struct ReferenceScan {
  std::vector<nestedlist::NestedList> matches;
  uint64_t nodes_scanned = 0;
  uint64_t comparisons = 0;  ///< Matcher constraint checks + value compares.
  uint64_t nl_cells = 0;
};

/// \brief Runs `nok` at every node of [begin, end] (clipped to the
/// document) in document order; a "~"-rooted NoK is tried once, at the
/// virtual root.
///
/// Value comparisons are attributed node by node, as the engine's former
/// node-at-a-time driver did for its lazily consumed stream, so the
/// bench_vectorized throughput floor is measured against that same loop.
inline ReferenceScan RunReferenceScan(const xml::Document& doc,
                                      const pattern::BlossomTree& tree,
                                      const pattern::NokTree& nok,
                                      xml::NodeId begin, xml::NodeId end) {
  ReferenceScan out;
  exec::NokMatcher matcher(&doc, &tree, &nok);
  nestedlist::NestedList nl;
  auto try_node = [&](xml::NodeId x) {
    ++out.nodes_scanned;
    uint64_t cmp_before = exec::ValueComparisonCount();
    bool matched = matcher.RootTest(x) && matcher.MatchAt(x, &nl);
    out.comparisons += exec::ValueComparisonCount() - cmp_before;
    if (matched) {
      out.nl_cells += exec::CountCells(nl);
      out.matches.push_back(std::move(nl));
      nl = nestedlist::NestedList();
    }
  };
  if (tree.vertex(nok.root).IsVirtualRoot()) {
    try_node(exec::kVirtualRootNode);
  } else {
    for (uint64_t x = begin; x <= end && x < doc.NumNodes(); ++x) {
      try_node(static_cast<xml::NodeId>(x));
    }
  }
  out.comparisons += matcher.MatchWork();
  return out;
}

}  // namespace bench
}  // namespace blossomtree

#endif  // BLOSSOMTREE_BENCH_REFERENCE_SCAN_H_
