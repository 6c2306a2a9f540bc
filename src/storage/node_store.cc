#include "storage/node_store.h"

namespace blossomtree {
namespace storage {

namespace {

/// Greedy balanced grouping of consecutive top-level subtrees
/// [cuts[i], cuts[i+1]) into at most `max_partitions` contiguous ranges.
/// `cuts` holds the NodeId where each top-level subtree starts (the first
/// entry is the document root itself, which precedes its first child), and
/// `total` is the number of nodes in the document.
std::vector<NodeRange> GroupSubtreeCuts(const std::vector<xml::NodeId>& cuts,
                                        size_t total, size_t max_partitions) {
  std::vector<NodeRange> out;
  if (total == 0) return out;
  xml::NodeId last = static_cast<xml::NodeId>(total - 1);
  if (max_partitions <= 1 || cuts.size() <= 1) {
    out.push_back({0, last});
    return out;
  }
  size_t target = (total + max_partitions - 1) / max_partitions;
  xml::NodeId begin = 0;
  for (size_t i = 1; i < cuts.size(); ++i) {
    // cuts[i] starts a new top-level subtree: a legal cut point.
    size_t acc = cuts[i] - begin;
    if (acc >= target && out.size() + 1 < max_partitions) {
      out.push_back({begin, static_cast<xml::NodeId>(cuts[i] - 1)});
      begin = cuts[i];
    }
  }
  out.push_back({begin, last});
  return out;
}

}  // namespace

std::vector<NodeRange> NodeStore::Partition(size_t max_partitions) const {
  size_t total = NumNodes();
  std::vector<xml::NodeId> cuts;
  if (total > 0) {
    ScanCursor cursor;
    // Planning walk: pages through the store without counting reads (a
    // scan's records_read covers scan I/O only).
    cursor.count_reads = false;
    cuts.push_back(0);
    // Children of the root are the level-1 records; each one's subtree_end
    // jumps to the next. A store built from an empty or failed document can
    // carry a root whose subtree_end points past the record array, so every
    // index is bounds-checked: out-of-range walks terminate (yielding the
    // single whole-store range) instead of reading out of bounds.
    xml::NodeId c =
        (Get(0, &cursor).subtree_end > 0 && total > 1) ? 1 : xml::kNullNode;
    while (c != xml::kNullNode && c < total) {
      cuts.push_back(c);
      xml::NodeId next = Get(c, &cursor).subtree_end + 1;
      c = (next > c && next < total && Get(next, &cursor).level == 1)
              ? next
              : xml::kNullNode;
    }
  }
  return GroupSubtreeCuts(cuts, total, max_partitions);
}

}  // namespace storage
}  // namespace blossomtree
