#ifndef BLOSSOMTREE_STORAGE_NODE_STORE_H_
#define BLOSSOMTREE_STORAGE_NODE_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "xml/document.h"

namespace blossomtree {
namespace storage {

/// \brief The fixed-width node record every store serves — the decoded
/// paged form of the paper's succinct storage, shared with the external
/// document layout (xml::PackedNodeRecord) so BTSX v2 files persist it
/// byte-for-byte.
using NodeRecord = xml::PackedNodeRecord;

/// \brief A contiguous, inclusive range [begin, end] of NodeIds — one
/// partition of a document for intra-query parallel scanning.
struct NodeRange {
  xml::NodeId begin;
  xml::NodeId end;

  size_t size() const { return static_cast<size_t>(end) - begin + 1; }
  bool operator==(const NodeRange& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// \brief Per-scan sequential-reader state: which page/block the scan is
/// currently on, how many it has fetched, and a pin keeping the current
/// block resident (DiskStore parks the shared_ptr of the cached block here
/// so eviction can never pull bytes out from under an in-progress read).
///
/// One cursor belongs to exactly one scan (one thread); concurrent scans
/// over a shared store each carry their own. That is what makes page-read
/// accounting deterministic again under the service's concurrent readers —
/// the pre-cursor design kept this state in one shared atomic, so totals
/// depended on how scans interleaved.
struct ScanCursor {
  size_t page = static_cast<size_t>(-1);
  uint64_t reads = 0;
  std::shared_ptr<const void> pin;
  /// False for planning-time walks (Partition): the cursor still pins and
  /// pages normally, but neither the cursor's `reads` nor the store-wide
  /// aggregate is incremented — partitioning is planning, not scan I/O.
  bool count_reads = true;
  /// Staging slot for the base-class NextBlock fallback (stores without a
  /// native block span serve batched scans one record at a time).
  NodeRecord staged{};
};

/// \brief Abstract document-order node store with page/block-granular
/// access counting — the secondary-storage substrate the NoK scanners and
/// joins run over. Two implementations: PageStore (in-RAM, a view over a
/// document's records) and DiskStore (BTSX v2 file, mmap or pread + block
/// cache). Thread-safe for concurrent readers; all mutable state is either
/// atomic (aggregate counters) or caller-owned (ScanCursor).
class NodeStore {
 public:
  virtual ~NodeStore() = default;

  virtual size_t NumNodes() const = 0;
  virtual size_t NumPages() const = 0;
  virtual size_t NodesPerPage() const = 0;

  /// \brief Generation stamp of the document this store serves (see
  /// xml::Document::generation()): result-cache keys derived from a store
  /// carry the same invalidation identity as ones derived from the
  /// document itself.
  virtual uint64_t generation() const = 0;

  /// \brief Fetches the record for `n` through `cursor`, counting a page
  /// (or block) read when the cursor moves onto a new page. Returned by
  /// value: 16 bytes, and the backing block may be evicted after the
  /// cursor moves on.
  virtual NodeRecord Get(xml::NodeId n, ScanCursor* cursor) const = 0;

  /// \brief Batched sequential read (DESIGN.md §16): returns a span of
  /// consecutive records starting at `n`, extending no further than `last`
  /// (inclusive) and never past the page/block `n` lives on. Read
  /// accounting is identical to fetching the same records one Get() at a
  /// time — one page read per block entered — so batched and
  /// node-at-a-time scans report bitwise-identical counters. The span
  /// stays valid until the next call through the same cursor (the
  /// cursor's pin keeps the backing block resident).
  virtual std::span<const NodeRecord> NextBlock(xml::NodeId n,
                                                xml::NodeId last,
                                                ScanCursor* cursor) const {
    (void)last;
    cursor->staged = Get(n, cursor);
    return {&cursor->staged, 1};
  }

  /// \brief Partitions the stored document into at most `max_partitions`
  /// contiguous node ranges cut at top-level subtree boundaries (the
  /// parallel-scan contract of PartitionSubtrees; see DESIGN.md §7). Walks
  /// the top-level subtree boundaries through Get() with a private,
  /// non-counting cursor (bounds-checked, so a corrupt record array
  /// degrades to one whole-store range instead of reading out of bounds),
  /// then groups them greedily by node count.
  std::vector<NodeRange> Partition(size_t max_partitions) const;

  /// \brief Aggregate page/block reads across all cursors since the last
  /// ResetCounters — the I/O proxy metric. Per-cursor totals (exact and
  /// deterministic per scan) are on the cursors themselves.
  virtual uint64_t PageReads() const = 0;
  virtual void ResetCounters() const = 0;

  // -- Navigation derived from subtree extents (shared by both stores) ------

  /// \brief First child is n+1 when the subtree extends past n.
  xml::NodeId FirstChild(xml::NodeId n, ScanCursor* cursor) const {
    NodeRecord r = Get(n, cursor);
    return r.subtree_end > n ? n + 1 : xml::kNullNode;
  }

  /// \brief Following sibling = node just past this subtree, iff it sits
  /// at the same level.
  xml::NodeId NextSibling(xml::NodeId n, ScanCursor* cursor) const {
    NodeRecord r = Get(n, cursor);
    xml::NodeId next = r.subtree_end + 1;
    if (next >= NumNodes()) return xml::kNullNode;
    NodeRecord nr = Get(next, cursor);
    return nr.level == r.level ? next : xml::kNullNode;
  }
};

}  // namespace storage
}  // namespace blossomtree

#endif  // BLOSSOMTREE_STORAGE_NODE_STORE_H_
