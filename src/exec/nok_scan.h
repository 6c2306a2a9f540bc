#ifndef BLOSSOMTREE_EXEC_NOK_SCAN_H_
#define BLOSSOMTREE_EXEC_NOK_SCAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/operator.h"
#include "exec/result_cache.h"
#include "nestedlist/nested_list.h"
#include "pattern/decompose.h"
#include "storage/node_store.h"
#include "storage/page_store.h"
#include "util/resource_guard.h"
#include "util/thread_pool.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Sentinel NodeId for the virtual document root "~" (the node above
/// the root element that anchors absolute paths).
constexpr xml::NodeId kVirtualRootNode = static_cast<xml::NodeId>(-2);

/// \brief NoK pattern-tree matcher (paper Algorithm 2): matches one NoK
/// pattern tree (local axes only) against the subtree rooted at a given
/// XML node, building the NestedList groups for every returning node in
/// one depth-first pass.
class NokMatcher {
 public:
  NokMatcher(const xml::Document* doc, const pattern::BlossomTree* tree,
             const pattern::NokTree* nok);

  /// \brief The NoK's local top slots: the slots its output NestedLists'
  /// `tops` are aligned with.
  const std::vector<pattern::SlotId>& top_slots() const { return top_slots_; }

  /// \brief Attempts to match the NoK rooted at `x` (kVirtualRootNode for a
  /// "~"-rooted NoK). On success fills `out` and returns true.
  bool MatchAt(xml::NodeId x, nestedlist::NestedList* out);

  /// \brief True if `x` can possibly match the NoK root (tag + value test);
  /// the scan driver uses this as a cheap prefilter.
  bool RootTest(xml::NodeId x) const;

  /// \brief Pattern-vertex/node constraint checks performed so far (a
  /// work metric for the ablation benches).
  uint64_t MatchWork() const { return match_work_; }

  /// \brief Attaches a resource guard: MatchVertex samples it every ~1k
  /// work units (DESIGN.md §9) so a deadline fires even inside one deep
  /// recursive match. After a trip MatchAt returns false; its partial
  /// output is garbage and callers must consult guard->status().
  void set_guard(util::ResourceGuard* guard) { guard_ = guard; }

 private:
  struct LocalVertex {
    pattern::VertexId vertex;
    std::vector<uint32_t> local_children;  ///< Indices into locals_.
    /// Slots this vertex contributes upward: [slot(v)] if returning, else
    /// the concatenation over local children.
    std::vector<pattern::SlotId> next_slots;
    /// For returning vertices: for each local child's next slot, its index
    /// within slot(v).children (global child-slot layout).
    std::vector<size_t> child_slot_index;
  };

  /// Matches of one local child accumulated by MatchVertex.
  struct ChildAcc {
    std::vector<nestedlist::Group> groups;
    int tag_count = 0;  ///< Same-tag siblings seen (positional predicates).
    bool matched = false;
  };
  /// MatchVertex's working buffers at one recursion depth, kept across
  /// matches so a match allocates only the groups it returns.
  struct Scratch {
    std::vector<ChildAcc> acc;
    std::vector<nestedlist::Group> sub;
  };

  bool ConstraintsOk(const pattern::Vertex& v, xml::NodeId x) const;
  bool TagOk(const pattern::Vertex& v, xml::NodeId x) const;
  bool MatchVertex(uint32_t local_index, xml::NodeId x, size_t depth,
                   std::vector<nestedlist::Group>* out_groups);

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  const pattern::NokTree* nok_;
  std::vector<LocalVertex> locals_;  ///< locals_[0] is the NoK root.
  std::vector<pattern::SlotId> top_slots_;
  /// One per recursion depth; a NoK recurses at most locals_.size() deep,
  /// so it is sized once and never reallocated under a live frame.
  std::vector<Scratch> scratch_;
  uint64_t match_work_ = 0;
  util::ResourceGuard* guard_ = nullptr;
};

/// \brief Sequential-scan driver (paper §3.3's "sequential scan of the XML
/// tree against the blossom tree"): tries the NoK at every node in document
/// order and emits one NestedList per match, as a Volcano-style iterator.
///
/// One range driver over one match buffer (DESIGN.md §16). ScanRange runs
/// the NoK over a node range — a virtual "~" root is a one-node range — in
/// 512-node chunks, each prefiltered by a SIMD tag-id kernel when the root
/// tag is concrete. The buffer is filled in one of two ways:
///  - lazily, one chunk per refill, when there is no cache and no pool or
///    the range is restricted — the streaming memory bound of paper §4.2;
///  - eagerly, the whole range as partitions, for a full-document scan
///    with a result cache or a multi-thread pool. With a pool the document
///    is split at top-level subtree boundaries (storage::PartitionSubtrees)
///    and one private NokMatcher matches each partition; serially the range
///    is one partition. With a cache each partition is probed first, and
///    each miss is scanned and then filled in.
/// Partition ranges ascend in NodeId (= Dewey/document order) and every
/// match is local to its partition, so the concatenation is bitwise-
/// identical to the lazy stream (Theorem 1; DESIGN.md §7), and so are the
/// deterministic counters.
class NokScanOperator : public NestedListOperator {
 public:
  /// \param pool optional worker pool; nullptr (or a restricted range)
  ///        selects the serial scan.
  /// \param guard optional per-query resource guard, sampled at chunk
  ///        boundaries (every ~512 nodes, per partition in parallel mode)
  ///        and charged for every emitted NestedList cell; once tripped the
  ///        stream ends early and the caller must check guard->status().
  /// \param cache optional NoK sub-result cache (DESIGN.md §11): full-range
  ///        scans probe it by (document generation, canonical NoK, range)
  ///        and replay a hit's materialized matches without scanning;
  ///        complete cold scans fill it. Range-restricted scans (the BNLJ
  ///        inner side) bypass it. nullptr = the uncached scan.
  /// \param store optional paged node store backing `doc` (an in-RAM
  ///        PageStore or an out-of-core DiskStore): the scan touches every
  ///        visited node through it with a per-scan cursor, so block
  ///        residency and page-read counts reflect the scan's real access
  ///        pattern — deterministically, independent of concurrent readers.
  ///        Partitioning also goes through the store when attached.
  /// \param exec kernel knobs (DESIGN.md §16): `exec.simd=false` routes the
  ///        tag prefilter through the scalar fallback. Results and counters
  ///        are identical either way.
  NokScanOperator(const xml::Document* doc, const pattern::BlossomTree* tree,
                  const pattern::NokTree* nok,
                  util::ThreadPool* pool = nullptr,
                  util::ResourceGuard* guard = nullptr,
                  NokResultCache* cache = nullptr,
                  const storage::NodeStore* store = nullptr,
                  ExecOptions exec = {});

  const std::vector<pattern::SlotId>& top_slots() const override {
    return matcher_.top_slots();
  }

  /// \brief Restricts the scan to nodes in [begin, end] (inclusive) — the
  /// bounded range of the BNLJ inner side (paper §4.3) — and rewinds.
  void Restrict(xml::NodeId begin, xml::NodeId end) override;

  void Rewind() override;

  /// \brief Nodes the driver has scanned (the I/O proxy: one sequential
  /// pass costs NumNodes). Parallel partitions contribute their counts.
  uint64_t NodesScanned() const { return nodes_scanned_; }
  uint64_t MatchWork() const { return matcher_.MatchWork() + eager_work_; }

  /// \brief Partitions used by the last parallel scan (0 = serial path).
  size_t PartitionsUsed() const { return partitions_used_; }

  const char* Name() const override { return "NokScan"; }

  /// \brief Counters (DESIGN.md §8): lazy scans accumulate as the stream is
  /// consumed; eager scans merge per-partition thread-local counts in
  /// partition order when they fill the buffer. Matches and cells are
  /// counted on handout. After Finish() both report identical totals.
  ExecStats Stats() const override;

 private:
  /// Chunk granularity of the scan driver: guard checks, kernel candidate
  /// prefilters, bulk nodes_scanned accounting and lazy refills all happen
  /// at this stride (DESIGN.md §16).
  static constexpr size_t kScanChunk = 512;

  bool Next(nestedlist::NestedList* out) override;

  /// Scans nodes [begin, end] with matcher `m` (the virtual root instead,
  /// as a one-node range, for a "~" NoK), touching `store_` through `io`,
  /// gathering each chunk's kernel candidates into the caller's reusable
  /// `candidates` buffer, bulk-counting scanned nodes / value comparisons
  /// into *scanned / *vcmps and appending matches to *out. The guard is
  /// sampled at every ≤kScanChunk-node chunk top — Check() never mutates
  /// counters, so untripped runs keep bitwise-identical counters. Returns
  /// false iff the guard tripped mid-scan.
  bool ScanRange(NokMatcher* m, xml::NodeId begin, xml::NodeId end,
                 storage::ScanCursor* io,
                 std::vector<xml::NodeId>* candidates, uint64_t* scanned,
                 uint64_t* vcmps,
                 std::vector<nestedlist::NestedList>* out) const;

  /// Collects NodeIds in [first, last] whose tag id equals target_tag_
  /// (the SIMD kernels; scalar fallback when exec_.simd is off). Touches
  /// the store block-at-a-time through `io` with the same read accounting
  /// as per-node Gets.
  void GatherCandidates(xml::NodeId first, xml::NodeId last,
                        storage::ScanCursor* io,
                        std::vector<xml::NodeId>* out) const;

  /// True when the scan may run partitioned: a multi-thread pool is
  /// attached and the range covers the whole document (the BNLJ's
  /// restricted inner re-scans stay serial — their ranges are single
  /// subtrees).
  bool ParallelEligible() const;

  /// True when the scan may use the result cache: a cache is attached and
  /// the range covers the whole finished document.
  bool CacheEligible() const;

  /// Lazy fill: scans the next ≤kScanChunk nodes of the range into buf_.
  void FillNextChunk();

  /// Eager fill: the whole range as partitions (one when serial), each
  /// probed against and filled into the cache when one applies, into buf_
  /// in partition (= document) order.
  void FillPartitions();

  /// Stores a complete match list under `key` unless the guard tripped
  /// mid-scan (a partial list must never be cached).
  void FillCache(const NokCacheKey& key,
                 const std::vector<nestedlist::NestedList>& matches);

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  const pattern::NokTree* nok_;
  NokMatcher matcher_;
  bool virtual_root_;
  xml::NodeId range_begin_ = 0;
  xml::NodeId range_end_;
  /// Next node the lazy fill scans; `exhausted_` once the range is done.
  xml::NodeId cursor_ = 0;
  bool exhausted_ = false;
  /// The match buffer: entries [buf_pos_, size) are yet to be handed out.
  std::vector<nestedlist::NestedList> buf_;
  size_t buf_pos_ = 0;

  uint64_t nodes_scanned_ = 0;
  uint64_t value_cmps_ = 0;
  /// Match work of the eager fills' private per-partition matchers.
  uint64_t eager_work_ = 0;
  size_t partitions_used_ = 0;

  util::ThreadPool* pool_;
  NokResultCache* cache_;
  /// Canonical NoK fingerprint (computed once at construction when a cache
  /// is attached): the pattern half of every cache key this scan uses.
  std::string canonical_nok_;

  /// Optional paged store behind the document; the lazy fill threads
  /// `io_cursor_` through it (partitions use private cursors).
  const storage::NodeStore* store_;
  storage::ScanCursor io_cursor_;
  /// The lazy fill's kernel candidate buffer, kept across chunks.
  std::vector<xml::NodeId> candidates_;

  ExecOptions exec_;
  /// Root tag id for kernel candidate prefiltering; kNullTag when the tag
  /// is absent from the document (zero candidates, matching a per-node
  /// scan's zero matches).
  xml::TagId target_tag_ = xml::kNullTag;
  /// True when a kernel candidate needs no RootTest: the root is a plain
  /// tag test, which the candidate's tag id already passed.
  bool candidates_pass_root_test_ = false;
  /// Prefiltering is sound only for a concrete element root: wildcard and
  /// attribute roots run the per-node loop inside each chunk.
  bool kernel_eligible_ = false;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_NOK_SCAN_H_
