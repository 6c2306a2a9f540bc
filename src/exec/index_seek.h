#ifndef BLOSSOMTREE_EXEC_INDEX_SEEK_H_
#define BLOSSOMTREE_EXEC_INDEX_SEEK_H_

#include <vector>

#include "exec/nok_scan.h"
#include "exec/operator.h"
#include "storage/node_store.h"
#include "util/resource_guard.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Index-driven NoK access path (DESIGN.md §14): instead of testing
/// the NoK at every document node, probe only the candidate NodeIds the
/// planner pulled from a StructuralIndex — a tag posting list, an exact
/// value-index equality run, or the empty set when the DataGuide proved the
/// NoK's mandatory paths absent.
///
/// Each candidate is re-verified with the full NokMatcher (RootTest +
/// MatchAt), so a candidate *superset* is always safe; the index layer
/// guarantees no candidate is missing. Candidates are in document order, so
/// the emitted stream is byte-identical to the sequential scan's — the
/// planner may swap access paths without changing any result.
///
/// Counters: every probed candidate counts as one `nodes_scanned` (the same
/// I/O proxy the scan reports, making seek-vs-scan reductions directly
/// comparable) and one `index_entries` (the seek's own work metric). All
/// probing happens on the consumer thread, so the counters are
/// deterministic at every thread count.
class IndexSeekOperator : public NestedListOperator {
 public:
  /// \param candidates NodeIds to probe, ascending document order; the
  ///        planner's access-path choice (empty = provably-empty NoK).
  /// \param guard optional per-query resource guard, sampled every ~512
  ///        probes and charged for every emitted NestedList cell.
  /// \param store optional paged store backing `doc`: probed candidates are
  ///        touched through it so residency counters see the seek's access
  ///        pattern.
  IndexSeekOperator(const xml::Document* doc,
                    const pattern::BlossomTree* tree,
                    const pattern::NokTree* nok,
                    std::vector<xml::NodeId> candidates,
                    util::ResourceGuard* guard = nullptr,
                    const storage::NodeStore* store = nullptr);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return matcher_.top_slots();
  }

  void Rewind() override;

  /// \brief Restricts probing to candidates in [begin, end] (the BNLJ
  /// inner-side push-down); a binary search skips the out-of-range prefix.
  void Restrict(xml::NodeId begin, xml::NodeId end) override;

  const char* Name() const override { return "IndexSeek"; }
  ExecStats Stats() const override;

  /// \brief Candidates probed so far — the seek's `nodes_scanned`.
  uint64_t NodesScanned() const { return probed_; }

  size_t NumCandidates() const { return candidates_.size(); }

 private:
  bool Next(nestedlist::NestedList* out) override;

  const xml::Document* doc_;
  NokMatcher matcher_;
  std::vector<xml::NodeId> candidates_;
  size_t pos_ = 0;
  xml::NodeId range_begin_ = 0;
  xml::NodeId range_end_;

  uint64_t probed_ = 0;
  uint64_t value_cmps_ = 0;

  const storage::NodeStore* store_;
  storage::ScanCursor io_cursor_;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_INDEX_SEEK_H_
