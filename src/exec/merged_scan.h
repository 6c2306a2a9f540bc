#ifndef BLOSSOMTREE_EXEC_MERGED_SCAN_H_
#define BLOSSOMTREE_EXEC_MERGED_SCAN_H_

#include <memory>
#include <vector>

#include "exec/nok_scan.h"
#include "exec/operator.h"

namespace blossomtree {
namespace exec {

/// \brief A materialized NestedList stream (used as the per-NoK output view
/// of the merged scan, and generally handy for tests/plans).
class MaterializedOperator : public NestedListOperator {
 public:
  /// \param guard optional per-query resource guard charged for every
  ///        handed-out list, as a scan producing the same stream would be.
  MaterializedOperator(std::vector<pattern::SlotId> tops,
                       std::vector<nestedlist::NestedList> lists,
                       util::ResourceGuard* guard = nullptr)
      : NestedListOperator(guard),
        tops_(std::move(tops)),
        lists_(std::move(lists)) {}

  const std::vector<pattern::SlotId>& top_slots() const override {
    return tops_;
  }
  void Rewind() override { pos_ = 0; }

  const char* Name() const override { return "Materialized"; }
  ExecStats Stats() const override {
    ExecStats s = base_stats_;
    s.MergeFrom(NestedListOperator::Stats());
    return s;
  }

  /// \brief Pre-paid stats of the producer that materialized this stream
  /// (e.g. a merged scan's per-NoK attribution), folded into Stats().
  void set_base_stats(const ExecStats& s) { base_stats_ = s; }

 private:
  bool Next(nestedlist::NestedList* out) override {
    if (pos_ >= lists_.size()) return false;
    *out = lists_[pos_++];
    return true;
  }

  std::vector<pattern::SlotId> tops_;
  std::vector<nestedlist::NestedList> lists_;
  size_t pos_ = 0;
  ExecStats base_stats_;
};

/// \brief Merged NoK evaluation (paper §4.2 "merging NoK operators"): runs
/// several NoK pattern matchers over ONE sequential scan of the document —
/// the DFA→NFA-style frontier merging that reduces k scans to one whenever
/// multiple NoK operators read the same document.
///
/// Usage: construct with the NoKs, call Run() once, then take per-NoK
/// operator views with MakeOperator(i).
class MergedNokScan {
 public:
  /// \param guard optional per-query resource guard; the shared pass
  ///        samples it every ~512 nodes and stops scanning once tripped
  ///        (the partial materialization is then discarded by the caller,
  ///        which must check guard->status()).
  /// \param exec kernel knobs (`exec.simd`): when every root tag is
  ///        concrete, the pass runs one SIMD candidate sweep per distinct
  ///        root tag instead of the per-node dispatch loop — same per-NoK
  ///        streams and counters (probes re-verify every candidate). A
  ///        wildcard root needs the per-node pass.
  MergedNokScan(const xml::Document* doc, const pattern::BlossomTree* tree,
                std::vector<const pattern::NokTree*> noks,
                util::ResourceGuard* guard = nullptr, ExecOptions exec = {});

  /// \brief Performs the single scan, materializing every NoK's matches.
  void Run();

  /// \brief Nodes scanned by the single shared pass (compare with
  /// k * NumNodes for k separate scans — the ablation bench's metric).
  uint64_t NodesScanned() const { return nodes_scanned_; }

  /// \brief Matcher work (constraint checks), which is *not* shared.
  uint64_t MatchWork() const;

  size_t NumNoks() const { return matchers_.size(); }

  /// \brief Stream view over NoK i's matches (valid after Run()).
  std::unique_ptr<MaterializedOperator> MakeOperator(size_t i);

  /// \brief Counters of the one shared pass (DESIGN.md §8): the scan cost
  /// is reported once here, not multiplied into the per-NoK views.
  ExecStats ScanStats() const;

 private:
  const xml::Document* doc_;
  util::ResourceGuard* guard_;
  ExecOptions exec_;
  std::vector<std::unique_ptr<NokMatcher>> matchers_;
  std::vector<bool> virtual_root_;
  std::vector<bool> match_any_;
  std::vector<std::string> root_tag_;
  std::vector<std::vector<nestedlist::NestedList>> results_;
  uint64_t nodes_scanned_ = 0;
  uint64_t value_cmps_ = 0;
  uint64_t wall_nanos_ = 0;
  bool ran_ = false;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_MERGED_SCAN_H_
