#ifndef BLOSSOMTREE_EXEC_JOINS_H_
#define BLOSSOMTREE_EXEC_JOINS_H_

#include <functional>
#include <memory>
#include <vector>

#include "exec/nok_scan.h"
#include "exec/operator.h"
#include "util/resource_guard.h"

namespace blossomtree {
namespace exec {

/// \brief Pipelined //-join (paper §4.2 GetNext algorithm): merge-join of an
/// outer NestedList stream with an inner NoK stream, grafting each inner
/// match under the outer entry (at `from_slot`) whose subtree contains it.
///
/// Correct only when projections are document-order preserving, i.e. on
/// non-recursive documents (Theorem 2); the optimizer enforces that
/// precondition. No intermediate results are materialized.
class PipelinedDescJoin : public NestedListOperator {
 public:
  /// \param from_slot the outer slot the cut //-edge leaves from.
  /// \param mode f: outer entries without any inner match are pruned
  ///        (cascading); l: they are kept with an empty group.
  /// \param guard optional per-query resource guard, checked once per outer
  ///        tuple and charged for emitted cells (DESIGN.md §9).
  PipelinedDescJoin(const xml::Document* doc,
                    const pattern::BlossomTree* tree,
                    std::unique_ptr<NestedListOperator> outer,
                    std::unique_ptr<NestedListOperator> inner,
                    pattern::SlotId from_slot, pattern::EdgeMode mode,
                    util::ResourceGuard* guard = nullptr);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return outer_->top_slots();
  }
  void Rewind() override;
  void Restrict(xml::NodeId begin, xml::NodeId end) override {
    outer_->Restrict(begin, end);
    inner_->Restrict(begin, end);
  }

  /// \brief Peak number of buffered inner entries (the §4.2 memory-
  /// requirement metric: grows with document recursion).
  size_t PeakBuffered() const { return peak_buffered_; }

  const char* Name() const override { return "PipelinedDescJoin"; }
  ExecStats Stats() const override;
  size_t NumChildren() const override { return 2; }
  const NestedListOperator* Child(size_t i) const override {
    return i == 0 ? outer_.get() : inner_.get();
  }
  NestedListOperator* MutableChild(size_t i) override {
    return i == 0 ? outer_.get() : inner_.get();
  }

 private:
  bool Next(nestedlist::NestedList* out) override;
  bool FetchInner();
  /// Merges buffered inner entries into `e`'s child group (the paper
  /// GetNext lines 7-9) with branch-free counting searches (CountLessEq)
  /// over the buffered run, fetching more inner as the buffer drains.
  void MergeInto(nestedlist::Entry* e);

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  std::unique_ptr<NestedListOperator> outer_;
  std::unique_ptr<NestedListOperator> inner_;
  pattern::SlotId from_slot_;
  pattern::SlotId inner_top_;
  size_t child_index_;
  pattern::EdgeMode mode_;

  /// Buffered inner run: entries [inner_head_, inner_buf_.size()) are
  /// live, with their region labels mirrored in inner_nodes_ so the merge
  /// can binary-search a flat sorted NodeId array (the branch-free
  /// containment test) without touching the entries.
  std::vector<nestedlist::Entry> inner_buf_;
  std::vector<xml::NodeId> inner_nodes_;
  size_t inner_head_ = 0;
  bool inner_done_ = false;
  size_t peak_buffered_ = 0;
  uint64_t merge_comparisons_ = 0;
};

/// \brief Bounded nested-loop //-join (paper §4.3): for every outer entry,
/// re-scan the inner NoK restricted to the entry's subtree range (p1, p2].
/// Works on recursive documents (unlike the pipelined join) at the price of
/// repeated scans — NokScanOperator::NodesScanned exposes that cost.
class BoundedNestedLoopJoin : public NestedListOperator {
 public:
  /// \param bounded true: restrict each inner re-scan to the outer match's
  ///        subtree range (the paper's BNLJ); false: re-scan the whole
  ///        document per outer entry (the naive nested-loop strawman the
  ///        ablation bench compares against).
  /// \param guard optional per-query resource guard, checked once per outer
  ///        tuple (the inner re-scan is governed by the inner operator's
  ///        own guard) and charged for emitted cells.
  BoundedNestedLoopJoin(const xml::Document* doc,
                        const pattern::BlossomTree* tree,
                        std::unique_ptr<NestedListOperator> outer,
                        std::unique_ptr<NestedListOperator> inner,
                        pattern::SlotId from_slot, pattern::EdgeMode mode,
                        bool bounded = true,
                        util::ResourceGuard* guard = nullptr);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return outer_->top_slots();
  }
  void Rewind() override;
  void Restrict(xml::NodeId begin, xml::NodeId end) override {
    outer_->Restrict(begin, end);
  }

  /// \brief Number of inner re-scans performed (one per outer entry).
  uint64_t InnerRescans() const { return inner_rescans_; }

  const char* Name() const override {
    return bounded_ ? "BoundedNestedLoopJoin" : "NaiveNestedLoopJoin";
  }
  ExecStats Stats() const override;
  size_t NumChildren() const override { return 2; }
  const NestedListOperator* Child(size_t i) const override {
    return i == 0 ? outer_.get() : inner_.get();
  }
  NestedListOperator* MutableChild(size_t i) override {
    return i == 0 ? outer_.get() : inner_.get();
  }

 private:
  bool Next(nestedlist::NestedList* out) override;

  const xml::Document* doc_;
  const pattern::BlossomTree* tree_;
  std::unique_ptr<NestedListOperator> outer_;
  std::unique_ptr<NestedListOperator> inner_;
  pattern::SlotId from_slot_;
  pattern::SlotId inner_top_;
  size_t child_index_;
  pattern::EdgeMode mode_;
  bool bounded_;
  uint64_t inner_rescans_ = 0;
};

/// \brief Naive nested-loop join (paper §4.3) for the predicates that are
/// not order-preserving (`<<`, value joins, deep-equal): evaluates `pred`
/// on every pair from the two sequences and emits the Combined NestedList
/// for matching pairs (paper Example 4/5).
class NestedLoopJoin : public NestedListOperator {
 public:
  /// \param tops the combined top-slot context (usually the global tree's
  ///        top_slots()); both inputs must already be framed over it.
  /// \param owns_left owns_left[i] == true iff top group i comes from the
  ///        left input.
  /// \param pred predicate over a (left, right) pair.
  /// \param guard optional per-query resource guard, sampled every ~1k
  ///        predicate evaluations (this join is quadratic, so per-pair
  ///        clock samples would dominate) and charged for emitted cells.
  NestedLoopJoin(
      std::vector<pattern::SlotId> tops,
      std::unique_ptr<NestedListOperator> left,
      std::unique_ptr<NestedListOperator> right, std::vector<bool> owns_left,
      std::function<bool(const nestedlist::NestedList&,
                         const nestedlist::NestedList&)>
          pred,
      util::ResourceGuard* guard = nullptr);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return tops_;
  }
  void Rewind() override;

  const char* Name() const override { return "NestedLoopJoin"; }
  ExecStats Stats() const override;
  size_t NumChildren() const override { return 2; }
  const NestedListOperator* Child(size_t i) const override {
    return i == 0 ? left_.get() : right_.get();
  }
  NestedListOperator* MutableChild(size_t i) override {
    return i == 0 ? left_.get() : right_.get();
  }

 private:
  bool Next(nestedlist::NestedList* out) override;

  std::vector<pattern::SlotId> tops_;
  std::unique_ptr<NestedListOperator> left_;
  std::unique_ptr<NestedListOperator> right_;
  std::vector<bool> owns_left_;
  std::function<bool(const nestedlist::NestedList&,
                     const nestedlist::NestedList&)>
      pred_;

  bool left_valid_ = false;
  nestedlist::NestedList cur_left_;
  std::vector<nestedlist::NestedList> right_mat_;
  bool right_materialized_ = false;
  size_t right_pos_ = 0;

  uint64_t pred_calls_ = 0;
  uint64_t value_cmps_ = 0;
};

/// \brief Re-frames a NoK-local stream into a larger slot context: emitted
/// lists get `frame_tops` with the input's single top group placed at
/// `position` and placeholder entries elsewhere (paper §3.3's "initial
/// NestedList ... placeholders are filled out in the result").
class FrameOperator : public NestedListOperator {
 public:
  /// \param guard optional per-query resource guard charged for the cells
  ///        of every framed list.
  FrameOperator(const pattern::BlossomTree* tree,
                std::vector<pattern::SlotId> frame_tops, size_t position,
                std::unique_ptr<NestedListOperator> input,
                util::ResourceGuard* guard = nullptr);

  const std::vector<pattern::SlotId>& top_slots() const override {
    return frame_tops_;
  }
  void Rewind() override;

  const char* Name() const override { return "Frame"; }
  size_t NumChildren() const override { return 1; }
  const NestedListOperator* Child(size_t) const override {
    return input_.get();
  }
  NestedListOperator* MutableChild(size_t) override { return input_.get(); }

 private:
  bool Next(nestedlist::NestedList* out) override;

  const pattern::BlossomTree* tree_;
  std::vector<pattern::SlotId> frame_tops_;
  size_t position_;
  std::unique_ptr<NestedListOperator> input_;
};

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_JOINS_H_
