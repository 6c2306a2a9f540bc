#include "exec/index_seek.h"

#include <algorithm>

#include "exec/value_ops.h"

namespace blossomtree {
namespace exec {

IndexSeekOperator::IndexSeekOperator(const xml::Document* doc,
                                     const pattern::BlossomTree* tree,
                                     const pattern::NokTree* nok,
                                     std::vector<xml::NodeId> candidates,
                                     util::ResourceGuard* guard,
                                     const storage::NodeStore* store)
    : NestedListOperator(guard),
      doc_(doc),
      matcher_(doc, tree, nok),
      candidates_(std::move(candidates)),
      range_end_(doc->NumNodes() == 0
                     ? 0
                     : static_cast<xml::NodeId>(doc->NumNodes() - 1)),
      store_(store) {
  matcher_.set_guard(guard);
}

bool IndexSeekOperator::Next(nestedlist::NestedList* out) {
  util::ResourceGuard* g = guard();
  while (pos_ < candidates_.size() && candidates_[pos_] <= range_end_) {
    if (g != nullptr &&
        (g->Tripped() || ((probed_ & 0x1FF) == 0x1FF && !g->Check()))) {
      return false;
    }
    xml::NodeId x = candidates_[pos_++];
    ++probed_;
    if (store_ != nullptr) store_->Get(x, &io_cursor_);
    uint64_t cmp_before = ValueComparisonCount();
    bool matched = matcher_.RootTest(x) && matcher_.MatchAt(x, out);
    value_cmps_ += ValueComparisonCount() - cmp_before;
    if (matched) return true;
  }
  return false;
}

void IndexSeekOperator::Rewind() {
  pos_ = static_cast<size_t>(
      std::lower_bound(candidates_.begin(), candidates_.end(), range_begin_) -
      candidates_.begin());
  io_cursor_ = storage::ScanCursor();
}

void IndexSeekOperator::Restrict(xml::NodeId begin, xml::NodeId end) {
  range_begin_ = begin;
  range_end_ = end;
}

ExecStats IndexSeekOperator::Stats() const {
  ExecStats s = NestedListOperator::Stats();
  s.nodes_scanned = probed_;
  s.index_entries = probed_;
  s.comparisons = matcher_.MatchWork() + value_cmps_;
  return s;
}

}  // namespace exec
}  // namespace blossomtree
