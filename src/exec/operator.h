#ifndef BLOSSOMTREE_EXEC_OPERATOR_H_
#define BLOSSOMTREE_EXEC_OPERATOR_H_

#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/exec_stats.h"
#include "nestedlist/nested_list.h"
#include "pattern/blossom_tree.h"
#include "util/resource_guard.h"
#include "util/trace.h"
#include "xml/document.h"

namespace blossomtree {
namespace exec {

/// \brief Volcano-style iterator over NestedLists (paper §4.2: operators
/// expose GetNext; pipelined joins compose them without materialization).
///
/// One dialect (DESIGN.md §16): each operator implements only the protected
/// Next(); the base class owns both public entry points and the emission
/// accounting. GetNextBatch pays one timer and trace span per batch,
/// GetNext is the same path for one row, and both charge every emitted
/// row's cells to the resource guard *before* counting it, so an operator
/// cannot skip its budget and a row that trips the budget is neither
/// delivered nor counted.
///
/// Every operator additionally exposes the observability surface of
/// DESIGN.md §8: a name/label, ExecStats counters, and child links so the
/// EXPLAIN ANALYZE renderer and QueryProfile export can walk the executed
/// plan tree.
class NestedListOperator {
 public:
  /// \param guard optional per-query resource guard charged for every
  ///        emitted NestedList cell; once it trips, streams end early and
  ///        the caller must check guard->status().
  explicit NestedListOperator(util::ResourceGuard* guard = nullptr)
      : guard_(guard) {}
  virtual ~NestedListOperator() = default;

  /// \brief The slot context of emitted NestedLists.
  virtual const std::vector<pattern::SlotId>& top_slots() const = 0;

  /// \brief Produces the next NestedList; false at end of stream. A
  /// one-row GetNextBatch, for joins that consume their children row by
  /// row and for tests.
  bool GetNext(nestedlist::NestedList* out);

  /// \brief Batch-at-a-time production (DESIGN.md §16): clears `out` and
  /// refills it with up to ClampBatchRows(max_rows) NestedLists. Returns
  /// the number produced; 0 ⟺ end of stream. Mixing GetNext and
  /// GetNextBatch calls on one stream is legal — both advance the same
  /// cursor.
  size_t GetNextBatch(Batch* out, size_t max_rows);

  /// \brief Restarts the stream from the beginning.
  virtual void Rewind() = 0;

  /// \brief Scan-range push-down: restricts the underlying document scan to
  /// nodes in [begin, end]. Joins propagate this to their outer scan; the
  /// BNLJ uses it to bound its inner side per outer match (paper §4.3).
  /// No-op by default. Call Rewind() afterwards to take effect.
  virtual void Restrict(xml::NodeId begin, xml::NodeId end) {
    (void)begin;
    (void)end;
  }

  // -- Observability (DESIGN.md §8) -----------------------------------------

  /// \brief Operator-class name ("NokScan", "PipelinedDescJoin", ...).
  virtual const char* Name() const { return "Operator"; }

  /// \brief Execution counters accumulated so far. Profile collectors call
  /// Finish() first so lazily-consumed streams report run-to-completion
  /// totals (identical across thread counts). The base reports the
  /// emission counters it owns (wall time, matches, nl_cells); operators
  /// with work counters of their own add them to NestedListOperator::Stats().
  virtual ExecStats Stats() const;

  /// \brief Runs this operator's stream to completion without emitting to a
  /// consumer, then finishes its children. EXPLAIN ANALYZE semantics: after
  /// Finish(), counters cover the whole input, whether the stream was
  /// consumed lazily (serial scans) or materialized eagerly (parallel
  /// scans) — the normalization the cross-thread determinism tests rely on.
  void Finish() {
    nestedlist::NestedList nl;
    while (GetNext(&nl)) nl = nestedlist::NestedList();
    for (size_t i = 0; i < NumChildren(); ++i) MutableChild(i)->Finish();
  }

  /// \brief Plan-tree links for renderers (0 children by default).
  virtual size_t NumChildren() const { return 0; }
  virtual const NestedListOperator* Child(size_t i) const {
    (void)i;
    return nullptr;
  }
  virtual NestedListOperator* MutableChild(size_t i) {
    (void)i;
    return nullptr;
  }

  /// \brief Display label set by the planner ("NokScan(section,figure)");
  /// falls back to Name() when unset.
  std::string Label() const { return label_.empty() ? Name() : label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// \brief Planner cardinality estimate for estimated-vs-actual EXPLAIN;
  /// negative when the plan was built without a cost model.
  double estimated_rows() const { return estimated_rows_; }
  void set_estimated_rows(double rows) { estimated_rows_ = rows; }

 protected:
  /// \brief Produces the next row of the stream into `out`; false at end of
  /// stream. Called only by GetNext/GetNextBatch, which time, charge and
  /// count what it returns.
  virtual bool Next(nestedlist::NestedList* out) = 0;

  util::ResourceGuard* guard() const { return guard_; }

 private:
  /// Charges `nl` to the guard, then counts it; false when the charge
  /// trips the budget (the row is then dropped, not delivered).
  bool Emit(const nestedlist::NestedList& nl);

  util::ResourceGuard* guard_;
  uint64_t wall_nanos_ = 0;
  uint64_t matches_ = 0;
  uint64_t nl_cells_ = 0;
  std::string label_;
  double estimated_rows_ = -1.0;
};

/// \brief Span name for an operator's timeline events: the planner label
/// when tracing is on, and a free empty string otherwise — call sites pay
/// for the label string only on traced runs (DESIGN.md §10).
inline std::string TraceName(const NestedListOperator& op) {
  return util::Tracer::Get().enabled() ? op.Label() : std::string();
}

/// \brief Drains an operator into a materialized sequence.
std::vector<nestedlist::NestedList> Drain(NestedListOperator* op);

/// \brief Renders the operator tree rooted at `op` as indented EXPLAIN
/// ANALYZE lines: one "Label (est=...) (actual: counters)" line per
/// operator, children indented two spaces deeper. Call op->Finish() first
/// for run-to-completion counters.
std::string ExplainAnalyzeTree(const NestedListOperator& op, int depth = 0);

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_OPERATOR_H_
