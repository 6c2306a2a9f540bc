#include "exec/operator.h"

#include <cstdio>

namespace blossomtree {
namespace exec {

bool NestedListOperator::GetNext(nestedlist::NestedList* out) {
  ScopedTimer timer(&wall_nanos_);
  util::TraceSpan span("exec", TraceName(*this));
  return Next(out) && Emit(*out);
}

size_t NestedListOperator::GetNextBatch(Batch* out, size_t max_rows) {
  // One timer + trace span for the whole batch: the per-row bookkeeping
  // amortizes across max_rows.
  ScopedTimer timer(&wall_nanos_);
  util::TraceSpan span("exec", TraceName(*this));
  out->rows.clear();
  max_rows = ClampBatchRows(max_rows);
  nestedlist::NestedList nl;
  while (out->rows.size() < max_rows && Next(&nl) && Emit(nl)) {
    out->rows.push_back(std::move(nl));
    nl = nestedlist::NestedList();
  }
  return out->rows.size();
}

bool NestedListOperator::Emit(const nestedlist::NestedList& nl) {
  uint64_t cells = CountCells(nl);
  // Charge *before* counting: when the budget trips on this row the
  // consumer never receives it, and matches/cells must reflect what was
  // actually delivered. ChargeCells also refuses once the guard tripped
  // anywhere else, so a stream ends at the first row after any trip.
  if (guard_ != nullptr &&
      !guard_->ChargeCells(cells, cells * sizeof(nestedlist::Entry))) {
    return false;
  }
  ++matches_;
  nl_cells_ += cells;
  return true;
}

ExecStats NestedListOperator::Stats() const {
  ExecStats s;
  s.wall_nanos = wall_nanos_;
  s.matches = matches_;
  s.nl_cells = nl_cells_;
  return s;
}

std::vector<nestedlist::NestedList> Drain(NestedListOperator* op) {
  std::vector<nestedlist::NestedList> out;
  Batch batch;
  while (op->GetNextBatch(&batch, ClampBatchRows(ExecOptions{}.batch_rows)) >
         0) {
    out.insert(out.end(), std::make_move_iterator(batch.rows.begin()),
               std::make_move_iterator(batch.rows.end()));
  }
  return out;
}

namespace {

/// One rendered plan row: everything left of the actuals, and the actuals.
struct ExplainLine {
  std::string prefix;
  std::string actual;
};

void CollectExplainLines(const NestedListOperator& op, int depth,
                         std::vector<ExplainLine>* lines) {
  ExplainLine line;
  line.prefix.assign(static_cast<size_t>(depth) * 2, ' ');
  line.prefix += op.Label();
  double est = op.estimated_rows();
  if (est >= 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", est);
    line.prefix += "  (est rows=";
    line.prefix += buf;
    line.prefix += ")";
  }
  line.actual = op.Stats().Summary();
  lines->push_back(std::move(line));
  for (size_t i = 0; i < op.NumChildren(); ++i) {
    CollectExplainLines(*op.Child(i), depth + 1, lines);
  }
}

}  // namespace

std::string ExplainAnalyzeTree(const NestedListOperator& op, int depth) {
  // Two passes so the "(actual: ...)" column lines up across the whole
  // tree — long labels and 7+-digit counters no longer shear the layout.
  std::vector<ExplainLine> lines;
  CollectExplainLines(op, depth, &lines);
  size_t width = 0;
  for (const ExplainLine& l : lines) {
    width = width > l.prefix.size() ? width : l.prefix.size();
  }
  std::string out;
  for (ExplainLine& l : lines) {
    l.prefix.append(width - l.prefix.size() + 2, ' ');
    out += l.prefix + "(actual: " + l.actual + ")\n";
  }
  return out;
}

}  // namespace exec
}  // namespace blossomtree
