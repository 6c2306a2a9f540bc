#ifndef BLOSSOMTREE_EXEC_BATCH_H_
#define BLOSSOMTREE_EXEC_BATCH_H_

#include <cstddef>
#include <vector>

#include "nestedlist/nested_list.h"

namespace blossomtree {
namespace exec {

/// \brief Fixed-capacity unit of exchange between operators (DESIGN.md
/// §16). NestedListOperator::GetNextBatch clears `rows` and refills it on
/// each call; ownership of the rows passes to the consumer, which may move
/// them out. Reusing one Batch across calls amortizes the vector
/// allocation.
struct Batch {
  std::vector<nestedlist::NestedList> rows;

  bool empty() const { return rows.empty(); }
  size_t size() const { return rows.size(); }
  void clear() { rows.clear(); }
};

/// \brief Execution-core knobs, plumbed planner→operators through
/// `opt::PlanOptions::exec`. Results and the deterministic counter surface
/// are identical at every setting (DESIGN.md §16).
struct ExecOptions {
  /// Rows per exchanged batch, clamped to [1, 4096] by operators. A
  /// NestedList row is a few pointers, so the default 64 rows lands in
  /// a 1–4 KB batch.
  size_t batch_rows = 64;
  /// Allow the compiled SIMD kernel backend; false routes every kernel
  /// through the portable scalar fallback (same effect as
  /// BLOSSOMTREE_FORCE_SCALAR_KERNELS=1) — the only backend on platforms
  /// without SSE2/NEON, and how tests reach it in-process.
  bool simd = true;
};

/// \brief Effective per-batch row budget: the knob clamped to [1, 4096].
inline size_t ClampBatchRows(size_t batch_rows) {
  if (batch_rows < 1) return 1;
  if (batch_rows > 4096) return 4096;
  return batch_rows;
}

}  // namespace exec
}  // namespace blossomtree

#endif  // BLOSSOMTREE_EXEC_BATCH_H_
