// In-memory span and count log for the traced run. Spans are recorded from
// the benchmark's own code around its calls into each engine module; the
// engine itself is not instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// One timed call. `name` is "<layer>.<step>" (e.g. "exec.drain"); the
/// per-query root span is named "query".
struct Span {
  const char* name = "";
  uint32_t query = 0;
  int32_t parent = -1;  ///< Index into the log, -1 for a root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// A count read at a span boundary (ExecStats, cache and store counters).
struct Count {
  const char* name = "";
  uint32_t query = 0;
  double value = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Starts a new query id; spans opened afterwards carry it.
  void BeginQuery() { ++query_; }

  /// Opens a span under the innermost open one; returns its index.
  int Open(const char* name);
  void Close(int index);

  void AddCount(const char* name, double value) {
    counts_.push_back({name, query_, value});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Count>& counts() const { return counts_; }

  /// Self time per span: its duration minus the part of its interval that
  /// its child spans cover.
  std::vector<int64_t> SelfTimes() const;

  /// Σ self time per span name, in nanoseconds.
  std::map<std::string, double> SelfNanosByName() const;

  /// Σ of each count name.
  std::map<std::string, double> CountTotals() const;

  /// Writes spans, their self times and the counts as one JSON document
  /// under a "run" header object (workload, seed, environment).
  bool WriteJson(const std::string& path, const std::string& run_json) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  uint32_t query_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Count> counts_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
