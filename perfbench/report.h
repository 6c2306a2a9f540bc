// Statistics and output helpers shared by every workload of the benchmark.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

/// The highest percentile, capped at p99, that leaves at least ten samples
/// beyond it — the tail figure a sample of this size supports.
struct Tail {
  double percentile = 0;  ///< e.g. 99.0, or 97.5 for a 400-sample run.
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;  ///< Samples strictly above the reported rank.
};
Tail TailLatency(std::vector<double> values);

double GeoMean(const std::vector<double>& values);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// Returns freed heap to the system and restarts the peak-RSS count from
/// the current resident set, so the peak covers the measured window and not
/// the reference computation before it. Returns false when the count could
/// not be reset (no writable /proc/self/clear_refs); the peak then covers
/// the whole process, and kPeakRssNotReset says so in the run's notes.
bool ResetPeakRss();
extern const char* kPeakRssNotReset;

/// One reported metric, printed as {"value": ..., "unit": ...}.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main(): the correctness verdict, the
/// operation counts, and the metrics of the requested kind.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable context (sample counts, percentiles, ladder steps),
  /// printed before the result line.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Machine and build identification carried by every result.
std::string EnvironmentJson(const std::string& commit,
                            const std::string& src_digest);

std::string JsonEscape(const std::string& s);

/// Renders the last stdout line: exactly correct/attempted/failed/metrics.
std::string ResultJson(const RunResult& r);

/// Formats a double with every significant digit (round-trippable).
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
