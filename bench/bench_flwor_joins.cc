// Crossing-edge join benchmark (DESIGN.md §17): the value join
//   for $a in //article, $b in //inproceedings where $a/author = $b/author
// and the deep-equal self-join over //article titles, on d5 at scales
// 0.05, 0.1, 0.2 and 0.4.
//
// Per query and scale it reports the end-to-end time (min and median of
// --runs), the crossing-edge join's own time, the peak RSS of the timed
// runs, the pairs the join probed and the tuples it emitted. At scales up
// to 0.1 it first checks the serialized result byte for byte against the
// navigational reference, whose FLWOR tuples come from NaiveFlworTuples;
// a mismatch exits non-zero.
//
// The BENCH_flwor_joins.json artifact pins the deterministic counters (the
// plan operators' work plus the join's build rows, probe rows, candidate
// pairs and emitted tuples), which the CI perf gate diffs exactly. Times
// and RSS are printed, not gated.
//
// Flags: --runs=N, --seed=N, and --scale=F to run only that scale instead
// of the sweep (for a quick local run; the gate runs the sweep).

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/navigational.h"
#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/engine.h"

using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::ProfileSink;
using blossomtree::bench::TimeSeconds;
using blossomtree::bench::WithContext;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::datagen::GenerateDataset;
using blossomtree::datagen::GenOptions;

namespace {

struct JoinCase {
  const char* id;
  const char* text;
};

constexpr JoinCase kCases[] = {
    {"value-join",
     "for $a in //article, $b in //inproceedings where $a/author = "
     "$b/author return <p>{$a/title}</p>"},
    {"deep-equal",
     "for $a in //article, $b in //article where deep-equal($a/title, "
     "$b/title) return <d>{$b/year}</d>"},
};

/// Largest scale whose result is checked against the navigational
/// reference (which evaluates the where-clause on every pair).
constexpr double kMaxCheckedScale = 0.1;

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

/// Restarts the VmHWM high-water mark from the current RSS (Linux
/// clear_refs), so each case reports its own peak. Returns false when the
/// restart fails; VmHWM is then the whole process's peak.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return !out.fail();
}

}  // namespace

int main(int argc, char** argv) {
  // No default scale: without --scale the bench runs the whole sweep.
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0);
  std::vector<double> scales = {0.05, 0.1, 0.2, 0.4};
  if (flags.scale > 0) scales = {flags.scale};
  bool peak_is_per_case = true;

  ProfileSink sink("flwor_joins");
  sink.AddDatasetLabel(DatasetName(Dataset::kD5Dblp));
  bool ok = true;
  // End-to-end median per case, in scale order, for the growth summary.
  std::vector<std::vector<double>> medians(std::size(kCases));

  std::printf("Crossing-edge joins on %s, %d run(s) per cell\n\n",
              DatasetName(Dataset::kD5Dblp), flags.runs);
  std::printf("  %-10s %6s %8s %10s %10s %10s %9s %12s %10s %s\n", "query",
              "scale", "nodes", "min_ms", "median_ms", "join_ms", "peak_MB",
              "pairs", "emitted", "checked");
  for (double scale : scales) {
    GenOptions o;
    o.scale = scale;
    o.seed = flags.seed;
    auto doc = GenerateDataset(Dataset::kD5Dblp, o);
    for (size_t c = 0; c < std::size(kCases); ++c) {
      const JoinCase& jc = kCases[c];
      blossomtree::engine::EngineOptions options;
      options.num_threads = 1;
      options.collect_profile = true;
      const bool checked = scale <= kMaxCheckedScale;
      uint64_t pairs = 0;
      uint64_t emitted = 0;
      {
        // Profiled run: the artifact's counters and the reference check.
        blossomtree::engine::BlossomTreeEngine engine(doc.get(), options);
        auto r = engine.EvaluateQuery(jc.text);
        if (!r.ok()) {
          std::printf("FAIL: %s at scale %g: %s\n", jc.id, scale,
                      r.status().ToString().c_str());
          return 1;
        }
        if (checked) {
          blossomtree::baseline::NavigationalEvaluator reference(doc.get());
          auto want = reference.EvaluateQuery(jc.text);
          if (!want.ok() || *want != *r) {
            std::printf("FAIL: %s at scale %g differs from the navigational "
                        "reference\n",
                        jc.id, scale);
            ok = false;
          }
        }
        const blossomtree::engine::QueryProfile& profile =
            engine.LastProfile();
        for (const auto& step : profile.cross_joins) {
          pairs += step.candidate_pairs;
          emitted = step.emitted;
        }
        char scale_text[32];
        std::snprintf(scale_text, sizeof(scale_text), "%g", scale);
        sink.Add(WithContext("\"dataset\": \"d5\", \"id\": \"" +
                                 std::string(jc.id) + "\", \"scale\": \"" +
                                 scale_text + "\"",
                             profile.ToJson()));
      }

      // Timed runs: a fresh engine per run, profiling off.
      if (!ResetPeakRss()) peak_is_per_case = false;
      std::vector<double> seconds;
      double join_ms = 0;
      for (int run = 0; run < flags.runs; ++run) {
        blossomtree::engine::EngineOptions timed;
        timed.num_threads = 1;
        blossomtree::engine::BlossomTreeEngine eng(doc.get(), timed);
        seconds.push_back(
            TimeSeconds([&] { (void)eng.EvaluateQuery(jc.text); }));
      }
      {
        // One profiled run for the join stage's own time.
        blossomtree::engine::BlossomTreeEngine eng(doc.get(), options);
        (void)eng.EvaluateQuery(jc.text);
        for (const auto& step : eng.LastProfile().cross_joins) {
          join_ms += static_cast<double>(step.wall_nanos) / 1e6;
        }
      }
      double peak = PeakRssMb();
      double median = Median(seconds);
      medians[c].push_back(median);
      std::printf("  %-10s %6g %8zu %10.2f %10.2f %10.2f %9.1f %12llu "
                  "%10llu %s\n",
                  jc.id, scale, doc->NumNodes(),
                  *std::min_element(seconds.begin(), seconds.end()) * 1e3,
                  median * 1e3, join_ms, peak,
                  static_cast<unsigned long long>(pairs),
                  static_cast<unsigned long long>(emitted),
                  checked ? "yes" : "no");
    }
  }
  if (scales.size() > 1) {
    std::printf("\nEnd-to-end growth from scale %g to %g (input x%.0f):\n",
                scales.front(), scales.back(), scales.back() / scales.front());
    for (size_t c = 0; c < std::size(kCases); ++c) {
      std::printf("  %-10s x%.1f\n", kCases[c].id,
                  medians[c].back() / medians[c].front());
    }
  }
  if (!peak_is_per_case) {
    std::printf("\nNote: could not reset the peak count through "
                "/proc/self/clear_refs, so peak_MB is the peak of the whole "
                "process, earlier cases and the reference included.\n");
  }
  sink.WriteAndReport();
  if (!ok) {
    std::printf("FAIL: crossing-edge join results differ from the "
                "reference\n");
    return 1;
  }
  std::printf("OK: results byte-identical to the navigational reference at "
              "every checked scale (up to %g)\n",
              kMaxCheckedScale);
  return 0;
}
