// Vectorized-execution benchmark (DESIGN.md §16): times the batch-at-a-time
// engine (chunked scan driver + SIMD tag-id candidate prefilter) against the
// node-at-a-time reference scan of reference_scan.h on scan-bound d5
// queries, and enforces the batch core's contract before the counter diff
// in CI:
//
//   1. Byte-identity: every query result is byte-identical across SIMD
//      kernels on/off and 1/2/4 threads.
//   2. Counter identity: the deterministic per-operator counters
//      (QueryProfile::ToText) are bitwise-identical across the same matrix
//      — kernels filter, they never tick a counter — and the plan's scans
//      visit exactly the nodes the reference scan does.
//   3. Throughput: on the scan-bound queries the engine's serial path must
//      clear >= 4x the reference scan in scanned nodes/sec. Each side is
//      timed per scan, from samples that alternate reference and engine
//      scans until each side sums to >= 20 ms; the best of --runs samples
//      counts.
//
// Exit status is non-zero on any violation. The BENCH_vectorized.json
// artifact pins the per-operator work counters of the vectorized plans, so
// the perf gate catches a change that silently makes batched plans scan or
// compare more.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "exec/kernels.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "pattern/decompose.h"
#include "reference_scan.h"
#include "xpath/parser.h"

using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::ProfileSink;
using blossomtree::bench::RunReferenceScan;
using blossomtree::bench::TimeSeconds;
using blossomtree::bench::WithContext;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::datagen::GenerateDataset;
using blossomtree::datagen::GenOptions;

namespace {

struct QueryCase {
  const char* id;
  const char* text;
  /// Gated by the 4x throughput floor: the scan dominates, so the SIMD
  /// prefilter's per-node win is the whole story. Join-heavy shapes are
  /// checked for identity but not held to the scan speedup.
  bool scan_bound;
};

constexpr QueryCase kQueries[] = {
    // phdthesis / www are d5's sparse tags: nearly every node is rejected
    // by the scan, so the prefilter's per-node win is the whole runtime.
    {"v1", "//phdthesis[year]/title", true},
    {"v2", "//www/editor", true},
    // Dense matches (article) and a //-join: per-match work dominates, so
    // these pin identity and counters but are not held to the scan floor.
    {"v3", "//article/title", false},
    {"v4", "//inproceedings//author", false},
};

/// One timing sample covers at least this long per side: a single scan
/// here takes 0.1-0.4 ms, well inside timer and scheduler noise on a shared
/// machine.
constexpr double kMinSampleSeconds = 0.02;

/// Seconds per call of `a` and of `b`, from one sample that alternates
/// their calls until each side's time sums to kMinSampleSeconds or more:
/// interleaved, both sides see the same machine load.
std::pair<double, double> SecondsPerCall(const std::function<void()>& a,
                                         const std::function<void()>& b) {
  double a_s = 0;
  double b_s = 0;
  size_t calls = 0;
  while (a_s < kMinSampleSeconds || b_s < kMinSampleSeconds) {
    a_s += TimeSeconds(a);
    b_s += TimeSeconds(b);
    ++calls;
  }
  return {a_s / static_cast<double>(calls), b_s / static_cast<double>(calls)};
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

blossomtree::engine::EngineOptions MakeOptions(unsigned threads,
                                               bool simd) {
  blossomtree::engine::EngineOptions o;
  o.num_threads = threads;
  o.collect_profile = true;
  o.plan.exec.simd = simd;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.05);
  std::vector<unsigned> threads = flags.threads;
  if (threads.empty()) threads = {1, 2, 4};

  GenOptions o;
  o.scale = flags.scale;
  o.seed = flags.seed;
  auto doc = GenerateDataset(Dataset::kD5Dblp, o);

  std::printf("Vectorized execution: %s, %zu nodes, kernels %s%s\n\n",
              DatasetName(Dataset::kD5Dblp), doc->NumNodes(),
              blossomtree::exec::KernelBackendName(
                  blossomtree::exec::EffectiveKernelBackend(true)),
              blossomtree::exec::ForceScalarKernels()
                  ? " (BLOSSOMTREE_FORCE_SCALAR_KERNELS)"
                  : "");

  ProfileSink sink("vectorized");
  sink.AddDatasetLabel(DatasetName(Dataset::kD5Dblp));

  bool ok = true;
  std::printf("  %-3s %12s %12s %11s %11s %8s %s\n", "id", "ref_ms",
              "vector_ms", "ref_Mn/s", "vec_Mn/s", "speedup", "identical");

  for (const QueryCase& q : kQueries) {
    // Reference: scalar kernels, serial — result bytes + counters.
    blossomtree::engine::BlossomTreeEngine ref(doc.get(),
                                               MakeOptions(1, false));
    auto ref_r = ref.EvaluateQuery(q.text);
    if (!ref_r.ok()) {
      std::printf("  %-3s reference error: %s\n", q.id,
                  ref_r.status().ToString().c_str());
      return 1;
    }
    const std::string ref_counters = ref.LastProfile().ToText();
    uint64_t nodes_scanned = 0;
    for (const auto& op : ref.LastProfile().operators) {
      nodes_scanned += op.stats.nodes_scanned;
    }

    // Contract sweep: results and deterministic counters identical across
    // the whole {threads} x {simd} matrix.
    bool identical = true;
    for (unsigned t : threads) {
      for (bool simd : {false, true}) {
        blossomtree::engine::BlossomTreeEngine eng(doc.get(),
                                                   MakeOptions(t, simd));
        auto r = eng.EvaluateQuery(q.text);
        if (!r.ok() || *r != *ref_r) {
          std::printf("FAIL: %s result differs at threads=%u simd=%d\n",
                      q.id, t, simd ? 1 : 0);
          identical = false;
        } else if (eng.LastProfile().ToText() != ref_counters) {
          std::printf("FAIL: %s counters differ at threads=%u simd=%d\n",
                      q.id, t, simd ? 1 : 0);
          identical = false;
        }
      }
    }

    // Artifact profile: the serial default plan's counters.
    {
      blossomtree::engine::BlossomTreeEngine prof(doc.get(),
                                                  MakeOptions(1, true));
      if (prof.EvaluateQuery(q.text).ok()) {
        std::string context = "\"dataset\": \"" +
                              std::string(DatasetName(Dataset::kD5Dblp)) +
                              "\", \"id\": \"" + q.id +
                              "\", \"variant\": \"vectorized\"";
        sink.Add(WithContext(context, prof.LastProfile().ToJson()));
      }
    }

    // Throughput: the executor itself (plan + drain), excluding query
    // parsing and result assembly — the floor measures scan throughput,
    // nodes/sec through the drivers. The baseline runs the reference scan
    // of every NoK the plan scans (all but a lone "~" root, which the
    // planner drops); the engine plan drains batch-at-a-time.
    auto path = blossomtree::xpath::ParsePath(q.text);
    auto tree = blossomtree::pattern::BuildFromPath(*path);
    if (!tree.ok()) {
      std::printf("  %-3s build error: %s\n", q.id,
                  tree.status().ToString().c_str());
      return 1;
    }
    blossomtree::pattern::Decomposition decomp =
        blossomtree::pattern::Decompose(*tree);
    std::vector<const blossomtree::pattern::NokTree*> scanned_noks;
    for (const auto& nok : decomp.noks) {
      if (nok.vertices.size() > 1 || !tree->vertex(nok.root).IsVirtualRoot()) {
        scanned_noks.push_back(&nok);
      }
    }
    const auto last =
        static_cast<blossomtree::xml::NodeId>(doc->NumNodes() - 1);
    uint64_t ref_nodes = 0;
    for (const auto* nok : scanned_noks) {
      ref_nodes += RunReferenceScan(*doc, *tree, *nok, 0, last).nodes_scanned;
    }
    if (ref_nodes != nodes_scanned) {
      std::printf("FAIL: %s plan scanned %llu nodes, reference scan %llu\n",
                  q.id, static_cast<unsigned long long>(nodes_scanned),
                  static_cast<unsigned long long>(ref_nodes));
      identical = false;
    }
    ok = ok && identical;
    auto vector_plan = blossomtree::opt::PlanQuery(
        doc.get(), &*tree, blossomtree::opt::PlanOptions{});
    if (!vector_plan.ok()) {
      std::printf("  %-3s plan error\n", q.id);
      return 1;
    }
    std::vector<double> ref_s;
    std::vector<double> vector_s;
    for (int run = 0; run < flags.runs; ++run) {
      auto [ref_call, vector_call] = SecondsPerCall(
          [&] {
            for (const auto* nok : scanned_noks) {
              RunReferenceScan(*doc, *tree, *nok, 0, last);
            }
          },
          [&] {
            vector_plan->trees[0].root->Rewind();
            blossomtree::exec::Batch batch;
            while (vector_plan->trees[0].root->GetNextBatch(&batch, 64) > 0) {
            }
          });
      ref_s.push_back(ref_call);
      vector_s.push_back(vector_call);
    }
    double rbest = *std::min_element(ref_s.begin(), ref_s.end());
    double vbest = *std::min_element(vector_s.begin(), vector_s.end());
    double speedup = rbest / vbest;
    std::printf("  %-3s %12.3f %12.3f %11.1f %11.1f %7.2fx %s\n", q.id,
                Median(ref_s) * 1e3, Median(vector_s) * 1e3,
                nodes_scanned / rbest / 1e6, nodes_scanned / vbest / 1e6,
                speedup, identical ? "yes" : "NO");
    if (q.scan_bound && speedup < 4.0) {
      std::printf("FAIL: %s speedup %.2fx over the reference scan is below "
                  "the 4x floor\n",
                  q.id, speedup);
      ok = false;
    }
  }

  sink.WriteAndReport();
  if (!ok) {
    std::printf("FAIL: vectorized execution contract violated\n");
    return 1;
  }
  std::printf("OK: results and counters identical across SIMD/threads; "
              "scan-bound speedup cleared the 4x floor\n");
  return 0;
}
