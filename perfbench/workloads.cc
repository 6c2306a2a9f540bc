#include "workloads.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/navigational.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "replay.h"
#include "service/corpus.h"
#include "service/query_service.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/queries.h"
#include "xml/document.h"

namespace perfbench {

namespace bt = blossomtree;
using bt::datagen::Dataset;

namespace {

/// Set-up is repeated this many times per run and its median reported, so
/// a single slow allocation or page-cache miss does not decide setup_s.
constexpr int kSetupReps = 5;
/// The service workload's latency objective for max_qps_at_slo.
constexpr double kSloMs = 100.0;
/// Threads used to compute navigational references (before timing).
constexpr unsigned kReferenceThreads = 4;

uint64_t Derive(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer over the pair, so neighbouring seeds and salts
  // give unrelated streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::unique_ptr<bt::xml::Document> Generate(Dataset d, double scale,
                                            uint64_t seed) {
  bt::datagen::GenOptions o;
  o.scale = scale;
  o.seed = seed;
  return bt::datagen::GenerateDataset(d, o);
}

/// Evaluates `fn(i)` for i in [0, n) on a few threads, joined on return.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> threads;
  unsigned count = static_cast<unsigned>(
      std::min<size_t>(kReferenceThreads, std::max<size_t>(n, 1)));
  for (unsigned t = 1; t < count; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
}

/// Copies each item's reference output into memory allocated by the calling
/// thread. ParallelFor's workers allocate them in their own malloc arenas,
/// where the long-lived strings would pin pages among the freed scratch of
/// the reference computation; how many pages depends on the seed and on
/// which worker took which query, and that showed in peak_rss_mb.
template <typename Item>
void ReallocateOnThisThread(std::vector<Item>* items) {
  for (Item& item : *items) item.expected = std::string(item.expected);
}

/// peak_rss_mb is the peak over a fixed amount of work, the first round (one
/// block in service_mix), and not over the whole window. Past the first
/// round the peak creeps up with fragmentation and, in service_mix, with
/// the plan cache filling with literal texts; so a whole-window peak grows
/// with --seconds and with the build's speed. The note gives both.
std::string PeakRssNote(double first_round_mb) {
  char line[160];
  std::snprintf(line, sizeof line,
                "peak_rss_mb: %.2f MB over the first round, %.2f MB over the "
                "whole window",
                first_round_mb, PeakRssMb());
  return line;
}

/// One query of a closed-loop workload, with its reference output.
struct Query {
  std::string id;
  std::string text;
  size_t doc = 0;
  std::string expected;
};

/// Outcome check shared by every timed and traced evaluation. A wrong
/// result is a correctness failure, never a counted failure: it stops the
/// run and names the query.
bool CheckOutput(const std::string& workload, const std::string& id,
                 const std::string& text,
                 const bt::Result<std::string>& got,
                 const std::string& expected, const char* stage,
                 RunResult* result) {
  ++result->attempted;
  if (!got.ok()) {
    ++result->failed;
    result->notes.push_back(std::string("failed ") + stage + " " + id + ": " +
                            got.status().ToString());
    return true;
  }
  if (*got != expected) {
    result->correct = false;
    std::fprintf(stderr,
                 "MISMATCH in %s (%s): query %s `%s`: %zu bytes, reference "
                 "has %zu bytes\n",
                 workload.c_str(), stage, id.c_str(), text.c_str(),
                 got->size(), expected.size());
    return false;
  }
  return true;
}

/// Per-layer figures that do not come from the replayed pipeline: set-up
/// phases and the service run. Zero where the workload has no such layer.
struct SideLayers {
  double gen_s = 0;
  double ingest_s = 0;
  double index_build_s = 0;
  double block_hit_ratio = 0;
  double block_evictions = 0;
  double page_reads = 0;
  double result_cache_hit_ratio = 0;
  double plan_cache_hit_ratio = 0;
  double queue_delay_p50_ms = 0;
  double queue_delay_p99_ms = 0;
  double run_p50_ms = 0;
  double slot_busy_frac = 0;
  double rejected = 0;
  double late_p99_ms = 0;
  double open_p50_ms = 0;
  double open_p99_ms = 0;
  double max_qps_at_slo = 0;
};

/// Flushes a freshly written file to disk, so its write-back happens during
/// set-up instead of inside the first measured step.
bt::Status SyncFile(const std::string& path) {
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return bt::Status::IOError("open " + path);
  bool ok = fsync(fd) == 0;
  close(fd);
  return ok ? bt::Status::OK() : bt::Status::IOError("fsync " + path);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double HitRatio(const bt::util::CacheStats& before,
                const bt::util::CacheStats& after) {
  double hits = static_cast<double>(after.hits - before.hits);
  double misses = static_cast<double>(after.misses - before.misses);
  return Ratio(hits, hits + misses);
}

/// Turns the trace into the per-layer metrics, writes the trace file, and
/// appends the metrics to `result`.
void ReportLayers(const Options& options, const SpanLog& log,
                  double untraced_s, double traced_s, const SideLayers& side,
                  RunResult* result) {
  std::map<std::string, double> self = log.SelfNanosByName();
  std::map<std::string, double> counts = log.CountTotals();
  double queries = 0;
  double root_ns = 0;
  for (const Span& s : log.spans()) {
    if (s.parent < 0) {
      queries += 1;
      root_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  auto per_query = [&](double v) { return Ratio(v, queries); };
  auto ms = [&](const char* name) { return per_query(self[name]) / 1e6; };
  auto us = [&](const char* name) { return per_query(self[name]) / 1e3; };
  auto count = [&](const char* name) { return per_query(counts[name]); };

  double layer_self_ns = 0;
  for (const auto& [name, ns] : self) {
    if (name != "query") layer_self_ns += ns;
  }
  std::string run_json = "{\"workload\": \"" + JsonEscape(options.workload) +
                         "\", \"seed\": " + std::to_string(options.seed) +
                         ", \"env\": " + options.env_json + "}";
  if (!options.trace_path.empty() &&
      !log.WriteJson(options.trace_path, run_json)) {
    result->notes.push_back("could not write trace file " +
                            options.trace_path);
  } else if (!options.trace_path.empty()) {
    result->notes.push_back("trace written to " + options.trace_path);
  }
  result->notes.push_back(
      "traced queries: " + std::to_string(static_cast<uint64_t>(queries)) +
      ", spans: " + std::to_string(log.spans().size()));

  RunResult& r = *result;
  r.Add("datagen.gen_s", side.gen_s, "s");
  r.Add("storage.ingest_s", side.ingest_s, "s");
  r.Add("index.build_s", side.index_build_s, "s");
  r.Add("storage.block_hit_ratio", side.block_hit_ratio, "ratio");
  r.Add("storage.block_evictions", side.block_evictions, "count");
  r.Add("storage.page_reads", side.page_reads, "count");
  r.Add("index.seek_share",
        Ratio(counts["index.seek_roots"], counts["index.nok_roots"]),
        "ratio");
  r.Add("flwor.parse_us", us("flwor.parse"), "us");
  r.Add("pattern.compile_us", us("pattern.compile"), "us");
  r.Add("opt.plan_us", us("opt.plan"), "us");
  r.Add("exec.drain_ms", ms("exec.drain"), "ms");
  r.Add("exec.batches", count("exec.batches"), "count");
  r.Add("exec.nodes_scanned", count("exec.nodes_scanned"), "count");
  r.Add("exec.mnodes_per_s",
        Ratio(counts["exec.nodes_scanned"], self["exec.drain"] / 1e9) / 1e6,
        "Mnodes/s");
  r.Add("exec.rows_per_knode",
        Ratio(counts["exec.root_rows"] * 1000.0, counts["exec.nodes_scanned"]),
        "count");
  r.Add("exec.comparisons", count("exec.comparisons"), "count");
  r.Add("exec.nl_cells", count("exec.nl_cells"), "count");
  r.Add("exec.result_cache_hit_ratio", side.result_cache_hit_ratio, "ratio");
  r.Add("nestedlist.project_ms", ms("nestedlist.project"), "ms");
  r.Add("nestedlist.result_nodes", count("nestedlist.result_nodes"), "count");
  r.Add("engine.enumerate_ms", ms("engine.enumerate"), "ms");
  r.Add("engine.tuples", count("engine.tuples"), "count");
  r.Add("engine.cross_ms", ms("engine.cross"), "ms");
  r.Add("engine.cross_pairs", count("engine.cross_pairs"), "count");
  r.Add("engine.where_ms", ms("engine.where"), "ms");
  r.Add("engine.where_evals", count("engine.where_evals"), "count");
  r.Add("engine.where_kept_ratio",
        Ratio(counts["engine.where_kept"], counts["engine.where_evals"]),
        "ratio");
  r.Add("engine.emit_ms", ms("engine.emit"), "ms");
  r.Add("engine.serialize_ms", ms("engine.serialize"), "ms");
  r.Add("engine.out_bytes", count("engine.out_bytes"), "bytes");
  r.Add("engine.out_mb_s",
        Ratio(counts["engine.out_bytes"], self["engine.serialize"] / 1e9) /
            1e6,
        "MB/s");
  r.Add("engine.plan_cache_hit_ratio", side.plan_cache_hit_ratio, "ratio");
  r.Add("service.queue_delay_p50_ms", side.queue_delay_p50_ms, "ms");
  r.Add("service.queue_delay_p99_ms", side.queue_delay_p99_ms, "ms");
  r.Add("service.run_p50_ms", side.run_p50_ms, "ms");
  r.Add("service.slot_busy_frac", side.slot_busy_frac, "ratio");
  r.Add("service.rejected", side.rejected, "count");
  r.Add("service.open_p50_ms", side.open_p50_ms, "ms");
  r.Add("service.open_p99_ms", side.open_p99_ms, "ms");
  r.Add("service.max_qps_at_slo", side.max_qps_at_slo, "queries/s");
  r.Add("gen.late_p99_ms", side.late_p99_ms, "ms");
  r.Add("trace.overhead_frac", Ratio(traced_s - untraced_s, untraced_s),
        "ratio");
  r.Add("trace.coverage_frac", Ratio(layer_self_ns, root_ns), "ratio");
}

// ---------------------------------------------------------------------------
// Closed-loop workloads: path_scan and flwor_join.
// ---------------------------------------------------------------------------

struct DocSpec {
  Dataset dataset;
  double scale;
};

struct ClosedLoopSpec {
  std::vector<DocSpec> docs;
  /// Query texts per document index.
  std::vector<Query> queries;
};

struct ClosedLoopState {
  std::vector<std::unique_ptr<bt::xml::Document>> docs;
  std::vector<std::unique_ptr<bt::engine::BlossomTreeEngine>> engines;
};

/// Builds documents and engines and warms them with one pass over the
/// queries. The first repetition also computes the reference outputs; that
/// time is excluded from set-up.
std::unique_ptr<ClosedLoopState> SetupClosedLoop(
    const Options& options, ClosedLoopSpec* spec, bool first,
    double* setup_s, double* gen_s, RunResult* result) {
  auto start = Clock::now();
  auto state = std::make_unique<ClosedLoopState>();
  for (size_t i = 0; i < spec->docs.size(); ++i) {
    state->docs.push_back(Generate(spec->docs[i].dataset, spec->docs[i].scale,
                                   Derive(options.seed, i)));
  }
  *gen_s = SecondsBetween(start, Clock::now());
  bt::engine::EngineOptions serial;  // Caches are off by default.
  serial.num_threads = 1;
  for (const auto& doc : state->docs) {
    state->engines.push_back(
        std::make_unique<bt::engine::BlossomTreeEngine>(doc.get(), serial));
  }
  double paused = 0;
  if (first) {
    auto ref_start = Clock::now();
    ParallelFor(spec->queries.size(), [&](size_t i) {
      Query& q = spec->queries[i];
      bt::baseline::NavigationalEvaluator nav(state->docs[q.doc].get());
      auto r = nav.EvaluateQuery(q.text);
      q.expected = r.ok() ? r.MoveValue()
                          : "reference error: " + r.status().ToString();
    });
    ReallocateOnThisThread(&spec->queries);
    paused = SecondsBetween(ref_start, Clock::now());
  }
  RunResult warm;  // Warm-up outcomes are checked but not counted.
  for (const Query& q : spec->queries) {
    auto r = state->engines[q.doc]->EvaluateQuery(q.text);
    if (!CheckOutput(options.workload, q.id, q.text, r, q.expected, "warm-up",
                     &warm)) {
      result->correct = false;
      return nullptr;
    }
  }
  *setup_s = SecondsBetween(start, Clock::now()) - paused;
  return state;
}

RunResult RunClosedLoop(const Options& options, ClosedLoopSpec spec) {
  RunResult result;
  std::vector<double> setups;
  std::vector<double> gens;
  std::unique_ptr<ClosedLoopState> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    double setup_s = 0;
    double gen_s = 0;
    state = SetupClosedLoop(options, &spec, rep == 0, &setup_s, &gen_s,
                            &result);
    if (state == nullptr) return result;
    setups.push_back(setup_s);
    gens.push_back(gen_s);
  }
  const std::vector<Query>& queries = spec.queries;

  if (!options.trace) {
    std::vector<std::vector<double>> latency(queries.size());
    std::vector<double> all;
    std::vector<double> rounds;
    uint64_t ok = 0;
    if (!ResetPeakRss()) result.notes.push_back(kPeakRssNotReset);
    double peak_rss_mb = 0;  // Over the first round; see PeakRssNote.
    auto start = Clock::now();
    double last_round = 0;
    // Whole rounds only, so every query has the same number of samples.
    do {
      auto round_start = Clock::now();
      for (size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[i];
        auto t0 = Clock::now();
        auto r = state->engines[q.doc]->EvaluateQuery(q.text);
        double ms = MillisBetween(t0, Clock::now());
        if (!CheckOutput(options.workload, q.id, q.text, r, q.expected,
                         "timed run", &result)) {
          return result;
        }
        if (r.ok()) {
          ++ok;
          latency[i].push_back(ms);
          all.push_back(ms);
        }
      }
      last_round = SecondsBetween(round_start, Clock::now());
      rounds.push_back(last_round);
      if (rounds.size() == 1) peak_rss_mb = PeakRssMb();
    } while (SecondsBetween(start, Clock::now()) + last_round <=
             options.seconds);
    char round_note[160];
    std::snprintf(round_note, sizeof round_note,
                  "%zu rounds, seconds min %.3f median %.3f max %.3f",
                  rounds.size(),
                  *std::min_element(rounds.begin(), rounds.end()),
                  Median(rounds),
                  *std::max_element(rounds.begin(), rounds.end()));
    result.notes.push_back(round_note);
    std::vector<double> medians;
    for (size_t i = 0; i < queries.size(); ++i) {
      double med = Median(latency[i]);
      medians.push_back(med);
      char line[256];
      std::snprintf(line, sizeof line, "%-16s median %9.3f ms  (%zu samples)",
                    queries[i].id.c_str(), med, latency[i].size());
      result.notes.push_back(line);
    }
    Tail tail = TailLatency(all);
    char line[160];
    std::snprintf(line, sizeof line,
                  "p99_ms is p%.2f of %zu samples (%zu beyond); setup reps:",
                  tail.percentile, tail.samples, tail.beyond);
    std::string setup_note = line;
    for (double s : setups) setup_note += " " + Num(s);
    result.notes.push_back(setup_note);
    // Rates and medians are taken per round and per query, so a few rounds
    // slowed by the host do not move them.
    double qps = Ratio(static_cast<double>(queries.size()), Median(rounds));
    result.Add("setup_s", Median(setups), "s");
    result.Add("qps", qps, "queries/s");
    result.Add("p50_ms", Median(medians), "ms");
    result.Add("p99_ms", tail.value, "ms");
    result.Add("geomean_ms", GeoMean(medians), "ms");
    result.notes.push_back(PeakRssNote(peak_rss_mb));
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.Add("ok_frac",
               Ratio(static_cast<double>(ok),
                     static_cast<double>(result.attempted)),
               "ratio");
    return result;
  }

  // Traced run: each query goes once through the engine (untraced) and once
  // through the replayed pipeline, in alternating order.
  SpanLog log;
  std::vector<std::unique_ptr<Replayer>> replayers;
  for (const auto& doc : state->docs) {
    replayers.push_back(
        std::make_unique<Replayer>(doc.get(), ReplayOptions{}, &log));
  }
  double untraced_s = 0;
  double traced_s = 0;
  auto start = Clock::now();
  double last_round = 0;
  size_t round = 0;
  do {
    auto round_start = Clock::now();
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      bt::Result<std::string> plain = std::string{};
      bt::Result<std::string> traced = std::string{};
      auto run_plain = [&] {
        auto t0 = Clock::now();
        plain = state->engines[q.doc]->EvaluateQuery(q.text);
        untraced_s += SecondsBetween(t0, Clock::now());
      };
      auto run_traced = [&] {
        auto t0 = Clock::now();
        traced = replayers[q.doc]->Run(q.text);
        traced_s += SecondsBetween(t0, Clock::now());
      };
      if ((round + i) % 2 == 0) {
        run_plain();
        run_traced();
      } else {
        run_traced();
        run_plain();
      }
      if (!CheckOutput(options.workload, q.id, q.text, plain, q.expected,
                       "traced run (engine)", &result) ||
          !CheckOutput(options.workload, q.id, q.text, traced,
                       plain.ok() ? *plain : q.expected,
                       "traced run (replay vs engine)", &result)) {
        return result;
      }
    }
    last_round = SecondsBetween(round_start, Clock::now());
    ++round;
  } while (SecondsBetween(start, Clock::now()) + last_round <=
           options.seconds);
  SideLayers side;
  side.gen_s = Median(gens);
  ReportLayers(options, log, untraced_s, traced_s, side, &result);
  return result;
}

RunResult RunPathScan(const Options& options) {
  ClosedLoopSpec spec;
  spec.docs = {{Dataset::kD5Dblp, 1.0}, {Dataset::kD4Treebank, 1.0}};
  for (size_t d = 0; d < spec.docs.size(); ++d) {
    Dataset ds = spec.docs[d].dataset;
    for (const bt::workload::QuerySpec& q : bt::workload::QueriesFor(ds)) {
      spec.queries.push_back(
          {std::string(bt::datagen::DatasetName(ds)) + "/" + q.id, q.xpath, d,
           ""});
    }
    if (ds == Dataset::kD5Dblp) {
      spec.queries.push_back({"d5/article-title", "//article/title", d, ""});
      spec.queries.push_back(
          {"d5/inproc-author", "//inproceedings//author", d, ""});
    }
  }
  return RunClosedLoop(options, std::move(spec));
}

/// flwor_join runs on independent d5 instances: each holds only a few dozen
/// phdthesis/mastersthesis/www entries, so the cheap crossing-edge queries
/// run on many documents to average out per-document counts, while the two
/// quadratic joins run on the first few to keep a round short.
constexpr size_t kFlworDocs = 32;
constexpr size_t kFlworJoinDocs = 8;

RunResult RunFlworJoin(const Options& options) {
  struct Flwor {
    const char* id;
    bool quadratic;
    const char* text;
  };
  static const Flwor kFlwors[] = {
      {"value-join", true,
       "for $a in //article, $b in //inproceedings where $a/author = "
       "$b/author return <p>{$a/title}</p>"},
      {"deep-equal", true,
       "for $a in //article, $b in //article where deep-equal($a/title, "
       "$b/title) return <d>{$b/year}</d>"},
      {"doc-order", false,
       "for $a in //phdthesis, $b in //www where $a << $b return "
       "<o>{$a/year}</o>"},
      {"neq-schools", false,
       "for $a in //phdthesis, $b in //mastersthesis where $a/school != "
       "$b/school return <s>{$b/author}</s>"},
      {"let-group", false,
       "for $p in //proceedings let $e := $p/editor return "
       "<g>{$p/title}{$e}</g>"},
      {"nested-free-var", false,
       "for $t in //phdthesis return <t>{for $y in $t/year return "
       "<y>{$y}</y>}</t>"},
      {"where-order", false,
       "for $a in //inproceedings where $a/year = \"omega\" order by "
       "$a/title return $a/title"},
  };
  ClosedLoopSpec spec;
  for (size_t d = 0; d < kFlworDocs; ++d) {
    spec.docs.push_back({Dataset::kD5Dblp, 0.02});
    for (const Flwor& f : kFlwors) {
      if (f.quadratic && d >= kFlworJoinDocs) continue;
      spec.queries.push_back(
          {"doc" + std::to_string(d) + "/" + f.id, f.text, d, ""});
    }
  }
  return RunClosedLoop(options, std::move(spec));
}

// ---------------------------------------------------------------------------
// Open-loop workload: service_mix.
// ---------------------------------------------------------------------------

struct MixTemplate {
  const char* id;
  const char* doc;
  const char* pattern;
};

/// A literal template takes its two literals from one element of the
/// document: the string values of two of its child fields. The literals
/// sit in path predicates, so they are part of the NoK pattern and of the
/// result-cache key.
struct LiteralTemplate {
  const char* id;
  const char* doc;
  const char* element;
  const char* fields[2];
  /// Query text; the two "%s" take the two fields' values, in order.
  const char* pattern;
};

/// The hot set repeats verbatim and is warmed during set-up, so it hits the
/// plan and result caches. Every literal submission is a text not seen
/// before in the run (see DrawTexts), so it misses the plan cache and the
/// result cache for its literal NoK.
constexpr MixTemplate kHot[] = {
    {"h-phd-branch", "d5", "//phdthesis[//author][//school]"},
    {"h-www-url", "d5", "//www[//url]"},
    {"h-phd-school", "d5",
     "for $a in //phdthesis return <hit>{$a/school}</hit>"},
    {"h-article-omega", "d5", "//article[year = \"omega\"]/title"},
    {"h-author-street", "d3", "//author//mailing_address//street_address"},
    {"h-item-length", "d3", "//item/attributes//length"},
    {"h-pub-street", "d3", "//publisher[//mailing_address]//street_address"},
    {"h-item-contact", "d3",
     "//item[//author/contact_information//street_address]/title"},
};
constexpr LiteralTemplate kLiteral[] = {
    {"l-article-year-journal", "d5", "article", {"year", "journal"},
     "//article[year = \"%s\"][journal = \"%s\"]/title"},
    {"l-inproc-booktitle-year", "d5", "inproceedings", {"booktitle", "year"},
     "//inproceedings[booktitle = \"%s\"][year = \"%s\"]/title"},
    {"l-item-title-isbn", "d3", "item", {"title", "ISBN"},
     "//item[title = \"%s\"][ISBN = \"%s\"]/attributes/number_of_pages"},
};
constexpr size_t kNumHot = sizeof(kHot) / sizeof(kHot[0]);
constexpr size_t kNumLiteral = sizeof(kLiteral) / sizeof(kLiteral[0]);

const char* TemplateId(size_t tmpl) {
  return tmpl < kNumHot ? kHot[tmpl].id : kLiteral[tmpl - kNumHot].id;
}

/// One distinct query text of the mix, with its reference output.
struct MixText {
  std::string doc;
  std::string text;
  size_t tmpl = 0;  ///< Index over kHot then kLiteral.
  std::string expected;
};

/// One request of a step's schedule.
struct Arrival {
  double due_s = 0;
  uint32_t text = 0;
};

struct StepOutcome {
  size_t submitted = 0;
  size_t ok = 0;
  size_t failed = 0;
  std::vector<double> latency_ms;  ///< From due time to completion.
  std::vector<size_t> tmpl;        ///< Template of each latency sample.
  std::vector<double> late_ms;     ///< Submit time minus due time.
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  double window_s = 0;  ///< First due time to last completion.
  double served_qps = 0;
  double backlog_mid = 0;
  double backlog_end = 0;
  bool backlog_growing = false;
  Tail tail;
  double late_p99_ms = 0;
  /// The generator itself ran late (the host descheduled it): the step
  /// measured the machine, not the service, and is run again.
  bool void_step = false;
  bool meets_slo = false;

  /// Pools another step's samples into this one.
  void Append(const StepOutcome& o) {
    submitted += o.submitted;
    ok += o.ok;
    failed += o.failed;
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&latency_ms, o.latency_ms);
    tmpl.insert(tmpl.end(), o.tmpl.begin(), o.tmpl.end());
    append(&late_ms, o.late_ms);
    append(&queue_ms, o.queue_ms);
    append(&run_ms, o.run_ms);
    window_s += o.window_s;
    served_qps = static_cast<double>(ok) / window_s;
    backlog_growing = backlog_growing || o.backlog_growing;
    tail = TailLatency(latency_ms);
    late_p99_ms = TailLatency(late_ms).value;
  }
};

/// Plan- and result-cache hits of one half of the mix, from the corpus
/// caches' counters read around each of its queries.
struct HalfCacheHits {
  uint64_t queries = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t nok_hits = 0;
  uint64_t nok_misses = 0;

  void Add(const bt::util::CacheStats& plan_before,
           const bt::util::CacheStats& plan_after,
           const bt::util::CacheStats& nok_before,
           const bt::util::CacheStats& nok_after) {
    ++queries;
    plan_hits += plan_after.hits - plan_before.hits;
    plan_misses += plan_after.misses - plan_before.misses;
    nok_hits += nok_after.hits - nok_before.hits;
    nok_misses += nok_after.misses - nok_before.misses;
  }

  std::string Note(bool literal) const {
    char line[200];
    std::snprintf(line, sizeof line,
                  "%s half: %llu queries, plan cache hit ratio %.3f, result "
                  "cache hit ratio %.3f (%llu NoK probes)",
                  literal ? "literal" : "hot",
                  static_cast<unsigned long long>(queries),
                  Ratio(static_cast<double>(plan_hits),
                        static_cast<double>(plan_hits + plan_misses)),
                  Ratio(static_cast<double>(nok_hits),
                        static_cast<double>(nok_hits + nok_misses)),
                  static_cast<unsigned long long>(nok_hits + nok_misses));
    return line;
  }
};

struct ServiceSetup {
  std::unique_ptr<bt::service::Corpus> corpus;
  std::unique_ptr<bt::service::QueryService> service;
  std::shared_ptr<bt::service::Session> session;
};

constexpr size_t kSlots = 3;
/// The fixed reference rate at which p50_ms/p99_ms are taken: about a
/// third of the knee on a 4-core machine, so queueing stays light.
constexpr double kReferenceRate = 100.0;
/// A step whose generator ran later than this at its tail is void.
constexpr double kMaxLateMs = 1.0;
/// The reference measurement is taken in this many segments, so a void one
/// costs a fraction of it to repeat.
constexpr size_t kReferenceSegments = 10;
/// At most this many void segments are replaced, which bounds the run.
constexpr size_t kMaxVoidRepeats = 5;
/// Shares of --seconds the traced run gives the reference rate and the
/// ladder; the replay takes the rest.
constexpr double kTracedReferenceShare = 0.3;
constexpr double kLadderShare = 0.4;
/// Length of the drawn text sequence: more submissions than any run makes,
/// so the sequence does not wrap and no literal text repeats in a run.
constexpr size_t kMaxSubmissions = 12000;
/// A block of the text sequence holds each hot template this many times
/// and as many literal submissions as hot ones (kNumLiteral divides it).
constexpr size_t kBlockRepeats = 3;

class ServiceMix {
 public:
  explicit ServiceMix(const Options& options) : options_(options) {}

  RunResult Run();

 private:
  /// One set-up repetition. The first also draws the query sequence and
  /// computes references (excluded from the set-up time).
  bool Setup(bool first, RunResult* result);
  /// Draws the run's query-text sequence and computes each distinct text's
  /// navigational reference on the in-RAM documents.
  void DrawTexts(const bt::xml::Document& d5, const bt::xml::Document& d3);
  std::vector<Arrival> Schedule(double rate, double duration_s,
                                uint64_t salt);
  bool RunStep(double rate, double duration_s, uint64_t salt,
               StepOutcome* out, RunResult* result);
  /// The reference-rate measurement: kReferenceSegments steps pooled, void
  /// ones replaced by new ones (at most kMaxVoidRepeats in all).
  bool RunReference(double duration_s, uint64_t* salt, StepOutcome* out,
                    RunResult* result);
  /// The rate ladder: ×1.4 steps from the reference rate until one misses
  /// the objective (or down from it, if the reference itself misses), then
  /// three geometric bisections, so the rates tried near the knee end up
  /// about 4% apart. Sets the served rate of the highest step that met it.
  bool Ladder(const StepOutcome& ref, double budget_s, uint64_t* salt,
              double* max_qps, RunResult* result);

  const Options& options_;
  ServiceSetup setup_;
  std::vector<MixText> texts_;
  std::vector<uint32_t> sequence_;  ///< Text index per submission.
  size_t cursor_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> gen_s_;
  std::vector<double> ingest_s_;
  std::vector<double> build_s_;
  std::string corpus_path_;
  /// Position in the sequence of the first literal submission that repeats
  /// an earlier text (a template ran out of distinct texts, or the sequence
  /// wrapped): the literal half misses the caches only before it.
  size_t first_repeat_ = kMaxSubmissions;
};

/// Every distinct text `l` yields on `doc`: one per element that has both
/// fields, so each text matches at least one element.
std::vector<std::string> LiteralTexts(const bt::xml::Document& doc,
                                      const LiteralTemplate& l) {
  std::vector<std::string> out;
  for (bt::xml::NodeId n = 0; n < doc.NumNodes(); ++n) {
    if (!doc.IsElement(n) || doc.TagName(n) != l.element) continue;
    std::string values[2];
    bool found[2] = {false, false};
    for (bt::xml::NodeId c = doc.FirstChild(n); c != bt::xml::kNullNode;
         c = doc.NextSibling(c)) {
      if (!doc.IsElement(c)) continue;
      for (int f = 0; f < 2; ++f) {
        if (!found[f] && doc.TagName(c) == l.fields[f]) {
          values[f] = doc.StringValue(c);
          found[f] = true;
        }
      }
    }
    if (!found[0] || !found[1]) continue;
    std::string text = l.pattern;
    for (const std::string& v : values) {
      size_t at = text.find("%s");
      text = text.substr(0, at) + v + text.substr(at + 2);
    }
    out.push_back(std::move(text));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void ServiceMix::DrawTexts(const bt::xml::Document& d5,
                           const bt::xml::Document& d3) {
  bt::Rng rng(Derive(options_.seed, 0x5EC));
  // Each literal template's texts in a seeded order. Submissions take them
  // in turn, so no literal text repeats until a template runs out.
  std::vector<std::string> literal[kNumLiteral];
  for (size_t l = 0; l < kNumLiteral; ++l) {
    literal[l] = LiteralTexts(
        std::string(kLiteral[l].doc) == "d5" ? d5 : d3, kLiteral[l]);
    for (size_t i = literal[l].size(); i > 1; --i) {
      std::swap(literal[l][i - 1], literal[l][rng.Uniform(i)]);
    }
  }
  size_t next[kNumLiteral] = {};
  std::unordered_map<std::string, uint32_t> index;
  sequence_.clear();
  texts_.clear();
  // Submissions come in shuffled blocks with a fixed template make-up
  // (half hot, half literal), so every window of the run sees the same mix
  // and only the literals and the order are random.
  std::vector<size_t> block;
  for (size_t k = 0; k < kBlockRepeats; ++k) {
    for (size_t h = 0; h < kNumHot; ++h) block.push_back(h);
  }
  for (size_t k = 0; k < kNumHot * kBlockRepeats; ++k) {
    block.push_back(kNumHot + k % kNumLiteral);
  }
  while (sequence_.size() < kMaxSubmissions) {
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.Uniform(i + 1)]);
    }
    for (size_t tmpl : block) {
      MixText t;
      t.tmpl = tmpl;
      if (tmpl < kNumHot) {
        t.doc = kHot[tmpl].doc;
        t.text = kHot[tmpl].pattern;
      } else {
        size_t l = tmpl - kNumHot;
        if (next[l] == literal[l].size()) {
          first_repeat_ = std::min(first_repeat_, sequence_.size());
        }
        t.doc = kLiteral[l].doc;
        t.text = literal[l][next[l]++ % literal[l].size()];
      }
      auto [it, inserted] = index.emplace(
          t.doc + "\n" + t.text, static_cast<uint32_t>(texts_.size()));
      if (inserted) texts_.push_back(std::move(t));
      sequence_.push_back(it->second);
    }
  }
  ParallelFor(texts_.size(), [&](size_t i) {
    MixText& t = texts_[i];
    bt::baseline::NavigationalEvaluator ref(t.doc == "d5" ? &d5 : &d3);
    auto r = ref.EvaluateQuery(t.text);
    t.expected =
        r.ok() ? r.MoveValue() : "reference error: " + r.status().ToString();
  });
  ReallocateOnThisThread(&texts_);
}

std::vector<Arrival> ServiceMix::Schedule(double rate, double duration_s,
                                          uint64_t salt) {
  // A Poisson process conditioned on its count: exactly rate × duration
  // arrivals at independent uniform times, so the offered rate is exact
  // while arrivals still bunch the way independent users' do.
  size_t n = std::max<size_t>(1, static_cast<size_t>(
                                     std::llround(rate * duration_s)));
  bt::Rng rng(Derive(options_.seed, salt));
  std::vector<Arrival> out(n);
  for (Arrival& a : out) a.due_s = rng.NextDouble() * duration_s;
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.due_s < b.due_s;
            });
  for (Arrival& a : out) {
    a.text = sequence_[cursor_ % sequence_.size()];
    ++cursor_;
  }
  return out;
}

bool ServiceMix::RunStep(double rate, double duration_s, uint64_t salt,
                         StepOutcome* out, RunResult* result) {
  std::vector<Arrival> schedule = Schedule(rate, duration_s, salt);
  struct Pending {
    double due_s;
    double submit_s;
    std::shared_ptr<bt::service::QueryTicket> ticket;
  };
  std::vector<Pending> pending;
  pending.reserve(schedule.size());
  auto t0 = Clock::now() + std::chrono::milliseconds(2);
  for (const Arrival& a : schedule) {
    auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(a.due_s));
    // Sleep until shortly before the due time, then spin: a sleeping
    // generator's wake-up lateness would be charged to every request.
    std::this_thread::sleep_until(due - std::chrono::microseconds(500));
    while (Clock::now() < due) {
    }
    double submit_s = SecondsBetween(t0, Clock::now());
    const MixText& t = texts_[a.text];
    pending.push_back(
        {a.due_s, submit_s,
         setup_.service->Submit(*setup_.session, t.doc, t.text)});
  }
  setup_.service->Drain();

  std::vector<double> completion_s(pending.size());
  double last_completion = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    const Pending& p = pending[i];
    const MixText& t = texts_[schedule[i].text];
    const bt::Result<std::string>& r = p.ticket->Wait();
    ++out->submitted;
    double e2e_ms = static_cast<double>(p.ticket->e2e_ns()) / 1e6;
    completion_s[i] = p.submit_s + e2e_ms / 1e3;
    last_completion = std::max(last_completion, completion_s[i]);
    if (!CheckOutput(options_.workload, TemplateId(t.tmpl), t.text, r,
                     t.expected, "service", result)) {
      return false;
    }
    if (!r.ok()) {
      ++out->failed;
      continue;
    }
    ++out->ok;
    double late_ms = (p.submit_s - p.due_s) * 1e3;
    double queue_ms = static_cast<double>(p.ticket->queue_delay_ns()) / 1e6;
    out->late_ms.push_back(late_ms);
    out->latency_ms.push_back(late_ms + e2e_ms);
    out->tmpl.push_back(t.tmpl);
    out->queue_ms.push_back(queue_ms);
    out->run_ms.push_back(e2e_ms - queue_ms);
  }
  out->window_s = last_completion - pending.front().due_s;
  out->served_qps = Ratio(static_cast<double>(out->ok), out->window_s);
  // Backlog (due but not completed) averaged over the schedule's fifth and
  // last tenths: a queue still growing at the end marks the step as
  // unsustainable even when its tail latency has not crossed the limit yet.
  auto backlog = [&](double from, double to) {
    double sum = 0;
    constexpr int kSamples = 16;
    for (int k = 0; k < kSamples; ++k) {
      double at = from + (to - from) * k / (kSamples - 1);
      size_t waiting = 0;
      for (size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].due_s <= at && completion_s[i] > at) ++waiting;
      }
      sum += static_cast<double>(waiting);
    }
    return sum / kSamples;
  };
  out->backlog_mid = backlog(0.4 * duration_s, 0.5 * duration_s);
  out->backlog_end = backlog(0.9 * duration_s, duration_s);
  out->backlog_growing =
      out->backlog_end > 1.5 * out->backlog_mid + static_cast<double>(kSlots);
  out->tail = TailLatency(out->latency_ms);
  out->late_p99_ms = TailLatency(out->late_ms).value;
  out->void_step = out->late_p99_ms > kMaxLateMs;
  out->meets_slo =
      out->failed == 0 && !out->backlog_growing && out->tail.value <= kSloMs;
  char line[320];
  std::snprintf(line, sizeof line,
                "step %7.1f q/s: %5zu sent, served %7.1f q/s, p50 %7.2f ms, "
                "p%.1f %8.2f ms, queue p50 %.2f ms, late p99 %.2f ms, "
                "backlog %.1f -> %.1f, %s",
                rate, out->submitted, out->served_qps, Median(out->latency_ms),
                out->tail.percentile, out->tail.value, Median(out->queue_ms),
                out->late_p99_ms, out->backlog_mid, out->backlog_end,
                out->void_step   ? "void: late generator"
                : out->meets_slo ? "meets SLO"
                                 : "misses SLO");
  result->notes.push_back(line);
  return true;
}

bool ServiceMix::RunReference(double duration_s, uint64_t* salt,
                              StepOutcome* out, RunResult* result) {
  std::vector<StepOutcome> segments;
  size_t valid = 0;
  while (valid < kReferenceSegments &&
         segments.size() < kReferenceSegments + kMaxVoidRepeats) {
    segments.emplace_back();
    if (!RunStep(kReferenceRate, duration_s / kReferenceSegments, (*salt)++,
                 &segments.back(), result)) {
      return false;
    }
    if (!segments.back().void_step) ++valid;
  }
  // Pool the segments whose generator kept time best: every valid one when
  // there are enough, else the least late of those that ran.
  std::stable_sort(segments.begin(), segments.end(),
                   [](const StepOutcome& a, const StepOutcome& b) {
                     return a.late_p99_ms < b.late_p99_ms;
                   });
  if (valid < kReferenceSegments) {
    result->notes.push_back(
        "only " + std::to_string(valid) + " of " +
        std::to_string(segments.size()) +
        " reference segments kept time; pooled the least late");
  }
  segments.resize(std::min<size_t>(segments.size(), kReferenceSegments));
  for (const StepOutcome& segment : segments) out->Append(segment);
  out->meets_slo =
      out->failed == 0 && !out->backlog_growing && out->tail.value <= kSloMs;
  return true;
}

bool ServiceMix::Ladder(const StepOutcome& ref, double budget_s,
                        uint64_t* salt, double* max_qps, RunResult* result) {
  const double rung_s = std::max(0.5, budget_s / 10);
  auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(budget_s));
  double pass = ref.meets_slo ? kReferenceRate : 0;
  double fail = ref.meets_slo ? 0 : kReferenceRate;
  *max_qps = ref.meets_slo ? ref.served_qps : 0;
  // Runs one rung (again, once, if its generator was late) and moves the
  // bracket.
  auto try_rate = [&](double rate) {
    StepOutcome step;
    if (!RunStep(rate, rung_s, (*salt)++, &step, result)) return false;
    if (step.void_step) {
      step = StepOutcome();
      if (!RunStep(rate, rung_s, (*salt)++, &step, result)) return false;
    }
    if (step.meets_slo) {
      if (rate > pass) *max_qps = step.served_qps;
      pass = rate;
    } else {
      fail = rate;
    }
    return true;
  };
  while (Clock::now() < end && (pass == 0 || fail == 0)) {
    double rate = fail == 0 ? pass * 1.4 : fail / 1.4;
    if (rate < 5) break;
    if (!try_rate(rate)) return false;
  }
  for (int b = 0; b < 3 && pass > 0 && fail > 0 && Clock::now() < end; ++b) {
    if (!try_rate(std::sqrt(pass * fail))) return false;
  }
  char line[120];
  std::snprintf(line, sizeof line, "ladder: knee bracket %.1f..%.1f q/s",
                pass, fail);
  result->notes.push_back(line);
  return true;
}

bool ServiceMix::Setup(bool first, RunResult* result) {
  // Tear down the previous repetition before its corpus file is rewritten.
  setup_.session.reset();
  setup_.service.reset();
  setup_.corpus.reset();
  auto start = Clock::now();
  auto d5 = Generate(Dataset::kD5Dblp, 0.5, Derive(options_.seed, 10));
  auto d3 = Generate(Dataset::kD3Catalog, 2.0, Derive(options_.seed, 11));
  gen_s_.push_back(SecondsBetween(start, Clock::now()));
  double paused = 0;
  if (first) {
    auto pause_start = Clock::now();
    DrawTexts(*d5, *d3);
    paused = SecondsBetween(pause_start, Clock::now());
    char line[160];
    std::snprintf(line, sizeof line,
                  "%zu distinct texts in a %zu-submission sequence; "
                  "references computed in %.2f s",
                  texts_.size(), sequence_.size(), paused);
    result->notes.push_back(line);
  }

  // Each written file is fsynced, so its write-back does not land in the
  // first measured step. The fsyncs are left out of every set-up figure:
  // the flush time of a shared disk says nothing about the engine.
  double synced_s = 0;
  auto write_synced = [&](const std::function<bt::Status()>& write,
                          const std::string& path) {
    bt::Status s = write();
    auto sync_start = Clock::now();
    if (s.ok()) s = SyncFile(path);
    synced_s += SecondsBetween(sync_start, Clock::now());
    return s;
  };
  corpus_path_ = options_.workdir + "/service_mix_d3.btsx2";
  auto t = Clock::now();
  bt::Status st = write_synced(
      [&] { return bt::storage::WriteBtsx2(*d3, corpus_path_); },
      corpus_path_);
  double ingest_s = SecondsBetween(t, Clock::now()) - synced_s;
  paused += synced_s;
  if (!st.ok()) {
    result->notes.push_back("WriteBtsx2: " + st.ToString());
    return false;
  }
  t = Clock::now();
  synced_s = 0;
  {
    auto index = bt::index::StructuralIndex::Build(*d3);
    std::string sidecar = bt::index::BtsiSidecarPath(corpus_path_);
    st = write_synced([&] { return bt::index::WriteBtsi(*index, sidecar); },
                      sidecar);
  }
  build_s_.push_back(SecondsBetween(t, Clock::now()) - synced_s);
  paused += synced_s;
  if (!st.ok()) {
    result->notes.push_back("WriteBtsi: " + st.ToString());
    return false;
  }
  uint64_t record_bytes = d3->NumNodes() * sizeof(bt::xml::PackedNodeRecord);
  d3.reset();

  bt::service::CorpusOptions copts;
  copts.plan_cache.enabled = true;
  copts.result_cache.enabled = true;
  setup_.corpus = std::make_unique<bt::service::Corpus>(copts);
  st = setup_.corpus->Add("d5", std::move(d5));
  t = Clock::now();
  if (st.ok()) {
    bt::storage::DiskStoreOptions dso;
    // A quarter of the record bytes: the block cache must evict.
    dso.cache_budget_bytes = record_bytes / 4;
    st = setup_.corpus->AddDisk("d3", corpus_path_, dso);
  }
  ingest_s_.push_back(ingest_s + SecondsBetween(t, Clock::now()));
  if (!st.ok()) {
    result->notes.push_back("corpus: " + st.ToString());
    return false;
  }
  if (setup_.corpus->Get("d3")->index() == nullptr) {
    result->notes.push_back("corpus: d3 opened without its .btsi index");
    return false;
  }
  bt::service::ServiceOptions so;
  so.slots = kSlots;
  so.intra_query_threads = 1;
  // Never refuse: overload shows as queueing delay and a growing backlog.
  so.max_queue = size_t{1} << 20;
  setup_.service =
      std::make_unique<bt::service::QueryService>(setup_.corpus.get(), so);
  setup_.session = setup_.service->CreateSession("bench");

  // Warm-up: every hot text once, which also fills the caches with them.
  RunResult warm;
  std::vector<bool> seen(kNumHot, false);
  for (const MixText& text : texts_) {
    if (text.tmpl >= kNumHot || seen[text.tmpl]) continue;
    seen[text.tmpl] = true;
    auto r = setup_.service->Execute(*setup_.session, text.doc, text.text);
    if (!CheckOutput(options_.workload, TemplateId(text.tmpl), text.text, r,
                     text.expected, "warm-up", &warm)) {
      result->correct = false;
      return false;
    }
  }
  setup_s_.push_back(SecondsBetween(start, Clock::now()) - paused);
  return true;
}

RunResult ServiceMix::Run() {
  RunResult result;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!Setup(rep == 0, &result)) {
      if (result.correct) result.correct = false;
      return result;
    }
  }
  const double S = options_.seconds;
  bt::service::Corpus& corpus = *setup_.corpus;
  std::shared_ptr<const bt::service::CorpusDocument> d3 = corpus.Get("d3");
  const bt::storage::DiskStore* disk = d3->disk();
  uint64_t salt = 1;

  if (!options_.trace) {
    // One closed-loop client through the service. Each query runs alone on
    // the warm pool, so the host's scheduling noise reaches the figures
    // without being amplified by queueing or by a late generator; the
    // open-loop figures come from the traced run.
    std::vector<double> latency;
    std::vector<size_t> tmpl_of;
    std::vector<double> blocks;
    uint64_t ok = 0;
    HalfCacheHits half[2];  // Hot, literal.
    const size_t block = 2 * kNumHot * kBlockRepeats;
    if (!ResetPeakRss()) result.notes.push_back(kPeakRssNotReset);
    double peak_rss_mb = 0;  // Over the first block; see PeakRssNote.
    auto start = Clock::now();
    double last_block = 0;
    // Whole blocks of the sequence only, so every window has the same mix.
    do {
      auto block_start = Clock::now();
      for (size_t i = 0; i < block; ++i) {
        const MixText& t = texts_[sequence_[cursor_ % sequence_.size()]];
        ++cursor_;
        bt::util::CacheStats plans = corpus.plan_cache()->Stats();
        bt::util::CacheStats nok = corpus.result_cache()->Stats();
        auto t0 = Clock::now();
        auto r = setup_.service->Execute(*setup_.session, t.doc, t.text);
        double ms = MillisBetween(t0, Clock::now());
        half[t.tmpl >= kNumHot].Add(plans, corpus.plan_cache()->Stats(), nok,
                                    corpus.result_cache()->Stats());
        if (!CheckOutput(options_.workload, TemplateId(t.tmpl), t.text, r,
                         t.expected, "timed run", &result)) {
          return result;
        }
        if (r.ok()) {
          ++ok;
          latency.push_back(ms);
          tmpl_of.push_back(t.tmpl);
        }
      }
      last_block = SecondsBetween(block_start, Clock::now());
      blocks.push_back(last_block);
      if (blocks.size() == 1) peak_rss_mb = PeakRssMb();
    } while (SecondsBetween(start, Clock::now()) + last_block <= S);
    std::vector<double> medians;
    for (size_t tmpl = 0; tmpl < kNumHot + kNumLiteral; ++tmpl) {
      std::vector<double> lat;
      for (size_t i = 0; i < latency.size(); ++i) {
        if (tmpl_of[i] == tmpl) lat.push_back(latency[i]);
      }
      if (lat.empty()) continue;
      medians.push_back(Median(lat));
      char line[160];
      std::snprintf(line, sizeof line, "%-20s median %8.3f ms  (%zu samples)",
                    TemplateId(tmpl), medians.back(), lat.size());
      result.notes.push_back(line);
    }
    Tail tail = TailLatency(latency);
    char line[200];
    std::snprintf(line, sizeof line,
                  "%zu blocks of %zu queries; p99_ms is p%.2f of %zu samples "
                  "(%zu beyond)",
                  blocks.size(), block, tail.percentile, tail.samples,
                  tail.beyond);
    result.notes.push_back(line);
    for (int h = 0; h < 2; ++h) result.notes.push_back(half[h].Note(h == 1));
    if (cursor_ > first_repeat_) {
      result.notes.push_back(
          "literal texts repeat from submission " +
          std::to_string(first_repeat_) + " on; the run made " +
          std::to_string(cursor_));
    } else {
      result.notes.push_back("no literal text repeated in " +
                             std::to_string(cursor_) + " submissions");
    }
    result.Add("setup_s", Median(setup_s_), "s");
    result.Add("qps", Ratio(static_cast<double>(block), Median(blocks)),
               "queries/s");
    result.Add("p50_ms", Median(medians), "ms");
    result.Add("p99_ms", tail.value, "ms");
    result.Add("geomean_ms", GeoMean(medians), "ms");
    result.notes.push_back(PeakRssNote(peak_rss_mb));
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.Add("ok_frac",
               Ratio(static_cast<double>(ok),
                     static_cast<double>(result.attempted)),
               "ratio");
    return result;
  }

  // Traced run, part 1: the service at the reference rate, for the service,
  // storage and cache counters; then the rate ladder.
  SideLayers side;
  side.gen_s = Median(gen_s_);
  side.ingest_s = Median(ingest_s_);
  side.index_build_s = Median(build_s_);
  bt::util::CacheStats blocks_before = disk->BlockCacheStats();
  uint64_t reads_before = disk->PageReads();
  bt::util::CacheStats plan_before = corpus.plan_cache()->Stats();
  bt::util::CacheStats result_before = corpus.result_cache()->Stats();
  StepOutcome ref;
  if (!RunReference(kTracedReferenceShare * S, &salt, &ref, &result)) {
    return result;
  }
  bt::util::CacheStats blocks_after = disk->BlockCacheStats();
  side.block_hit_ratio = HitRatio(blocks_before, blocks_after);
  side.block_evictions =
      static_cast<double>(blocks_after.evictions - blocks_before.evictions);
  side.page_reads = static_cast<double>(disk->PageReads() - reads_before);
  side.plan_cache_hit_ratio =
      HitRatio(plan_before, corpus.plan_cache()->Stats());
  side.result_cache_hit_ratio =
      HitRatio(result_before, corpus.result_cache()->Stats());
  side.queue_delay_p50_ms = Median(ref.queue_ms);
  side.queue_delay_p99_ms = TailLatency(ref.queue_ms).value;
  side.run_p50_ms = Median(ref.run_ms);
  double busy_ms = 0;
  for (double v : ref.run_ms) busy_ms += v;
  side.slot_busy_frac =
      Ratio(busy_ms / 1e3, static_cast<double>(kSlots) * ref.window_s);
  side.rejected = static_cast<double>(ref.failed);
  side.late_p99_ms = ref.late_p99_ms;
  side.open_p50_ms = Median(ref.latency_ms);
  side.open_p99_ms = ref.tail.value;
  if (!Ladder(ref, kLadderShare * S, &salt, &side.max_qps_at_slo, &result)) {
    return result;
  }

  // Part 2: the mix replayed serially, each query once through a fresh
  // engine configured as the service configures it and once through the
  // traced pipeline. Each side has its own caches and sees the same query
  // sequence, so both hit and miss alike.
  SpanLog log;
  bt::util::CacheOptions cache_on;
  cache_on.enabled = true;
  bt::engine::PlanCache plain_plans(cache_on);
  bt::engine::PlanCache traced_plans(cache_on);
  bt::exec::NokResultCache plain_results(cache_on);
  bt::exec::NokResultCache traced_results(cache_on);
  double untraced_s = 0;
  double traced_s = 0;
  auto start = Clock::now();
  size_t n = 0;
  while (SecondsBetween(start, Clock::now()) <
         (1 - kTracedReferenceShare - kLadderShare) * S) {
    const MixText& t = texts_[sequence_[cursor_ % sequence_.size()]];
    ++cursor_;
    std::shared_ptr<const bt::service::CorpusDocument> entry =
        corpus.Get(t.doc);
    bt::opt::PlanOptions plan;
    if (entry->disk_backed()) plan.store = &entry->store();
    plan.index = entry->index();
    bt::Result<std::string> plain = std::string{};
    bt::Result<std::string> traced = std::string{};
    auto run_plain = [&] {
      auto t0 = Clock::now();
      bt::engine::EngineOptions eo;
      eo.num_threads = 1;
      eo.collect_profile = true;
      eo.plan = plan;
      eo.plan.result_cache = &plain_results;
      eo.shared_plan_cache = &plain_plans;
      bt::engine::BlossomTreeEngine engine(entry->doc(), eo);
      plain = engine.EvaluateQuery(t.text);
      untraced_s += SecondsBetween(t0, Clock::now());
    };
    auto run_traced = [&] {
      auto t0 = Clock::now();
      ReplayOptions ro;
      ro.plan = plan;
      ro.plan.result_cache = &traced_results;
      ro.plan_cache = &traced_plans;
      ro.collect_profile = true;
      Replayer replay(entry->doc(), ro, &log);
      traced = replay.Run(t.text);
      traced_s += SecondsBetween(t0, Clock::now());
    };
    if (n++ % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    const char* id = TemplateId(t.tmpl);
    if (!CheckOutput(options_.workload, id, t.text, plain, t.expected,
                     "traced run (engine)", &result) ||
        !CheckOutput(options_.workload, id, t.text, traced,
                     plain.ok() ? *plain : t.expected,
                     "traced run (replay vs engine)", &result)) {
      return result;
    }
  }
  if (cursor_ > first_repeat_) {
    result.notes.push_back("literal texts repeat from submission " +
                           std::to_string(first_repeat_) + " on; the run made " +
                           std::to_string(cursor_));
  }
  ReportLayers(options_, log, untraced_s, traced_s, side, &result);
  return result;
}

}  // namespace

RunResult RunWorkload(const Options& options) {
  if (options.workload == "path_scan") return RunPathScan(options);
  if (options.workload == "flwor_join") return RunFlworJoin(options);
  if (options.workload == "service_mix") {
    RunResult result;
    {
      ServiceMix mix(options);
      result = mix.Run();
    }
    std::string path = options.workdir + "/service_mix_d3.btsx2";
    std::remove(path.c_str());
    std::remove(bt::index::BtsiSidecarPath(path).c_str());
    return result;
  }
  RunResult result;
  result.correct = false;
  result.notes.push_back("unknown workload: " + options.workload);
  return result;
}

}  // namespace perfbench
