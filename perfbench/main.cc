// End-to-end query benchmark program.
//
//   perfbench --workload <path_scan|flwor_join|service_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//             [--trace-file <path>] [--commit <id>] [--src-digest <hash>]
//
// Prints context lines, one {"env": ...} line, and as its last line the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from the replayed pipeline. Exits 1 when any query's
// output differs from the navigational reference, 2 on bad arguments and 3
// when built without NDEBUG.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report timings from a build without "
               "NDEBUG (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  perfbench::Options options;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-file") {
      options.trace_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--src-digest") {
      src_digest = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.workload.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --workload and --seconds are required\n");
    return 2;
  }
  options.env_json = perfbench::EnvironmentJson(commit, src_digest);

  perfbench::RunResult result = perfbench::RunWorkload(options);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("{\"env\": %s}\n", options.env_json.c_str());
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
