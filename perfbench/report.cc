#include "report.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) / 2;
}

Tail TailLatency(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  // Nearest-rank p99 when the sample supports it; otherwise the rank with
  // exactly ten samples above it (or the maximum of a tiny sample).
  size_t rank99 =
      static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  size_t idx;
  if (rank99 >= 1 && n - rank99 >= 10) {
    idx = rank99 - 1;
    t.percentile = 99.0;
  } else if (n > 10) {
    idx = n - 11;
    t.percentile =
        100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  } else {
    idx = n - 1;
    t.percentile = 100.0;
  }
  t.value = values[idx];
  t.beyond = n - 1 - idx;
  return t;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
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

bool ResetPeakRss() {
  // Hand freed heap back first, so the count restarts from live data and
  // not from whatever set-up and the reference computation left behind.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return !out.fail();
}

const char* kPeakRssNotReset =
    "peak_rss_mb: could not reset the peak count through "
    "/proc/self/clear_refs, so it is the peak of the whole process, set-up "
    "and reference computation included";

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string EnvironmentJson(const std::string& commit,
                            const std::string& src_digest) {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": \"" + JsonEscape(CpuModel()) + "\"";
  out += ", \"compiler\": \"" + JsonEscape(__VERSION__) + "\"";
  out += ", \"build_type\": \"" + JsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"commit\": \"" + JsonEscape(commit) + "\"";
  out += ", \"src_digest\": \"" + JsonEscape(src_digest) + "\"";
  out += "}";
  return out;
}

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(m.name) + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
