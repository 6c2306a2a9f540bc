#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

int SpanLog::Open(const char* name) {
  Span s;
  s.name = name;
  s.query = query_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = Now();
  spans_.push_back(s);
  int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = Now();
  // Spans close in LIFO order (they are scoped), so the index is on top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> SpanLog::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals, clipped to the parent's interval.
    int64_t covered = 0;
    int64_t cur_start = 0;
    int64_t cur_end = -1;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, s.start_ns);
      e = std::min(e, s.end_ns);
      if (e <= b) continue;
      if (open && b <= cur_end) {
        cur_end = std::max(cur_end, e);
      } else {
        if (open) covered += cur_end - cur_start;
        cur_start = b;
        cur_end = e;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> SpanLog::SelfNanosByName() const {
  std::vector<int64_t> self = SelfTimes();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]);
  }
  return out;
}

std::map<std::string, double> SpanLog::CountTotals() const {
  std::map<std::string, double> out;
  for (const Count& c : counts_) out[c.name] += c.value;
  return out;
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& run_json) const {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<int64_t> self = SelfTimes();
  out << "{\"run\": " << run_json << ",\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"query\": " << s.query
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"self_ns\": " << self[i]
        << "}";
  }
  out << "\n],\n\"counts\": [\n";
  for (size_t i = 0; i < counts_.size(); ++i) {
    const Count& c = counts_[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": \"" << c.name
        << "\", \"query\": " << c.query << ", \"value\": " << Num(c.value)
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
