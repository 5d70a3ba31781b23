#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace edmsbench {

int64_t Tracer::Open(const char* name, bool as_parent) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t index = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{name, now, -1, open_parent_, gate_});
  children_.emplace_back();
  if (open_parent_ >= 0) {
    children_[static_cast<size_t>(open_parent_)].push_back(
        static_cast<size_t>(index));
  }
  if (as_parent) open_parent_ = index;
  return index;
}

void Tracer::Close(int64_t index) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
  if (open_parent_ == index) {
    open_parent_ = spans_[static_cast<size_t>(index)].parent;
  }
}

int64_t Tracer::ChildCoverNs(size_t index, const char* child) const {
  const Span& span = spans_[index];
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t c : children_[index]) {
    const Span& s = spans_[c];
    if (child != nullptr && std::strcmp(s.name, child) != 0) continue;
    int64_t lo = std::max(s.start_ns, span.start_ns);
    int64_t hi = std::min(s.end_ns, span.end_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : intervals) {
    int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return covered;
}

LayerTime Tracer::Layer(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  LayerTime out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0 || name != s.name) continue;
    const int64_t duration = s.end_ns - s.start_ns;
    ++out.count;
    out.total_s += static_cast<double>(duration) * 1e-9;
    out.self_s +=
        static_cast<double>(duration - ChildCoverNs(i, nullptr)) * 1e-9;
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

double Tracer::CoveredSeconds(const std::string& parent,
                              const std::string& child) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t covered = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns >= 0 && parent == spans_[i].name) {
      covered += ChildCoverNs(i, child.c_str());
    }
  }
  return static_cast<double>(covered) * 1e-9;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"gate\": %lld}%s\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.gate),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace edmsbench
