// In-memory span recorder of the EDMS benchmark.
//
// Spans are taken only in the benchmark's own code: around the public
// EdmsEngine / ShardedEdmsRuntime calls on the control thread, and inside the
// timing decorators the benchmark installs through the engine's config seams
// (scheduler factory, baseline provider), which may run on runtime worker
// threads. Spans stay in memory and are written out when the run ends.
#ifndef EDMSBENCH_TRACE_H_
#define EDMSBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace edmsbench {

struct Span {
  /// Static string naming the layer call, e.g. "edms.advance"; must outlive
  /// the tracer.
  const char* name = "";
  int64_t start_ns = 0;
  /// -1 while the span is open.
  int64_t end_ns = -1;
  /// Index of the enclosing span, -1 for roots.
  int64_t parent = -1;
  /// Control-loop gate the span belongs to, -1 outside the loop.
  int64_t gate = -1;
};

/// Busy time of the spans of one name and the part of it left after child
/// spans are taken out.
struct LayerTime {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Thread-safe span recorder. The control thread opens "parent" spans (gate
/// calls); spans opened on any thread while a parent is open become its
/// children, which is how the scheduler and baseline decorators running on
/// shard workers attach to the runtime's Advance() span.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; `as_parent` makes it the parent of spans opened until it
  /// closes. Returns the span's index.
  int64_t Open(const char* name, bool as_parent);
  void Close(int64_t index);

  void set_gate(int64_t gate) {
    std::lock_guard<std::mutex> lock(mu_);
    gate_ = gate;
  }

  /// Count, total and self time of every span named `name`. Self time is the
  /// span's duration minus the union of its children's intervals.
  LayerTime Layer(const std::string& name) const;
  /// Durations (seconds) of the spans named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  /// Seconds of the `parent` spans' intervals covered by their `child`
  /// spans (union of intervals, so parallel children count once).
  double CoveredSeconds(const std::string& parent,
                        const std::string& child) const;

  /// Writes every span as JSON. Returns false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Union length of the children of span `index` whose name matches
  /// `child` (every child when `child` is null), clipped to the span.
  int64_t ChildCoverNs(size_t index, const char* child) const;

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::vector<size_t>> children_;
  int64_t open_parent_ = -1;
  int64_t gate_ = -1;
};

/// RAII span; a null tracer makes it a no-op, which is the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, bool as_parent = false)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1 : tracer->Open(name, as_parent)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace edmsbench

#endif  // EDMSBENCH_TRACE_H_
