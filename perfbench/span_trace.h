// In-memory span recorder for the benchmark's traced replay.
//
// A span is one call into a layer: name, start, end, the span that caused
// it, and the id of the unit of work it belongs to (one participation
// (round, user) or one ranked user). Spans are appended to one buffer per
// executing thread slot (the ThreadPool slot, or the caller's slot outside
// a parallel loop), so recording takes no lock; they stay in memory until
// the replay ends and are then summarized and written out.
//
// Wall time is read only through util/Timer, so this file stays inside the
// determinism lint's wall-clock rule.
#ifndef HFR_PERFBENCH_SPAN_TRACE_H_
#define HFR_PERFBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/timer.h"

namespace perfbench {

struct Span {
  const char* name = nullptr;  // string literal, the layer-qualified name
  double start = 0.0;          // seconds since the tracer was created
  double end = 0.0;
  int64_t parent = -1;         // id of the causing span, -1 for none
  uint64_t work_id = 0;        // participation or ranked-user id
};

/// Durations and self time of every span sharing one name.
struct SpanStats {
  std::vector<double> durations;  // seconds, in recording order
  double total = 0.0;             // sum of durations
  double self = 0.0;              // total minus same-thread child coverage
};

class Tracer {
 public:
  /// `num_slots` executing threads (ThreadPool::num_slots()). A disabled
  /// tracer records nothing; its Open/Close cost one branch.
  Tracer(bool enabled, size_t num_slots);

  double Now() const { return clock_.Seconds(); }
  /// The slot of the thread that drives the run outside parallel loops
  /// (the ThreadPool caller slot).
  size_t main_slot() const { return buffers_.size() - 1; }

  /// Opens a span on `slot`; its parent is `parent`, or the innermost open
  /// span of the same slot when `parent` is -1. Returns the span id (-1
  /// when disabled).
  int64_t Open(size_t slot, const char* name, uint64_t work_id,
               int64_t parent = -1);
  void Close(size_t slot, int64_t id);

  /// Per-name statistics over every recorded span.
  std::map<std::string, SpanStats> Summarize() const;
  /// Union of the top-level spans of the main slot, in seconds: the part
  /// of the main thread's wall time spent inside some layer call.
  double MainCoveredSeconds() const;
  size_t span_count() const;

  /// Writes every span as Chrome trace-event JSON (one "X" event per span;
  /// tid = slot, args carry id, parent and work id).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int64_t> open;  // stack of open span ids
  };
  static int64_t MakeId(size_t slot, size_t index) {
    return static_cast<int64_t>((static_cast<uint64_t>(slot) << 40) | index);
  }

  bool enabled_;
  hetefedrec::Timer clock_;
  std::vector<Buffer> buffers_;
};

/// RAII span on one slot.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, size_t slot, const char* name,
             uint64_t work_id = 0, int64_t parent = -1)
      : tracer_(tracer),
        slot_(slot),
        id_(tracer->Open(slot, name, work_id, parent)) {}
  ~ScopedSpan() { tracer_->Close(slot_, id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  size_t slot_;
  int64_t id_;
};

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty vector.
double Percentile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // HFR_PERFBENCH_SPAN_TRACE_H_
