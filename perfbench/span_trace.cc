#include "span_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/logging.h"
#include "src/util/telemetry/json.h"

namespace perfbench {

namespace {
constexpr uint64_t kIndexMask = (uint64_t{1} << 40) - 1;
size_t SlotOf(int64_t id) { return static_cast<size_t>(id >> 40); }
size_t IndexOf(int64_t id) {
  return static_cast<size_t>(static_cast<uint64_t>(id) & kIndexMask);
}
}  // namespace

Tracer::Tracer(bool enabled, size_t num_slots)
    : enabled_(enabled), buffers_(num_slots) {
  HFR_CHECK(num_slots > 0);
}

int64_t Tracer::Open(size_t slot, const char* name, uint64_t work_id,
                     int64_t parent) {
  if (!enabled_) return -1;
  Buffer& b = buffers_[slot];
  if (parent < 0 && !b.open.empty()) parent = b.open.back();
  const int64_t id = MakeId(slot, b.spans.size());
  Span s;
  s.name = name;
  s.parent = parent;
  s.work_id = work_id;
  s.start = Now();
  b.spans.push_back(s);
  b.open.push_back(id);
  return id;
}

void Tracer::Close(size_t slot, int64_t id) {
  if (id < 0) return;
  Buffer& b = buffers_[slot];
  HFR_CHECK(!b.open.empty() && b.open.back() == id);
  b.open.pop_back();
  b.spans[IndexOf(id)].end = Now();
}

std::map<std::string, SpanStats> Tracer::Summarize() const {
  // Child coverage per span, same thread only: a worker's span overlaps its
  // cross-thread parent in wall time but does not free the parent's thread.
  std::vector<std::vector<double>> child(buffers_.size());
  for (size_t t = 0; t < buffers_.size(); ++t) {
    child[t].assign(buffers_[t].spans.size(), 0.0);
    for (const Span& s : buffers_[t].spans) {
      if (s.parent >= 0 && SlotOf(s.parent) == t) {
        child[t][IndexOf(s.parent)] += s.end - s.start;
      }
    }
  }
  std::map<std::string, SpanStats> out;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const auto& spans = buffers_[t].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanStats& st = out[spans[i].name];
      const double d = spans[i].end - spans[i].start;
      st.durations.push_back(d);
      st.total += d;
      st.self += d - child[t][i];
    }
  }
  return out;
}

double Tracer::MainCoveredSeconds() const {
  double covered = 0.0;
  for (const Span& s : buffers_[main_slot()].spans) {
    const bool top = s.parent < 0 || SlotOf(s.parent) != main_slot();
    if (top) covered += s.end - s.start;
  }
  return covered;
}

size_t Tracer::span_count() const {
  size_t n = 0;
  for (const Buffer& b : buffers_) n += b.spans.size();
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  bool first = true;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const auto& spans = buffers_[t].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      hetefedrec::JsonObj args;
      args.I64("id", MakeId(t, i)).I64("parent", s.parent).U64("work", s.work_id);
      hetefedrec::JsonObj ev;
      ev.Str("name", s.name)
          .Str("ph", "X")
          .Num("ts", s.start * 1e6)
          .Num("dur", (s.end - s.start) * 1e6)
          .U64("pid", 0)
          .U64("tid", t)
          .Raw("args", args.Build());
      if (!first) std::fputs(",\n", f);
      first = false;
      std::fputs(ev.Build().c_str(), f);
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

}  // namespace perfbench
