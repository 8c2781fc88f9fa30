#include "trace.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/span.h"

namespace perfbench {

namespace {

thread_local std::int32_t t_open = -1;  // innermost open Scope on this thread

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::clear() { spans_.clear(); }

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::record(std::string name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t op_id,
                            std::int32_t parent) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, op_id});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

Tracer::Scope::Scope(const char* name, std::int64_t op_id) {
  Tracer& tracer = global();
  if (!tracer.enabled_) return;
  saved_parent_ = t_open;
  index_ = tracer.record(name, now_ns(), 0, op_id, t_open);
  t_open = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  global().spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  t_open = saved_parent_;
}

double Tracer::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

std::map<std::string, Tracer::Times> Tracer::times_by_name() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Times> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    Times& t = out[spans_[i].name];
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - covered[i]) / 1e6;
    ++t.count;
  }
  return out;
}

void reset_traces() {
  ermes::obs::Registry::global().reset();
  ermes::obs::SpanRecorder::global().set_capacity(1u << 18);
  Tracer::global().clear();
}

void set_tracing(bool on) {
  ermes::obs::set_enabled(on);
  Tracer::global().set_enabled(on);
}

std::int64_t program_counter(const char* name) {
  return ermes::obs::Registry::global().counter(name).value();
}

double program_span_ms(const char* name) {
  const std::map<std::string, Tracer::Times> times = program_span_times();
  const auto it = times.find(name);
  return it == times.end() ? 0.0 : it->second.total_ms;
}

std::map<std::string, Tracer::Times> program_span_times() {
  // The program's spans carry no parent: a span's children are the spans of
  // the same thread that lie inside it. Sorting by (thread, start, longest
  // first) puts each parent right before its descendants, and a stack of
  // open intervals finds every span's innermost enclosing span.
  std::vector<ermes::obs::SpanEvent> events =
      ermes::obs::SpanRecorder::global().events();
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::vector<std::int64_t> covered(events.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.tid == e.tid &&
          e.start_ns + e.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) covered[open.back()] += e.dur_ns;
    open.push_back(i);
  }
  std::map<std::string, Tracer::Times> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    Tracer::Times& t = out[events[i].name];
    t.total_ms += static_cast<double>(events[i].dur_ns) / 1e6;
    t.self_ms += static_cast<double>(events[i].dur_ns - covered[i]) / 1e6;
    ++t.count;
  }
  return out;
}

std::int64_t program_spans_dropped() {
  return ermes::obs::SpanRecorder::global().dropped();
}

}  // namespace perfbench
