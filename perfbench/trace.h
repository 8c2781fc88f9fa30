#pragma once
// The benchmark's own trace: spans recorded around each public call the
// workloads make into src/, kept in memory until the run ends.
//
// A span carries its name, start, end, the span that caused it (the one
// open on the same thread when it began) and the id of the operation it
// belongs to (one explore, one system flow, one request). Recording is off
// unless the run was started with --trace 1; a disabled Scope reads no
// clock. The Tracer is not synchronized: only the thread that drives a
// workload records into it.
//
// The program's own telemetry (obs registry counters and ObsSpans) is read
// through the helpers at the bottom; the benchmark adds no spans inside
// src/.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into Tracer::spans(), -1 = root
  std::int64_t op_id = 0;
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void clear();

  /// Nanoseconds on the steady clock (shared with every timing in the run).
  static std::int64_t now_ns();

  /// Records a span whose bounds are already known (asynchronous work such
  /// as a request in flight). Returns its index.
  std::int32_t record(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t op_id,
                      std::int32_t parent = -1);

  /// RAII span around a synchronous call; nests under the innermost open
  /// Scope of this thread.
  class Scope {
   public:
    Scope(const char* name, std::int64_t op_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of the spans named `name`, in milliseconds.
  double total_ms(const std::string& name) const;
  /// Per span name: total and self time (duration minus the time covered by
  /// direct children), in milliseconds.
  struct Times {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::int64_t count = 0;
  };
  std::map<std::string, Times> times_by_name() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// ---- the program's own telemetry -------------------------------------------

/// Zeroes the program's registry and span ring and the benchmark's trace.
void reset_traces();
/// Switches src/'s telemetry and the benchmark's own recording on or off;
/// what was recorded stays readable.
void set_tracing(bool on);
/// Value of an obs registry counter.
std::int64_t program_counter(const char* name);
/// Summed duration of the program's ObsSpans named `name`, in milliseconds,
/// plus per-name totals for the layer split.
double program_span_ms(const char* name);
std::map<std::string, Tracer::Times> program_span_times();
/// Spans the program's ring buffer dropped (non-zero means undercounting).
std::int64_t program_spans_dropped();

}  // namespace perfbench
