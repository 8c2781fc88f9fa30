#pragma once
// The three perfbench workloads and the report they fill.
//
// Every workload follows one shape: set up several times (the median is
// setup_s; mpeg2_dse, whose set-up takes about a millisecond, times one per
// round instead of back to back), run rounds of its fixed work for the
// requested number of seconds, timing each segment between samples of the
// host's speed (host_speed.h), and check every output against an oracle
// computed in set-up, outside the timed segments.
// With tracing on, rounds alternate between untraced and traced, which
// yields the per-layer metrics and, against the untraced rounds, the
// tracing overhead.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Records a correctness check; a failed one makes the run incorrect and
  /// keeps the first few messages for stderr.
  void check(bool ok, const std::string& what);
  bool correct() const { return check_failures_ == 0; }
  const std::vector<std::string>& failures() const { return messages_; }

  void set_end_to_end(const std::string& name, double value,
                      const std::string& unit);
  void set_layer(const std::string& name, double value,
                 const std::string& unit);
  /// A human-readable line printed before the result (sample counts,
  /// workload-specific metrics, the per-layer split).
  void note(const std::string& line) { notes_.push_back(line); }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& layers() const { return layers_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  static void set(std::vector<Metric>& list, const std::string& name,
                  double value, const std::string& unit);

  std::int64_t check_failures_ = 0;
  std::vector<std::string> messages_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
};

/// Each returns false on a set-up error (missing input, daemon failed to
/// start); correctness failures go through Report::check.
bool run_mpeg2_dse(const Options& options, Report& report);
bool run_synth_flow(const Options& options, Report& report);
bool run_serve_mix(const Options& options, Report& report);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Fills the per-layer metrics every workload shares from the benchmark's
/// trace and the program's telemetry recorded while tracing was on.
/// `window_s` is how long tracing was on.
void report_common_layers(Report& report, double window_s);

/// Sets the cache.* per-layer metrics from EvalCache counters.
void report_cache_layers(Report& report, std::int64_t hits,
                         std::int64_t misses, std::int64_t evictions,
                         std::int64_t bytes);

class HostSpeed;

/// Notes how the host's speed moved over the run (reference samples).
void report_host_speed(Report& report, const HostSpeed& host);

/// Formats a double with enough digits to round-trip.
std::string format_value(double value);

}  // namespace perfbench
