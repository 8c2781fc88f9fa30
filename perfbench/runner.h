#pragma once
// Set-up and round timing shared by the workloads.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "host_speed.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Runs `work` once between reference samples of the host (`samples`
/// before, `samples` after) and returns its wall time in seconds scaled by
/// the mean of their two medians, as a segment is scaled in ItemTimes.
template <class F>
double scaled_seconds(HostSpeed& host, int samples, F&& work) {
  const double before = host.slowdown(samples);
  const std::int64_t t0 = Tracer::now_ns();
  work();
  const std::int64_t t1 = Tracer::now_ns();
  const double after = host.slowdown(samples);
  return static_cast<double>(t1 - t0) / 1e9 / ((before + after) / 2.0);
}

/// Runs `setup` `repeats` times and returns the median of its scaled wall
/// times in seconds, or -1 when a set-up fails. Set-up must be idempotent;
/// the last run's state is the one kept.
template <class F>
double timed_setup(int repeats, HostSpeed& host, F&& setup) {
  std::vector<double> seconds;
  bool ok = true;
  for (int i = 0; i < repeats && ok; ++i) {
    seconds.push_back(scaled_seconds(host, 3, [&] { ok = setup(); }));
  }
  return ok ? median(seconds) : -1.0;
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

struct RoundWalls {
  std::vector<double> untraced;  // seconds per round, as measured
  std::vector<double> traced;
};

/// Runs `round(traced)` (one pass over the workload's fixed work) back to
/// back for about `seconds`: another round starts only while the median
/// round still fits. With `trace`, rounds alternate between untraced and
/// traced, so both see the same host conditions; at least one of each runs
/// (one round otherwise).
template <class F>
RoundWalls run_rounds(double seconds, bool trace, F&& round) {
  RoundWalls walls;
  std::vector<double> all;
  const std::int64_t start = Tracer::now_ns();
  for (std::size_t index = 0;; ++index) {
    const bool traced = trace && index % 2 == 1;
    set_tracing(traced);
    const std::int64_t t0 = Tracer::now_ns();
    round(traced);
    const std::int64_t t1 = Tracer::now_ns();
    set_tracing(false);
    const double wall = static_cast<double>(t1 - t0) / 1e9;
    (traced ? walls.traced : walls.untraced).push_back(wall);
    all.push_back(wall);
    const double elapsed = static_cast<double>(t1 - start) / 1e9;
    if (index + 1 >= (trace ? 2u : 1u) && elapsed + median(all) > seconds) {
      break;
    }
  }
  return walls;
}

/// Per-item timings of a closed-loop pass, where every round runs each item
/// of the fixed work once. An item is timed in segments that run in the
/// same order every round (the stages of a flow, the iterations of an
/// exploration). An untraced round samples the host before the first
/// segment and after every segment; each segment's time is scaled by the
/// mean of the two reference samples on either side of it (host_speed.h).
/// Reported timings sum, over the segments, each one's median scaled time.
struct ItemTimes {
  explicit ItemTimes(std::size_t items = 0) : ms(items), raw_total_ms(items) {}

  /// One round of `item`: the measured duration of each of its segments,
  /// and the slowdowns of the reference samples taken around them (one more
  /// than there are segments), or none when the host was not sampled.
  void add(std::size_t item, const std::vector<double>& segment_ms,
           std::span<const double> slowdowns = {}) {
    std::vector<std::vector<double>>& segments = ms[item];
    if (segments.size() < segment_ms.size()) {
      segments.resize(segment_ms.size());
    }
    const bool sampled = slowdowns.size() == segment_ms.size() + 1;
    double total = 0.0;
    for (std::size_t s = 0; s < segment_ms.size(); ++s) {
      const double slowdown =
          sampled ? (slowdowns[s] + slowdowns[s + 1]) / 2.0 : 1.0;
      segments[s].push_back(segment_ms[s] / slowdown);
      total += segment_ms[s];
    }
    raw_total_ms[item].push_back(total);
  }
  /// Per item: the sum over its segments of each segment's median.
  std::vector<double> item_ms() const {
    std::vector<double> out;
    for (const std::vector<std::vector<double>>& segments : ms) {
      if (!segments.empty()) out.push_back(sum_of_medians(segments));
    }
    return out;
  }
  /// Wall time of the fixed work, in seconds.
  double wall_s() const { return sum(item_ms()) / 1e3; }
  std::size_t samples() const {
    std::size_t n = 0;
    for (const std::vector<double>& rounds : raw_total_ms) n += rounds.size();
    return n;
  }

  std::vector<std::vector<std::vector<double>>> ms;  // [item][segment][round]
  std::vector<std::vector<double>> raw_total_ms;  // [item][round], unscaled
};

class Report;

/// Sets wall_s, latency_p50_ms and throughput_rps of a closed-loop workload
/// from its item times, and notes the sample counts, the unscaled times and
/// the spread of whole rounds.
void report_closed_loop(Report& report, const ItemTimes& times,
                        const RoundWalls& walls);

/// obs.trace_overhead_pct: traced over untraced wall time, both unscaled
/// (traced rounds do not sample the host).
void report_trace_overhead(Report& report, const ItemTimes& untraced,
                           const ItemTimes& traced);

}  // namespace perfbench
