#pragma once
// Sample statistics used by every perfbench workload.
//
// Timings are summarized by their median and by the highest percentile that
// still has at least ten samples beyond it (a p99 over 50 samples would be
// the maximum in disguise). Quartiles follow Python's
// statistics.quantiles(values, n=4) ("exclusive" method), so the spread the
// benchmark reports matches the one computed over whole runs.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Median; the mean of the two middle samples for an even count. 0 when
/// empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile, p in (0, 100]: the smallest sample such that at
/// least p% of all samples are <= it. 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank p-th percentile's rank.
std::size_t samples_beyond(std::size_t count, double p);

/// The highest of p50/p90/p99/p99.9/p99.99 with at least `min_beyond`
/// samples beyond it; 0 when not even p50 qualifies.
double tail_percentile(std::size_t count, std::size_t min_beyond = 10);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Python statistics.quantiles(samples, n=4). Needs at least two samples
/// (returns all zeros otherwise).
Quartiles quartiles(std::vector<double> samples);

/// (q3 - q1) / median: the run-to-run spread the benchmark bounds.
double iqr_share(const std::vector<double>& samples);

/// Time of work split into segments: the sum over the segments of each
/// one's median over the rounds (`rounds[segment][round]`). Empty segments
/// add nothing.
double sum_of_medians(const std::vector<std::vector<double>>& rounds);

/// Latency samples plus failure accounting. A failed operation counts as
/// attempted and enters the latency distribution as +infinity, so it misses
/// every latency limit instead of silently thinning the tail.
class Outcomes {
 public:
  void ok(double latency_ms);
  void failed();

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failures() const { return failed_; }
  /// All attempted operations, failures as +infinity.
  std::vector<double> all_latencies() const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<double> ok_ms_;
};

inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

}  // namespace perfbench
