#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  if (n % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(samples.begin(), mid);
  return (lower + upper) / 2.0;
}

namespace {

// 1-based nearest rank of the p-th percentile among `count` samples. The
// slack keeps p * count / 100 that is integral in exact arithmetic (99.9% of
// 10000) from rounding up a rank.
std::size_t nearest_rank(std::size_t count, double p) {
  const double rank =
      std::ceil(p * static_cast<double>(count) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, count);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  const auto it = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), it, samples.end());
  return *it;
}

std::size_t samples_beyond(std::size_t count, double p) {
  if (count == 0) return 0;
  return count - nearest_rank(count, p);
}

double tail_percentile(std::size_t count, std::size_t min_beyond) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(count, p) >= min_beyond) best = p;
  }
  return best;
}

Quartiles quartiles(std::vector<double> samples) {
  Quartiles q;
  const std::size_t n = samples.size();
  if (n < 2) return q;
  std::sort(samples.begin(), samples.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i at
  // position i*m/4 (1-based), interpolated between its two neighbours.
  const std::size_t m = n + 1;
  double cuts[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  q.q1 = cuts[0];
  q.q2 = cuts[1];
  q.q3 = cuts[2];
  return q;
}

double iqr_share(const std::vector<double>& samples) {
  const double mid = median(samples);
  if (samples.size() < 2 || mid == 0.0) return 0.0;
  const Quartiles q = quartiles(samples);
  return (q.q3 - q.q1) / mid;
}

double sum_of_medians(const std::vector<std::vector<double>>& rounds) {
  double total = 0.0;
  for (const std::vector<double>& samples : rounds) total += median(samples);
  return total;
}

void Outcomes::ok(double latency_ms) {
  ++attempted_;
  ok_ms_.push_back(latency_ms);
}

void Outcomes::failed() {
  ++attempted_;
  ++failed_;
}

std::vector<double> Outcomes::all_latencies() const {
  std::vector<double> all = ok_ms_;
  all.insert(all.end(), static_cast<std::size_t>(failed_), kFailedLatency);
  return all;
}

}  // namespace perfbench
