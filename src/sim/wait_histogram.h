#pragma once
// Compact per-channel wait histogram for the compiled simulator.
//
// A dense obs::HistogramData is 4 moments + 64 log2 buckets = 544 bytes.
// CompiledSim keeps two per channel (put and get waits), clears them per
// run, copies them at every period snapshot, and copies them again into the
// ScenarioResult — yet a channel of a steady-state TMG run almost always
// waits for one or two distinct durations, so nearly every bucket is zero.
// WaitHistogram stores the same information in 80 bytes: the four moments
// plus up to kInlineBuckets (bucket, count) entries kept sorted by bucket.
// The fifth distinct bucket spills the histogram to a heap-allocated dense
// 64-bucket block, which it keeps for the rest of its life.
//
// The representation is canonical: a histogram holds inline entries iff it
// has at most kInlineBuckets non-empty buckets, and no entry ever holds a
// zero count. Equal contents therefore mean equal representations, and
// operator== compares count, sum, min, max and every bucket exactly.
//
// Semantics are those of obs::HistogramData::observe (same bucketing, same
// min/max convention: both 0 until the first observation); to_dense() and
// from_dense() convert at the boundaries that need the dense shape.

#include <array>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace ermes::sim {

class WaitHistogram {
 public:
  /// Distinct buckets held inline before the histogram spills.
  static constexpr int kInlineBuckets = 4;

  WaitHistogram() = default;
  WaitHistogram(const WaitHistogram& other);
  WaitHistogram& operator=(const WaitHistogram& other);
  WaitHistogram(WaitHistogram&&) noexcept = default;
  WaitHistogram& operator=(WaitHistogram&&) noexcept = default;

  /// Records one observation, exactly like obs::HistogramData::observe.
  void observe(std::int64_t value);

  /// Back to the empty state (and releases a spilled block).
  void reset();

  /// Periodic extrapolation: `start` is this histogram's state one period
  /// earlier in the same run, so every bucket it holds is also held here.
  /// Adds n x the per-period delta to count, sum and every held bucket;
  /// min and max are already final (later periods only repeat values).
  void advance_periods(const WaitHistogram& start, std::int64_t n);

  obs::HistogramData to_dense() const;
  static WaitHistogram from_dense(const obs::HistogramData& dense);

  /// Count in log2 bucket `b` (obs::bucket_index numbering).
  std::int64_t bucket(int b) const;
  bool spilled() const { return dense_ != nullptr; }

  friend bool operator==(const WaitHistogram& a, const WaitHistogram& b);

 private:
  using Dense = std::array<std::int64_t, obs::kHistogramBuckets>;

  void spill();

  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  // Inline entries [0, inline_size_), sorted by bucket; all zero once
  // spilled.
  std::array<std::int64_t, kInlineBuckets> inline_count_{};
  std::array<std::uint8_t, kInlineBuckets> inline_bucket_{};
  std::uint8_t inline_size_ = 0;
  std::unique_ptr<Dense> dense_;  // non-null iff spilled
};

}  // namespace ermes::sim
