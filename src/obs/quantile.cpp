#include "obs/quantile.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

namespace ermes::obs {

namespace {

constexpr int kSubBuckets = 1 << kQuantilePrecisionBits;  // 128
constexpr int kFirstExponent = kQuantilePrecisionBits + 1;  // 8

void atomic_min(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

int quantile_bucket_index(std::int64_t value) {
  if (value < 0) return 0;
  if (value < kQuantileExactLimit) return static_cast<int>(value);
  // Exponent e >= 8: value in [2^e, 2^(e+1)), linear sub-bucket within.
  const int e = std::bit_width(static_cast<std::uint64_t>(value)) - 1;
  const int sub =
      static_cast<int>((value >> (e - kQuantilePrecisionBits)) &
                       (kSubBuckets - 1));
  return static_cast<int>(kQuantileExactLimit) +
         (e - kFirstExponent) * kSubBuckets + sub;
}

std::int64_t quantile_bucket_upper(int bucket) {
  if (bucket < 0) return 0;
  if (bucket < kQuantileExactLimit) return bucket;
  const int b = bucket - static_cast<int>(kQuantileExactLimit);
  const int e = kFirstExponent + b / kSubBuckets;
  const int sub = b % kSubBuckets;
  // Range [2^e + sub * 2^(e-7), 2^e + (sub+1) * 2^(e-7) - 1]; for the very
  // last bucket (e = 62, sub = 127) this lands exactly on int64 max. The
  // sum reaches 2^63 before the final -1 there, so it is formed unsigned.
  return static_cast<std::int64_t>(
      (std::uint64_t{1} << e) +
      (static_cast<std::uint64_t>(sub + 1) << (e - kQuantilePrecisionBits)) -
      1);
}

// ---- QuantileSnapshot -------------------------------------------------------

void QuantileSnapshot::observe(std::int64_t value) {
  if (buckets.empty()) buckets.assign(kQuantileBuckets, 0);
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[static_cast<std::size_t>(quantile_bucket_index(value))];
}

void QuantileSnapshot::merge(const QuantileSnapshot& other) {
  if (other.count == 0) return;
  if (buckets.empty()) buckets.assign(kQuantileBuckets, 0);
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (int b = 0; b < kQuantileBuckets; ++b) {
    buckets[static_cast<std::size_t>(b)] +=
        other.buckets[static_cast<std::size_t>(b)];
  }
}

std::int64_t QuantileSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation, 1-based ceil: p0 -> first sample,
  // p100 -> last. ceil keeps the estimate monotone and nearest-rank exact.
  std::int64_t rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<std::int64_t>(rank, 1, count);
  std::int64_t seen = 0;
  for (int b = 0; b < kQuantileBuckets; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (seen >= rank) {
      return std::clamp(quantile_bucket_upper(b), min, max);
    }
  }
  return max;
}

// ---- QuantileHistogram ------------------------------------------------------

QuantileHistogram::QuantileHistogram()
    : buckets_(static_cast<std::size_t>(kQuantileBuckets)) {}

void QuantileHistogram::observe(std::int64_t value) {
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    atomic_min(min_, value);
    atomic_max(max_, value);
  }
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[static_cast<std::size_t>(quantile_bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
}

QuantileSnapshot QuantileHistogram::snapshot() const {
  QuantileSnapshot out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = min_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  out.buckets.resize(static_cast<std::size_t>(kQuantileBuckets));
  for (int b = 0; b < kQuantileBuckets; ++b) {
    out.buckets[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }
  return out;
}

void QuantileHistogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

// ---- WindowRate -------------------------------------------------------------

std::int64_t steady_seconds() {
  // One process-wide epoch so every WindowRate shares a time base (and the
  // first seconds after startup are small positive numbers, not raw uptime).
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

WindowRate::WindowRate(int window_seconds)
    : window_seconds_(window_seconds < 1 ? 1 : window_seconds),
      slots_(static_cast<std::size_t>(window_seconds_ + 1)) {}

void WindowRate::record_at(std::int64_t now_s, std::int64_t n) {
  Slot& slot = slots_[static_cast<std::size_t>(
      now_s % static_cast<std::int64_t>(slots_.size()))];
  std::int64_t epoch = slot.epoch.load(std::memory_order_acquire);
  if (epoch != now_s) {
    // The ring wrapped onto a stale second: the CAS winner repurposes the
    // slot, losers just add. A concurrent add between the CAS and the store
    // can be lost — a sub-ppm undercount acceptable for telemetry.
    if (slot.epoch.compare_exchange_strong(epoch, now_s,
                                           std::memory_order_acq_rel)) {
      slot.count.store(n, std::memory_order_release);
      return;
    }
  }
  slot.count.fetch_add(n, std::memory_order_relaxed);
}

std::int64_t WindowRate::sum_at(std::int64_t now_s) const {
  // The window is the current (partial) second plus the window_seconds_ - 1
  // before it: every slot whose epoch is within window_seconds_ of now.
  std::int64_t total = 0;
  for (const Slot& slot : slots_) {
    const std::int64_t epoch = slot.epoch.load(std::memory_order_acquire);
    if (epoch > now_s - window_seconds_ && epoch <= now_s) {
      total += slot.count.load(std::memory_order_relaxed);
    }
  }
  return total;
}

}  // namespace ermes::obs
