#include "sim/wait_histogram.h"

#include <algorithm>
#include <cassert>

namespace ermes::sim {

WaitHistogram::WaitHistogram(const WaitHistogram& other)
    : count_(other.count_),
      sum_(other.sum_),
      min_(other.min_),
      max_(other.max_),
      inline_count_(other.inline_count_),
      inline_bucket_(other.inline_bucket_),
      inline_size_(other.inline_size_),
      dense_(other.dense_ ? std::make_unique<Dense>(*other.dense_) : nullptr) {}

WaitHistogram& WaitHistogram::operator=(const WaitHistogram& other) {
  if (this == &other) return *this;
  count_ = other.count_;
  sum_ = other.sum_;
  min_ = other.min_;
  max_ = other.max_;
  inline_count_ = other.inline_count_;
  inline_bucket_ = other.inline_bucket_;
  inline_size_ = other.inline_size_;
  if (!other.dense_) {
    dense_.reset();
  } else if (dense_) {
    *dense_ = *other.dense_;  // reuse the block (period snapshots)
  } else {
    dense_ = std::make_unique<Dense>(*other.dense_);
  }
  return *this;
}

void WaitHistogram::observe(std::int64_t value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const int b = obs::bucket_index(value);
  if (dense_) {
    ++(*dense_)[static_cast<std::size_t>(b)];
    return;
  }
  std::size_t i = 0;
  while (i < inline_size_ && inline_bucket_[i] < b) ++i;
  if (i < inline_size_ && inline_bucket_[i] == b) {
    ++inline_count_[i];
    return;
  }
  if (inline_size_ == kInlineBuckets) {
    spill();
    ++(*dense_)[static_cast<std::size_t>(b)];
    return;
  }
  for (std::size_t j = inline_size_; j > i; --j) {
    inline_bucket_[j] = inline_bucket_[j - 1];
    inline_count_[j] = inline_count_[j - 1];
  }
  inline_bucket_[i] = static_cast<std::uint8_t>(b);
  inline_count_[i] = 1;
  ++inline_size_;
}

void WaitHistogram::spill() {
  dense_ = std::make_unique<Dense>();
  for (std::size_t i = 0; i < inline_size_; ++i) {
    (*dense_)[inline_bucket_[i]] = inline_count_[i];
  }
  inline_count_ = {};
  inline_bucket_ = {};
  inline_size_ = 0;
}

void WaitHistogram::reset() { *this = WaitHistogram{}; }

void WaitHistogram::advance_periods(const WaitHistogram& start,
                                    std::int64_t n) {
  count_ += n * (count_ - start.count_);
  sum_ += n * (sum_ - start.sum_);
  if (dense_) {
    for (int b = 0; b < obs::kHistogramBuckets; ++b) {
      std::int64_t& cur = (*dense_)[static_cast<std::size_t>(b)];
      if (cur != 0) cur += n * (cur - start.bucket(b));
    }
    return;
  }
  // Inline: `start` is an earlier state, so it is inline too and its
  // entries are a sorted subset of ours — one merge walk pairs them up.
  assert(!start.dense_);
  std::size_t j = 0;
  for (std::size_t i = 0; i < inline_size_; ++i) {
    while (j < start.inline_size_ &&
           start.inline_bucket_[j] < inline_bucket_[i]) {
      ++j;
    }
    const std::int64_t old =
        j < start.inline_size_ && start.inline_bucket_[j] == inline_bucket_[i]
            ? start.inline_count_[j]
            : 0;
    inline_count_[i] += n * (inline_count_[i] - old);
  }
}

std::int64_t WaitHistogram::bucket(int b) const {
  if (dense_) return (*dense_)[static_cast<std::size_t>(b)];
  for (std::size_t i = 0; i < inline_size_; ++i) {
    if (inline_bucket_[i] == b) return inline_count_[i];
  }
  return 0;
}

obs::HistogramData WaitHistogram::to_dense() const {
  obs::HistogramData out;
  out.count = count_;
  out.sum = sum_;
  out.min = min_;
  out.max = max_;
  if (dense_) {
    out.buckets = *dense_;
  } else {
    for (std::size_t i = 0; i < inline_size_; ++i) {
      out.buckets[inline_bucket_[i]] = inline_count_[i];
    }
  }
  return out;
}

WaitHistogram WaitHistogram::from_dense(const obs::HistogramData& dense) {
  WaitHistogram out;
  out.count_ = dense.count;
  out.sum_ = dense.sum;
  out.min_ = dense.min;
  out.max_ = dense.max;
  const auto held = std::count_if(dense.buckets.begin(), dense.buckets.end(),
                                  [](std::int64_t c) { return c != 0; });
  if (held > kInlineBuckets) {
    out.dense_ = std::make_unique<Dense>(dense.buckets);
    return out;
  }
  for (std::size_t b = 0; b < dense.buckets.size(); ++b) {
    if (dense.buckets[b] == 0) continue;
    out.inline_bucket_[out.inline_size_] = static_cast<std::uint8_t>(b);
    out.inline_count_[out.inline_size_] = dense.buckets[b];
    ++out.inline_size_;
  }
  return out;
}

bool operator==(const WaitHistogram& a, const WaitHistogram& b) {
  if (a.count_ != b.count_ || a.sum_ != b.sum_ || a.min_ != b.min_ ||
      a.max_ != b.max_ || a.spilled() != b.spilled()) {
    return false;
  }
  // Canonical form: spilled-ness is a function of the bucket contents, and
  // unused inline slots are zero, so the stored arrays compare directly.
  if (a.dense_) return *a.dense_ == *b.dense_;
  return a.inline_size_ == b.inline_size_ &&
         a.inline_bucket_ == b.inline_bucket_ &&
         a.inline_count_ == b.inline_count_;
}

}  // namespace ermes::sim
