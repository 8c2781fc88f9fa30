#pragma once
// Bucketed calendar (time-wheel) event queue for the compiled simulator.
//
// The engine's event population is dense in time: almost every pending event
// lands within max_latency cycles of the current instant, because every
// event is "wake at now + compute_latency" or "transfer done at now +
// channel_latency". A calendar queue exploits that — a power-of-two wheel of
// buckets indexed by `time & (W-1)` gives O(1) insertion and an O(words)
// bitmask scan to the next nonempty instant, with no comparison sorting at
// all. Events beyond the wheel horizon (sparse timelines: latencies larger
// than the wheel) overflow into a plain binary min-heap and migrate onto the
// wheel as time advances.
//
// Events are packed u32 keys: (index << 1) | kind, with kind 0 = process
// wake, 1 = transfer done. Ascending key order is the engine's (index, kind)
// tie-break at one instant — the order the reference event-heap engine in
// the tests pops, which is what keeps the two bit-identical: pop_at() hands
// back the instant's events sorted by key, and same-instant events pushed
// *while the instant is processed* are handled by the caller's instant heap
// (see compiled.cpp).
//
// Window invariant: every wheel event's time lies in [low_, low_ + W).
// Because the window is exactly W wide, a bucket holds at most one distinct
// time, so draining a bucket never needs a time check. low_ only advances
// (to the instant being drained), which keeps remaining wheel events inside
// the window; overflow events whose time has fallen inside the window are
// still found because next_time() takes the min over both structures.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

namespace ermes::sim {

class CalendarQueue {
 public:
  static constexpr std::int64_t kNoEvent =
      std::numeric_limits<std::int64_t>::max();

  /// Sizes the wheel for a run whose typical event horizon is
  /// `max_latency` cycles. Call once per scenario, before push().
  void configure(std::int64_t max_latency, std::size_t expected_events) {
    std::int64_t w = 64;
    // Cover the common horizon but cap the wheel: beyond the cap the
    // overflow heap is cheaper than scanning an enormous bitmask.
    const std::int64_t want = std::min<std::int64_t>(max_latency + 1, 65536);
    while (w < want) w <<= 1;
    wheel_size_ = static_cast<std::size_t>(w);
    mask_ = w - 1;
    buckets_.assign(wheel_size_, {});
    occupied_.assign((wheel_size_ + 63) / 64, 0);
    overflow_.clear();
    overflow_.reserve(expected_events);
    low_ = 0;
    size_ = 0;
    wheel_count_ = 0;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(std::int64_t time, std::uint32_t key) {
    assert(time >= low_);
    if (time < low_ + static_cast<std::int64_t>(wheel_size_)) {
      const auto b = static_cast<std::size_t>(time & mask_);
      buckets_[b].push_back(key);
      occupied_[b >> 6] |= (std::uint64_t{1} << (b & 63));
      ++wheel_count_;
    } else {
      overflow_.emplace_back(time, key);
      std::push_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
    }
    ++size_;
  }

  /// Earliest pending time, or kNoEvent when empty.
  std::int64_t next_time() const {
    std::int64_t best = kNoEvent;
    if (wheel_count_ > 0) best = scan_wheel();
    if (!overflow_.empty()) best = std::min(best, overflow_.front().time);
    return best;
  }

  /// Fused next_time() + pop_at(): finds the earliest pending instant and,
  /// when it is <= `limit`, drains it into `out`. Returns the instant
  /// either way (kNoEvent when empty) — a result > `limit` means nothing
  /// was drained and the queue is untouched.
  std::int64_t pop_next(std::int64_t limit, std::vector<std::uint32_t>& out) {
    const std::int64_t best = next_time();
    if (best == kNoEvent || best > limit) return best;
    pop_at(best, out);
    return best;
  }

  /// Moves every event at exactly `time` (which must be next_time()) into
  /// `out`, unsorted. Advances the window to `time`.
  void pop_at(std::int64_t time, std::vector<std::uint32_t>& out) {
    assert(time >= low_);
    if (time >= low_ + static_cast<std::int64_t>(wheel_size_)) {
      // Only reachable when the wheel is empty (any wheel event would have
      // been earlier). Re-anchor the window and migrate newly-covered
      // overflow events onto the wheel.
      assert(wheel_count_ == 0);
      low_ = time;
      refill_from_overflow();
    } else {
      low_ = time;
    }
    const auto b = static_cast<std::size_t>(time & mask_);
    std::vector<std::uint32_t>& bucket = buckets_[b];
    if (!bucket.empty()) {
      wheel_count_ -= bucket.size();
      size_ -= bucket.size();
      out.insert(out.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    // Overflow entries can share the instant with wheel entries (pushed
    // under an older window): drain them too.
    while (!overflow_.empty() && overflow_.front().time == time) {
      out.push_back(overflow_.front().key);
      std::pop_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
      overflow_.pop_back();
      --size_;
    }
  }

  /// Removes every pending event into `out` as (time, key) pairs, in no
  /// particular order. The period-jump in compiled.cpp uses this to rebase
  /// event times after skipping whole steady-state periods: drain, shift
  /// every time by the jump, push back (far-future times land in the
  /// overflow heap and migrate onto the wheel when the next pop re-anchors
  /// the window).
  void drain_all(std::vector<std::pair<std::int64_t, std::uint32_t>>& out) {
    const auto start = static_cast<std::size_t>(low_ & mask_);
    for (std::size_t word = 0; word < occupied_.size(); ++word) {
      std::uint64_t bits = occupied_[word];
      while (bits != 0) {
        const std::size_t b =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::int64_t offset = static_cast<std::int64_t>(
            (b - start) & static_cast<std::size_t>(mask_));
        const std::int64_t time = low_ + offset;
        for (const std::uint32_t key : buckets_[b]) out.emplace_back(time, key);
        buckets_[b].clear();
      }
      occupied_[word] = 0;
    }
    for (const OverflowEvent& ev : overflow_) out.emplace_back(ev.time, ev.key);
    overflow_.clear();
    wheel_count_ = 0;
    size_ = 0;
  }

 private:
  struct OverflowEvent {
    std::int64_t time;
    std::uint32_t key;
    OverflowEvent(std::int64_t t, std::uint32_t k) : time(t), key(k) {}
  };
  struct OverflowAfter {
    bool operator()(const OverflowEvent& a, const OverflowEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };

  /// First occupied bucket in circular order from low_: its time is
  /// low_ + ((b - low_) mod W), minimal over the window by construction.
  std::int64_t scan_wheel() const {
    const auto start = static_cast<std::size_t>(low_ & mask_);
    const std::size_t words = occupied_.size();
    // Tail of the start word, then whole words, wrapping once.
    std::size_t word = start >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t scanned = 0; scanned <= words; ++scanned) {
      if (bits != 0) {
        const std::size_t b =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        const std::int64_t offset =
            static_cast<std::int64_t>((b - start) & static_cast<std::size_t>(mask_));
        return low_ + offset;
      }
      word = (word + 1 == words) ? 0 : word + 1;
      bits = occupied_[word];
    }
    return kNoEvent;  // unreachable when wheel_count_ > 0
  }

  void refill_from_overflow() {
    const std::int64_t high = low_ + static_cast<std::int64_t>(wheel_size_);
    while (!overflow_.empty() && overflow_.front().time < high) {
      const OverflowEvent ev = overflow_.front();
      std::pop_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
      overflow_.pop_back();
      const auto b = static_cast<std::size_t>(ev.time & mask_);
      buckets_[b].push_back(ev.key);
      occupied_[b >> 6] |= (std::uint64_t{1} << (b & 63));
      ++wheel_count_;
    }
  }

  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint64_t> occupied_;
  std::vector<OverflowEvent> overflow_;  // min-heap by (time, key)
  std::size_t wheel_size_ = 0;
  std::int64_t mask_ = 0;
  std::int64_t low_ = 0;      // window start == last drained instant
  std::size_t size_ = 0;      // wheel + overflow
  std::size_t wheel_count_ = 0;
};

}  // namespace ermes::sim
