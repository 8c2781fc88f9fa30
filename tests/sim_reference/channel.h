#pragma once
// Blocking point-to-point channel state for the reference kernel.
//
// Protocol (matches the vendor blocking primitives described in Section 2):
// a put and its matching get rendezvous — whichever side arrives first
// suspends; when both sides are at the statement the transfer occupies the
// channel for `latency` cycles, after which both processes resume.

#include <cstdint>
#include <deque>
#include <string>

#include "obs/metrics.h"
#include "sim/behavior.h"

namespace ermes::sim {

struct ChannelState {
  std::string name;
  SimProcessId producer = -1;
  SimProcessId consumer = -1;
  std::int64_t latency = 1;

  /// 0 = rendezvous; k > 0 = FIFO with k slots (a put occupies the producer
  /// for `latency` cycles and needs a free slot; a get pops instantly when
  /// data is buffered).
  std::int64_t capacity = 0;
  std::deque<Packet> buffer;
  std::int64_t writes_in_flight = 0;  // puts currently transferring

  /// Which sides are suspended at the channel right now.
  bool producer_waiting = false;
  bool consumer_waiting = false;
  /// Cycle at which each side started waiting (for stall statistics).
  std::int64_t producer_wait_since = 0;
  std::int64_t consumer_wait_since = 0;

  bool transfer_in_progress = false;
  Packet in_flight;

  /// Statistics.
  std::int64_t transfers_completed = 0;
  std::int64_t last_transfer_completed_at = -1;
  std::int64_t producer_stall_cycles = 0;
  std::int64_t consumer_stall_cycles = 0;

  /// Stall accounting: wait episodes with a nonzero wait (a put/get that
  /// found its peer absent or the buffer full/empty and actually suspended).
  std::int64_t blocked_puts = 0;
  std::int64_t blocked_gets = 0;
  /// Wait-time distribution per episode, zero-wait episodes included (so
  /// count == completed puts/gets and the mean is the expected wait per
  /// statement). Accumulated single-threaded by the kernel; merge into the
  /// global registry with Kernel::publish_metrics().
  obs::HistogramData put_wait;
  obs::HistogramData get_wait;

  /// High-water mark of buffered items plus in-flight writes (rendezvous
  /// channels peak at 1 during a transfer). The number FIFO sizing wants:
  /// a capacity above the peak can only waste area.
  std::int64_t peak_occupancy = 0;
};

}  // namespace ermes::sim
