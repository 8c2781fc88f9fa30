#pragma once
// Stall-accounting report for simulation runs.
//
// Turns a run's per-process status-time split and per-channel wait
// statistics into the same kind of aligned tables the analysis module
// prints. This is the dynamic counterpart of the TMG critical cycle: the
// channels with the largest blocked-put/blocked-get times are exactly where
// the blocking-rendezvous serialization eats throughput, and they are the
// first candidates for reordering or FIFO sizing.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ermes::sim {

struct ProcessStall {
  std::string name;
  /// Simulated cycles spent in each status; the four sum to the run length.
  std::int64_t ready = 0;
  std::int64_t computing = 0;
  std::int64_t waiting = 0;
  std::int64_t transferring = 0;
  std::int64_t total() const {
    return ready + computing + waiting + transferring;
  }
};

struct ChannelStall {
  std::string name;
  std::int64_t transfers = 0;
  std::int64_t blocked_puts = 0;  // put episodes that actually suspended
  std::int64_t blocked_gets = 0;
  std::int64_t put_wait_cycles = 0;  // total producer wait on this channel
  std::int64_t get_wait_cycles = 0;
  std::int64_t peak_occupancy = 0;  // high-water buffered + in-flight items
  obs::HistogramData put_wait;  // per-episode wait distribution
  obs::HistogramData get_wait;
};

struct StallReport {
  std::int64_t cycles = 0;  // simulated time covered by the accounting
  std::vector<ProcessStall> processes;
  std::vector<ChannelStall> channels;

  /// Two aligned tables: per-process time split (with % of run waiting) and
  /// per-channel blocking statistics, worst waiters first.
  std::string to_text(int indent = 0) const;
};

}  // namespace ermes::sim
