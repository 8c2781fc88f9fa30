#pragma once
// Reference event-heap simulation kernel: a test-and-bench-only oracle.
//
// The engine the product simulated on before sim::CompiledSim (src/sim)
// replaced it, kept as an independent implementation to check the compiled
// engine against. Processes execute hand-written programs (infinite loops
// of get/compute/put), channels implement the blocking rendezvous protocol
// (or a FIFO) with a per-channel transfer latency, and every piece of state
// — names, payload deques, behaviours, the trace hook — lives in one
// record per process or channel, with one binary heap of events. It shares
// no event-loop code with the compiled engine; the differential suites and
// bench_sim hold the two bit-identical (tests/sim_reference/bridge.h).
//
// The kernel detects deadlock (all processes suspended, no event pending)
// and reports the circular wait; it also collects stall statistics and
// per-channel throughput.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/behavior.h"
#include "sim/system_sim.h"
#include "sim/trace.h"
#include "sim_reference/channel.h"
#include "sim_reference/program.h"

namespace ermes::sim {

struct ProcessState {
  std::string name;
  Program program;
  std::unique_ptr<Behavior> behavior;  // optional; null = timing only

  enum class Status {
    kReady,        // can execute program[pc]
    kComputing,    // compute retires at wake_at
    kWaiting,      // suspended at a blocking get/put
    kTransferring  // rendezvous transfer completes at wake_at
  };
  Status status = Status::kReady;
  std::size_t pc = 0;
  std::int64_t wake_at = 0;
  SimChannelId waiting_on = -1;

  /// Statistics.
  std::int64_t loop_iterations = 0;  // completed passes over the program
  std::int64_t stall_cycles = 0;     // cycles suspended at blocking I/O
  std::int64_t compute_cycles = 0;

  /// Simulated-time split by Status (indexed by static_cast<size_t>(Status)):
  /// ready / computing / waiting / transferring. Maintained on every status
  /// change and flushed up to now() when run() returns, so the four entries
  /// always sum to the simulated time span of the runs so far.
  std::array<std::int64_t, 4> cycles_in_status{};
  std::int64_t status_since = 0;  // when the current status was entered
};

struct RunResult {
  std::int64_t cycles = 0;           // simulated time at stop
  std::int64_t observed_count = 0;   // transfers completed on the observed channel
  double measured_cycle_time = 0.0;  // steady-state cycles per transfer
  double throughput = 0.0;           // 1 / measured_cycle_time
  DeadlockInfo deadlock;
  bool hit_cycle_limit = false;
};

class Kernel {
 public:
  /// Adds a process; returns its id.
  SimProcessId add_process(std::string name, Program program,
                           std::unique_ptr<Behavior> behavior = nullptr);

  /// Adds a channel producer -> consumer with the given transfer latency.
  /// capacity 0 = blocking rendezvous; k > 0 = FIFO with k slots.
  SimChannelId add_channel(std::string name, SimProcessId producer,
                           SimProcessId consumer, std::int64_t latency,
                           std::int64_t capacity = 0);

  std::int32_t num_processes() const {
    return static_cast<std::int32_t>(procs_.size());
  }
  std::int32_t num_channels() const {
    return static_cast<std::int32_t>(chans_.size());
  }

  const ProcessState& process(SimProcessId p) const {
    return procs_[static_cast<std::size_t>(p)];
  }
  const ChannelState& channel(SimChannelId c) const {
    return chans_[static_cast<std::size_t>(c)];
  }

  /// Runs until `observe` completes `target_transfers` transfers, deadlock,
  /// or `max_cycles` of simulated time. Statistics accumulate across calls;
  /// use reset() for a fresh run.
  RunResult run(SimChannelId observe, std::int64_t target_transfers,
                std::int64_t max_cycles = 100'000'000);

  /// Restores time 0 and the initial process/channel states.
  void reset();

  /// Installs a state-change hook (nullptr to remove). Called synchronously
  /// on every process-status / channel-occupancy change; sim::render_vcd
  /// renders the collected events.
  void set_trace_hook(std::function<void(const TraceEvent&)> hook) {
    trace_hook_ = std::move(hook);
  }

  std::int64_t now() const { return now_; }

  /// Merges the cumulative kernel statistics into the global telemetry
  /// registry under `prefix` (counters like "<prefix>.blocked_puts",
  /// per-channel "<prefix>.channel.<name>.blocked_puts", wait-time
  /// histograms). No-op when telemetry is disabled. Statistics are
  /// cumulative across run() calls: publish once per kernel lifetime (or
  /// reset() in between) to avoid double counting.
  void publish_metrics(std::string_view prefix = "sim") const;

 private:
  struct Event {
    std::int64_t time;
    enum class Kind { kProcessWake, kTransferDone } kind;
    std::int32_t index;  // process or channel id
  };

  void advance(SimProcessId p);
  void set_status(ProcessState& proc, ProcessState::Status status);
  void try_rendezvous(SimChannelId c);
  void complete_transfer(SimChannelId c);
  void try_fifo_put(SimChannelId c);
  void try_fifo_get(SimChannelId c);
  void complete_fifo_write(SimChannelId c);
  void record_observation(SimChannelId c);
  void push_event(std::int64_t time, Event::Kind kind, std::int32_t index);
  void trace_proc(SimProcessId p);
  void trace_chan(SimChannelId c);
  DeadlockInfo detect_deadlock() const;

  std::vector<ProcessState> procs_;
  std::vector<ChannelState> chans_;
  std::vector<Event> heap_;
  std::int64_t now_ = 0;
  bool started_ = false;
  std::function<void(const TraceEvent&)> trace_hook_;

  // Observation bookkeeping for cycle-time measurement.
  std::vector<std::int64_t> observed_times_;
  SimChannelId observe_ = -1;
};

}  // namespace ermes::sim
