#pragma once
// Event observer for the compiled simulation engine.
//
// sim::CompiledSim's hot loop carries timing state only. Everything that
// wants to watch a run — the VCD tracer (sim/trace.h), functional payload
// behaviours (sim/behavior.h) — attaches one SimObserver to an Instance and
// receives the run's events synchronously, in engine order. The engine
// tests the observer pointer at each event site and calls nothing when it
// is unset, so an unobserved run pays one predictable branch per site.
//
// What fires when (times are the simulated instant of the event):
//   on_reset        once per run(), before any process takes its first step
//   on_status       a process entered a new status: a wait at a get/put, a
//                   compute that needs cycles, a transfer starting, a
//                   compute or transfer retiring
//   on_occupancy    a channel's level changed: a rendezvous transfer
//                   started or finished (1/0), a FIFO write landed or a
//                   FIFO get popped (the buffered item count)
//   on_put_begin    a put started transferring on the channel
//   on_write_landed a FIFO write finished and its item entered the buffer
//   on_get          a get delivered a value: the oldest buffered item of a
//                   FIFO, or the item of a completing rendezvous
//   on_compute      a compute statement retired (zero-cycle computes
//                   retire in place)
//   on_loop_end     a process wrapped around to the start of its program
// The period jump (BatchOptions::detect_period) is skipped while an observer
// is attached: the observer sees every event of every period.

#include <cstdint>

namespace ermes::sim {

/// Ids of simulated processes and channels: the SystemModel's ProcessId /
/// ChannelId when the simulation is compiled from a SystemModel.
using SimChannelId = std::int32_t;
using SimProcessId = std::int32_t;

/// Per-process status; the numeric values index
/// ScenarioProcessStats::cycles_in_status and are the 2-bit VCD encoding.
enum class ProcessStatus : std::uint8_t {
  kReady = 0,        // can execute its next statement
  kComputing = 1,    // a compute retires at a known time
  kWaiting = 2,      // suspended at a blocking get/put
  kTransferring = 3  // a transfer completes at a known time
};

class SimObserver {
 public:
  virtual ~SimObserver() = default;

  virtual void on_reset() {}
  virtual void on_status(std::int64_t time, SimProcessId p,
                         ProcessStatus status) {
    (void)time;
    (void)p;
    (void)status;
  }
  virtual void on_occupancy(std::int64_t time, SimChannelId c,
                            std::int64_t level) {
    (void)time;
    (void)c;
    (void)level;
  }
  virtual void on_put_begin(SimChannelId c) { (void)c; }
  virtual void on_write_landed(SimChannelId c) { (void)c; }
  virtual void on_get(SimChannelId c) { (void)c; }
  virtual void on_compute(SimProcessId p) { (void)p; }
  virtual void on_loop_end(SimProcessId p) { (void)p; }
};

}  // namespace ermes::sim
