#pragma once
// Waveform tracing for the simulation engine (VCD output).
//
// Records process-state and channel-occupancy changes during a run and dumps
// them as a Value Change Dump (IEEE 1364 VCD) so stalls, rendezvous hand-
// shakes and FIFO levels can be inspected in GTKWave — the view a SystemC
// designer would use to debug exactly the serialization effects this
// methodology optimizes away.
//
// Usage:
//   sim::CompiledSim compiled(sys);
//   sim::CompiledSim::Instance instance(compiled);
//   sim::Tracer tracer(sys, instance);   // attaches to the instance
//   instance.run({}, opts);
//   std::ofstream out("run.vcd");
//   out << tracer.to_vcd();

#include <cstdint>
#include <string>
#include <vector>

#include "sim/compiled.h"
#include "sim/observer.h"
#include "sysmodel/system.h"

namespace ermes::sim {

/// A state change as the tracer records it.
struct TraceEvent {
  std::int64_t time = 0;
  enum class Kind { kProcessState, kChannelOccupancy } kind =
      Kind::kProcessState;
  std::int32_t index = 0;  // process or channel id
  std::int32_t value = 0;  // ProcessStatus as int, or buffer level
};

/// Renders recorded events as a VCD document. Process states are 2-bit
/// vectors (00 ready, 01 computing, 10 waiting, 11 transferring); channel
/// occupancy is an 8-bit vector (rendezvous channels toggle 0/1 while a
/// transfer is in flight). Signals are named proc_<name> and chan_<name>.
std::string render_vcd(const std::vector<TraceEvent>& events,
                       const std::vector<std::string>& process_names,
                       const std::vector<std::string>& channel_names,
                       const std::string& timescale = "1ns");

class Tracer final : public SimObserver {
 public:
  /// Attaches to `instance` (one observer per instance at a time) and takes
  /// the signal names from `sys`; detaches on destruction. Each run()
  /// restarts the recording.
  Tracer(const sysmodel::SystemModel& sys, CompiledSim::Instance& instance);
  ~Tracer() override;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const std::vector<TraceEvent>& events() const { return events_; }

  /// The recorded run as a VCD document (see render_vcd).
  std::string to_vcd(const std::string& timescale = "1ns") const;

  void on_reset() override { events_.clear(); }
  void on_status(std::int64_t time, SimProcessId p,
                 ProcessStatus status) override;
  void on_occupancy(std::int64_t time, SimChannelId c,
                    std::int64_t level) override;

 private:
  CompiledSim::Instance& instance_;
  std::vector<std::string> process_names_;
  std::vector<std::string> channel_names_;
  std::vector<TraceEvent> events_;
};

}  // namespace ermes::sim
