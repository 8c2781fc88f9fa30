#pragma once
// Behavioral hooks for simulated processes.
//
// The engine drives timing (blocking, stalls, transfer latencies); a
// Behavior supplies the data: packets produced at puts, consumption of
// packets at gets, and work performed when a compute phase retires. This
// mirrors the SystemC split between the interface library (timing/protocol)
// and the user's process body (data).
//
// Behaviours run on sim::CompiledSim through BehaviorObserver, a
// SimObserver that owns the payloads: the in-flight packet of each channel
// and each FIFO's queue of buffered packets. The engine's hot state keeps
// only occupancy counts; the observer's queues mirror them item for item.
//
// Usage:
//   sim::CompiledSim compiled(sys);
//   sim::CompiledSim::Instance instance(compiled);
//   sim::BehaviorObserver behaviors(sys, std::move(per_process_behaviors));
//   instance.set_observer(&behaviors);
//   instance.run({}, opts);

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/observer.h"
#include "sysmodel/system.h"

namespace ermes::sim {

/// Payload transferred over a channel in one rendezvous.
struct Packet {
  std::vector<std::int64_t> data;
};

class Behavior {
 public:
  virtual ~Behavior() = default;

  /// Called once before the main loop (the reset phase).
  virtual void on_reset() {}

  /// A get on channel c completed, delivering `packet`.
  virtual void on_get(SimChannelId c, const Packet& packet) {
    (void)c;
    (void)packet;
  }

  /// A put on channel c is retiring; produce the packet to send.
  virtual Packet on_put(SimChannelId c) {
    (void)c;
    return {};
  }

  /// A compute statement retired (its cycles elapsed). In a three-phase
  /// program this fires between the input and output phases.
  virtual void on_compute() {}

  /// One full pass over the program completed (the loop wrapped). Use this
  /// — not on_compute — to advance per-iteration indices, since puts of the
  /// current iteration retire after the compute statement.
  virtual void on_loop_end() {}
};

/// Runs per-process Behaviors on the engine's events and carries their
/// packets. Process and channel ids are the SystemModel's.
class BehaviorObserver final : public SimObserver {
 public:
  /// `behaviors` is indexed by ProcessId; missing or null entries are
  /// timing-only processes (they send empty packets).
  BehaviorObserver(const sysmodel::SystemModel& sys,
                   std::vector<std::unique_ptr<Behavior>> behaviors);

  void on_reset() override;
  void on_put_begin(SimChannelId c) override;
  void on_write_landed(SimChannelId c) override;
  void on_get(SimChannelId c) override;
  void on_compute(SimProcessId p) override;
  void on_loop_end(SimProcessId p) override;

 private:
  Behavior* behavior(SimProcessId p) const {
    return behaviors_[static_cast<std::size_t>(p)].get();
  }

  std::vector<std::unique_ptr<Behavior>> behaviors_;
  std::vector<SimProcessId> producer_;
  std::vector<SimProcessId> consumer_;
  std::vector<Packet> in_flight_;
  std::vector<std::deque<Packet>> buffered_;
};

}  // namespace ermes::sim
