#pragma once
// One-call simulation of a SystemModel.
//
// simulate_system() compiles the model (sim::CompiledSim) and runs it until
// `items` transfers complete on the observed channel, measuring the
// steady-state cycle time empirically — the number the TMG model predicts
// as pi(G). Each process runs the program its I/O orders imply (sources run
// puts-then-compute so they are ready to produce at time 0, matching the
// TMG initial marking; see compiled.cpp).

#include <cstdint>
#include <vector>

#include "sim/observer.h"
#include "sim/stall_report.h"
#include "sysmodel/system.h"

namespace ermes::sim {

struct DeadlockInfo {
  bool deadlocked = false;
  std::int64_t at_cycle = 0;
  /// Circular wait: process i is blocked on channel i, whose peer is
  /// process i+1 (cyclically). Only filled when a cycle exists.
  std::vector<SimProcessId> processes;
  std::vector<SimChannelId> channels;
};

struct SystemSimResult {
  bool deadlocked = false;
  DeadlockInfo deadlock;
  double measured_cycle_time = 0.0;
  double throughput = 0.0;
  std::int64_t cycles = 0;
  std::int64_t items = 0;
  /// Per-process / per-channel stall accounting. Collected (and the run's
  /// statistics published to the telemetry registry under "sim.", see
  /// sim::publish_metrics) only when obs::enabled(); empty otherwise.
  StallReport stalls;
};

/// Simulates until `items` transfers complete on `observe` (default: the
/// first input channel of the first sink process, see
/// default_observe_channel), under the model-derived cycle limit
/// (default_cycle_limit). Suitable `items` for a stable measurement: a few
/// hundred.
SystemSimResult simulate_system(const sysmodel::SystemModel& sys,
                                std::int64_t items = 200,
                                sysmodel::ChannelId observe =
                                    sysmodel::kInvalidChannel);

}  // namespace ermes::sim
