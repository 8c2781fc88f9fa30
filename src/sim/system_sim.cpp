#include "sim/system_sim.h"

#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/compiled.h"

namespace ermes::sim {

SystemSimResult simulate_system(const sysmodel::SystemModel& sys,
                                std::int64_t items,
                                sysmodel::ChannelId observe) {
  obs::ObsSpan span("sim.run", "sim");
  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  BatchOptions opts;
  opts.observe = observe;  // kInvalidChannel (-1) = the compiled default
  opts.target_transfers = items;
  const ScenarioResult run = instance.run({}, opts);

  SystemSimResult result;
  result.deadlocked = run.deadlocked;
  result.deadlock.deadlocked = run.deadlocked;
  result.deadlock.at_cycle = run.deadlock_at;
  result.deadlock.processes = run.deadlock_processes;
  result.deadlock.channels = run.deadlock_channels;
  result.measured_cycle_time = run.measured_cycle_time;
  result.throughput = run.throughput;
  result.cycles = run.cycles;
  result.items = run.observed_count;
  if (obs::enabled()) {
    result.stalls = to_stall_report(sys, run);
    publish_metrics(sys, run);
  }
  return result;
}

}  // namespace ermes::sim
