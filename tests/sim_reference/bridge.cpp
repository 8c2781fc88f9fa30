#include "sim_reference/bridge.h"

#include <cassert>
#include <limits>

namespace ermes::sim {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

Program program_for(const SystemModel& sys, ProcessId p) {
  std::vector<SimChannelId> gets(sys.input_order(p).begin(),
                                 sys.input_order(p).end());
  std::vector<SimChannelId> puts(sys.output_order(p).begin(),
                                 sys.output_order(p).end());
  if (gets.empty() && !puts.empty()) {
    Program program;
    for (SimChannelId c : puts) program.push_back(Statement::put(c));
    program.push_back(Statement::compute(sys.latency(p)));
    return program;
  }
  if (sys.primed(p) && !puts.empty()) {
    Program program;
    for (SimChannelId c : puts) program.push_back(Statement::put(c));
    for (SimChannelId c : gets) program.push_back(Statement::get(c));
    program.push_back(Statement::compute(sys.latency(p)));
    return program;
  }
  return make_three_phase_program(gets, sys.latency(p), puts);
}

Kernel build_kernel(const SystemModel& sys,
                    std::vector<std::unique_ptr<Behavior>> behaviors) {
  Kernel kernel;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    std::unique_ptr<Behavior> behavior;
    if (static_cast<std::size_t>(p) < behaviors.size()) {
      behavior = std::move(behaviors[static_cast<std::size_t>(p)]);
    }
    [[maybe_unused]] const SimProcessId sp = kernel.add_process(
        sys.process_name(p), program_for(sys, p), std::move(behavior));
    assert(sp == p);
  }
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    // An unbounded channel simulates as a FIFO whose slot check never fails;
    // the deque only ever holds actually-buffered items.
    std::int64_t capacity = sys.channel_capacity(c);
    if (capacity == sysmodel::kUnboundedCapacity) {
      capacity = std::numeric_limits<std::int64_t>::max();
    }
    [[maybe_unused]] const SimChannelId sc =
        kernel.add_channel(sys.channel_name(c), sys.channel_source(c),
                           sys.channel_target(c), sys.channel_latency(c),
                           capacity);
    assert(sc == c);
  }
  return kernel;
}

ScenarioResult run_legacy_kernel(const sysmodel::SystemModel& sys,
                                 const SimScenario& scenario,
                                 const BatchOptions& opts) {
  sysmodel::SystemModel model = sys;
  if (!scenario.process_latency.empty()) {
    assert(scenario.process_latency.size() ==
           static_cast<std::size_t>(sys.num_processes()));
    for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
      model.set_latency(p, scenario.process_latency[static_cast<std::size_t>(p)]);
    }
  }
  if (!scenario.channel_latency.empty()) {
    assert(scenario.channel_latency.size() ==
           static_cast<std::size_t>(sys.num_channels()));
    for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
      model.set_channel_latency(
          c, scenario.channel_latency[static_cast<std::size_t>(c)]);
    }
  }
  if (!scenario.channel_capacity.empty()) {
    assert(scenario.channel_capacity.size() ==
           static_cast<std::size_t>(sys.num_channels()));
    for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
      model.set_channel_capacity(
          c, scenario.channel_capacity[static_cast<std::size_t>(c)]);
    }
  }

  Kernel kernel = build_kernel(model);
  const SimChannelId observe =
      opts.observe >= 0 ? opts.observe : default_observe_channel(model);
  const std::int64_t max_cycles =
      opts.max_cycles < 0
          ? default_cycle_limit(model, opts.target_transfers)
          : opts.max_cycles;
  const RunResult run = kernel.run(observe, opts.target_transfers, max_cycles);

  ScenarioResult result;
  result.cycles = run.cycles;
  result.observed_count = run.observed_count;
  result.measured_cycle_time = run.measured_cycle_time;
  result.throughput = run.throughput;
  result.deadlocked = run.deadlock.deadlocked;
  result.deadlock_at = run.deadlock.at_cycle;
  result.deadlock_processes = run.deadlock.processes;
  result.deadlock_channels = run.deadlock.channels;
  result.hit_cycle_limit = run.hit_cycle_limit;
  result.processes.resize(static_cast<std::size_t>(kernel.num_processes()));
  result.channels.resize(static_cast<std::size_t>(kernel.num_channels()));
  for (SimProcessId p = 0; p < kernel.num_processes(); ++p) {
    const ProcessState& proc = kernel.process(p);
    ScenarioProcessStats& out = result.processes[static_cast<std::size_t>(p)];
    out.pc = static_cast<std::int64_t>(proc.pc);
    out.status = static_cast<std::uint8_t>(proc.status);
    out.loop_iterations = proc.loop_iterations;
    out.stall_cycles = proc.stall_cycles;
    out.compute_cycles = proc.compute_cycles;
    out.cycles_in_status = proc.cycles_in_status;
  }
  for (SimChannelId c = 0; c < kernel.num_channels(); ++c) {
    const ChannelState& chan = kernel.channel(c);
    ScenarioChannelStats& out = result.channels[static_cast<std::size_t>(c)];
    out.transfers = chan.transfers_completed;
    out.last_transfer_at = chan.last_transfer_completed_at;
    out.buffered = static_cast<std::int64_t>(chan.buffer.size());
    out.blocked_puts = chan.blocked_puts;
    out.blocked_gets = chan.blocked_gets;
    out.put_wait_cycles = chan.producer_stall_cycles;
    out.get_wait_cycles = chan.consumer_stall_cycles;
    out.peak_occupancy = chan.peak_occupancy;
    out.put_wait = WaitHistogram::from_dense(chan.put_wait);
    out.get_wait = WaitHistogram::from_dense(chan.get_wait);
  }
  return result;
}

StallReport collect_stalls(const Kernel& kernel) {
  StallReport report;
  report.cycles = kernel.now();
  using Status = ProcessState::Status;
  for (std::int32_t p = 0; p < kernel.num_processes(); ++p) {
    const ProcessState& proc = kernel.process(p);
    ProcessStall stall;
    stall.name = proc.name;
    stall.ready =
        proc.cycles_in_status[static_cast<std::size_t>(Status::kReady)];
    stall.computing =
        proc.cycles_in_status[static_cast<std::size_t>(Status::kComputing)];
    stall.waiting =
        proc.cycles_in_status[static_cast<std::size_t>(Status::kWaiting)];
    stall.transferring =
        proc.cycles_in_status[static_cast<std::size_t>(Status::kTransferring)];
    report.processes.push_back(std::move(stall));
  }
  for (std::int32_t c = 0; c < kernel.num_channels(); ++c) {
    const ChannelState& chan = kernel.channel(c);
    ChannelStall stall;
    stall.name = chan.name;
    stall.transfers = chan.transfers_completed;
    stall.blocked_puts = chan.blocked_puts;
    stall.blocked_gets = chan.blocked_gets;
    stall.put_wait_cycles = chan.producer_stall_cycles;
    stall.get_wait_cycles = chan.consumer_stall_cycles;
    stall.peak_occupancy = chan.peak_occupancy;
    stall.put_wait = chan.put_wait;
    stall.get_wait = chan.get_wait;
    report.channels.push_back(std::move(stall));
  }
  return report;
}

}  // namespace ermes::sim
