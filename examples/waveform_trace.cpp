// Waveform tracing: run the motivating example under two orderings and dump
// VCD waveforms (open them in GTKWave to *see* the stalls the channel
// ordering removes).
//
//   waveform_trace [out_prefix]

#include <cstdio>
#include <fstream>
#include <string>

#include "ordering/channel_ordering.h"
#include "sim/compiled.h"
#include "sim/trace.h"
#include "util/table.h"
#include "sysmodel/builder.h"

using namespace ermes;

namespace {

void trace_run(const sysmodel::SystemModel& sys, const std::string& path) {
  const sim::CompiledSim compiled(sys);
  sim::CompiledSim::Instance instance(compiled);
  sim::Tracer tracer(sys, instance);
  sim::BatchOptions opts;
  opts.observe = sys.find_channel("h");
  opts.target_transfers = 40;
  const sim::ScenarioResult run = instance.run({}, opts);
  std::ofstream out(path);
  out << tracer.to_vcd();
  std::int64_t stall_total = 0;
  for (const sim::ScenarioProcessStats& proc : run.processes) {
    stall_total += proc.stall_cycles;
  }
  std::printf("  %-24s %s cycles/item, %lld stall cycles, %zu events -> %s\n",
              path.c_str(),
              util::format_double(run.measured_cycle_time).c_str(),
              static_cast<long long>(stall_total), tracer.events().size(),
              path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "motivating";

  std::printf("tracing 40 items through the DAC'14 motivating example\n");
  sysmodel::SystemModel suboptimal = sysmodel::make_dac14_motivating_example();
  sysmodel::apply_motivating_orders(suboptimal, {"f", "b", "d"},
                                    {"e", "g", "d"});
  trace_run(suboptimal, prefix + "_suboptimal.vcd");

  sysmodel::SystemModel optimal =
      ordering::with_optimal_ordering(suboptimal);
  trace_run(optimal, prefix + "_optimal.vcd");

  std::printf("open the .vcd files in GTKWave: proc_* shows "
              "ready/computing/waiting/transferring, chan_* the transfers\n");
  return 0;
}
