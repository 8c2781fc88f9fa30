// Audio filterbank SoC: a second domain-specific scenario. An N-band
// analysis/synthesis filterbank (analysis split -> per-band biquad chains of
// very different depths -> synthesis merge) is the textbook reconvergent
// fan-out the paper's motivating example abstracts: the merge process's get
// order and the split's put order decide whether the slow band serializes
// everybody.
//
//   audio_filterbank [bands]

#include <cstdio>
#include <cstdlib>

#include "analysis/buffer_sizing.h"
#include "analysis/performance.h"
#include "analysis/sensitivity.h"
#include "ordering/channel_ordering.h"
#include "sim/system_sim.h"
#include "sysmodel/stats.h"
#include "sysmodel/system.h"
#include "util/str_cat.h"
#include "util/table.h"

using namespace ermes;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

SystemModel make_filterbank(int bands) {
  SystemModel sys;
  const ProcessId adc = sys.add_process("adc", 2);
  const ProcessId split = sys.add_process("analysis_split", 4);
  const ProcessId merge = sys.add_process("synthesis_merge", 4);
  const ProcessId dac = sys.add_process("dac", 2);
  sys.add_channel("pcm_in", adc, split, 1);
  sys.add_channel("pcm_out", merge, dac, 1);
  for (int b = 0; b < bands; ++b) {
    // Lower bands run longer biquad cascades (narrower transition bands).
    const std::int64_t stages = 2 + (bands - b);
    const ProcessId filter = sys.add_process(
        util::str_cat("band", b), 8 * stages);
    sys.add_channel(util::str_cat("a", b), split, filter, 2);
    sys.add_channel(util::str_cat("s", b), filter, merge, 2);
  }
  return sys;
}

double cycle_time(const SystemModel& sys) {
  const analysis::PerformanceReport report = analysis::analyze_system(sys);
  return report.live ? report.cycle_time : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int bands = argc > 1 ? std::atoi(argv[1]) : 6;
  SystemModel sys = make_filterbank(bands);
  std::printf("%s\n\n", sysmodel::to_string(sysmodel::compute_stats(sys))
                            .c_str());

  util::Table table({"ordering", "cycle time", "simulated"});
  auto row = [&](const char* name, const SystemModel& s) {
    const double ct = cycle_time(s);
    const sim::SystemSimResult sim = sim::simulate_system(s, 200);
    table.add_row({name,
                   ct < 0 ? "DEADLOCK" : util::format_double(ct).c_str(),
                   sim.deadlocked
                       ? "DEADLOCK"
                       : util::format_double(sim.measured_cycle_time)});
  };

  row("designer (band 0 first)", sys);

  // Adversarial: the split feeds the slowest band *last* while the merge
  // still reads it *first* — every band serializes behind band 0's feed.
  SystemModel worst = sys;
  {
    const ProcessId split = worst.find_process("analysis_split");
    auto puts = worst.output_order(split);
    std::reverse(puts.begin(), puts.end());
    worst.set_output_order(split, puts);
  }
  row("adversarial split order", worst);

  SystemModel ordered = ordering::with_optimal_ordering(sys);
  row("Algorithm 1", ordered);
  std::printf("%s\n", table.to_text(0).c_str());

  // Where would more HLS effort help?
  const analysis::SensitivityReport sensitivity =
      analysis::latency_sensitivity(ordered);
  std::printf("most sensitive process: %s (CT gain %s per latency cycle)\n",
              ordered.process_name(sensitivity.processes[0].process).c_str(),
              util::format_double(
                  sensitivity.processes[0].ct_gain_per_cycle, 2)
                  .c_str());

  // And how much does a little buffering buy on top?
  SystemModel buffered = ordered;
  const analysis::SizingResult sized = analysis::size_for_cycle_time(
      buffered, static_cast<std::int64_t>(cycle_time(ordered)), 32);
  if (sized.slots_added > 0) {
    std::printf("buffer sizing: %lld slots -> CT %s\n",
                static_cast<long long>(sized.slots_added),
                util::format_double(sized.cycle_time).c_str());
  } else {
    std::printf("buffer sizing: no improvement available\n");
  }
  return 0;
}
