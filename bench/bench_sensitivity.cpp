// A6 — Latency sensitivity: where does HLS effort pay off? Per-process
// marginal cycle-time gain on the MPEG-2 encoder (the structural signal the
// DSE's timing optimization follows), plus stall accounting from the
// simulator showing where the cycles actually go.

#include <cstdio>

#include "analysis/performance.h"
#include "analysis/sensitivity.h"
#include "apps/mpeg2/characterization.h"
#include "ordering/channel_ordering.h"
#include "sim/compiled.h"
#include "util/table.h"

using namespace ermes;

int main() {
  std::printf("== A6: latency sensitivity of the MPEG-2 encoder (M2) ==\n\n");
  sysmodel::SystemModel sys = ordering::with_optimal_ordering(
      mpeg2::make_characterized_mpeg2_encoder());

  const analysis::SensitivityReport report =
      analysis::latency_sensitivity(sys, 10'000);
  std::printf("base cycle time: %s KCycles\n\n",
              util::format_double(report.base_cycle_time / 1e3, 0).c_str());

  util::Table table({"process", "latency (KCycles)",
                     "CT gain per latency cycle", "on critical cycle"});
  int listed = 0;
  for (const analysis::ProcessSensitivity& entry : report.processes) {
    if (listed++ == 12) break;
    table.add_row(
        {sys.process_name(entry.process),
         util::format_double(
             static_cast<double>(sys.latency(entry.process)) / 1e3, 0),
         util::format_double(entry.ct_gain_per_cycle, 3),
         entry.on_critical_cycle ? "yes" : "no"});
  }
  std::printf("%s", table.to_text(2).c_str());

  // Cross-check with measured stalls: simulate and report the stall-heavy
  // channels (where the circuits wait for each other).
  const sim::CompiledSim compiled(sys);
  sim::CompiledSim::Instance instance(compiled);
  sim::BatchOptions opts;
  opts.observe = sys.find_channel("bitstream");
  opts.target_transfers = 32;
  const sim::ScenarioResult run = instance.run({}, opts);
  util::Table stalls({"channel", "producer stall", "consumer stall"});
  struct Row {
    sysmodel::ChannelId c;
    std::int64_t total;
  };
  std::vector<Row> rows;
  for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
    const sim::ScenarioChannelStats& chan =
        run.channels[static_cast<std::size_t>(c)];
    rows.push_back({c, chan.put_wait_cycles + chan.get_wait_cycles});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.total > b.total; });
  for (int i = 0; i < 8 && i < static_cast<int>(rows.size()); ++i) {
    const sysmodel::ChannelId c = rows[static_cast<std::size_t>(i)].c;
    const sim::ScenarioChannelStats& chan =
        run.channels[static_cast<std::size_t>(c)];
    stalls.add_row({sys.channel_name(c), std::to_string(chan.put_wait_cycles),
                    std::to_string(chan.get_wait_cycles)});
  }
  std::printf("\n-- stall-heaviest channels (32 frames simulated) --\n%s",
              stalls.to_text(2).c_str());
  return 0;
}
