// A1 — Ablation: the timestamp tie-break in Final Ordering.
//
// The paper: "ties among the weight values are broken according the
// ascending values of the timestamps: this tie-break is necessary to avoid
// certain deadlock situations, which may occur in graphs with some
// symmetric structures." This ablation runs Algorithm 1 with and without
// the tie-break on symmetric fork/join fabrics and random SoCs and counts
// deadlocks.

#include <cstdio>

#include "analysis/performance.h"
#include "ordering/baselines.h"
#include "ordering/channel_ordering.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/str_cat.h"
#include "util/table.h"

using namespace ermes;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

// A perfectly symmetric fabric: `width` parallel equal-latency lanes between
// a splitter and a joiner, with crossing channels — every weight ties.
SystemModel symmetric_fabric(int width, std::uint64_t seed) {
  util::Rng rng(seed);
  SystemModel sys;
  const ProcessId src = sys.add_process("src", 1);
  const ProcessId split = sys.add_process("split", 1);
  std::vector<ProcessId> lanes;
  for (int i = 0; i < width; ++i) {
    lanes.push_back(sys.add_process("lane" + std::to_string(i), 2));
  }
  const ProcessId join = sys.add_process("join", 1);
  const ProcessId snk = sys.add_process("snk", 1);
  sys.add_channel("in", src, split, 1);
  for (int i = 0; i < width; ++i) {
    sys.add_channel(util::str_cat("s", i), split, lanes[static_cast<std::size_t>(i)], 1);
  }
  // Crossing lane-to-lane channels make orders within the joiner matter.
  for (int i = 0; i + 1 < width; ++i) {
    sys.add_channel(util::str_cat("x", i), lanes[static_cast<std::size_t>(i)],
                    lanes[static_cast<std::size_t>(i + 1)], 1);
  }
  for (int i = 0; i < width; ++i) {
    sys.add_channel(util::str_cat("j", i), lanes[static_cast<std::size_t>(i)], join, 1);
  }
  sys.add_channel("out", join, snk, 1);
  // Scramble the designer order so the pre-existing order is arbitrary.
  ordering::apply_random_ordering(sys, rng);
  return sys;
}

bool live_after(SystemModel sys, bool tiebreak) {
  const ordering::ChannelOrderingResult result =
      tiebreak ? ordering::channel_ordering(sys)
               : ordering::channel_ordering_no_tiebreak(sys);
  ordering::apply_ordering(sys, result);
  return analysis::analyze_system(sys).live;
}

}  // namespace

int main() {
  std::printf("== A1: ablation of the Final Ordering timestamp tie-break ==\n\n");

  util::Table table({"corpus", "instances", "deadlocks (no tie-break)",
                     "deadlocks (tie-break)"});

  // Symmetric fabrics of growing width.
  {
    int dead_no_tb = 0, dead_tb = 0, n = 0;
    for (int width = 2; width <= 6; ++width) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const SystemModel sys = symmetric_fabric(width, seed * 13);
        if (!live_after(sys, false)) ++dead_no_tb;
        if (!live_after(sys, true)) ++dead_tb;
        ++n;
      }
    }
    table.add_row({"symmetric fabrics (w=2..6)", std::to_string(n),
                   std::to_string(dead_no_tb), std::to_string(dead_tb)});
  }

  // Random acyclic SoCs with many equal latencies (ties everywhere).
  {
    int dead_no_tb = 0, dead_tb = 0, n = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
      synth::GeneratorConfig config;
      config.num_processes = 16;
      config.num_channels = 30;
      config.feedback_fraction = 0.0;
      config.min_channel_latency = config.max_channel_latency = 1;
      config.min_process_latency = config.max_process_latency = 2;
      config.seed = seed;
      SystemModel sys = synth::generate_soc(config);
      util::Rng rng(seed * 7);
      ordering::apply_random_ordering(sys, rng);
      if (!live_after(sys, false)) ++dead_no_tb;
      if (!live_after(sys, true)) ++dead_tb;
      ++n;
    }
    table.add_row({"uniform-latency random DAGs", std::to_string(n),
                   std::to_string(dead_no_tb), std::to_string(dead_tb)});
  }

  std::printf("%s", table.to_text(2).c_str());
  std::printf("\npaper: the tie-break 'is necessary to avoid certain deadlock "
              "situations ... in graphs with some symmetric structures'\n");
  return 0;
}
