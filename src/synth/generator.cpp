#include "synth/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "util/str_cat.h"

namespace ermes::synth {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

sysmodel::SystemModel generate_soc(const GeneratorConfig& config) {
  util::Rng rng(config.seed);
  const std::int32_t n_total = std::max<std::int32_t>(3, config.num_processes);

  // Feedback loops: each consumes two relay processes (a plain one and a
  // primed one, i.e. a double-buffered register stage) and three channels.
  // The double buffer is what makes rendezvous feedback robust: a TMG cycle
  // threading the pair crosses a token in either direction, so no token-free
  // cycle can ride the loop.
  std::int32_t feedback =
      static_cast<std::int32_t>(std::llround(
          config.feedback_fraction *
          std::max<std::int32_t>(0, config.num_channels - n_total)));
  feedback = std::min(feedback, (n_total - 3) / 6);
  feedback = std::max(feedback, 0);

  const std::int32_t core_count = n_total - 2 - 2 * feedback;
  assert(core_count >= 1);
  // At most one layer per core process: an empty layer would leave the
  // out-degree fix below nothing to pick from.
  const std::int32_t layers = std::min(
      core_count,
      config.num_layers > 0
          ? config.num_layers
          : std::max<std::int32_t>(
                2, static_cast<std::int32_t>(std::lround(
                       std::sqrt(static_cast<double>(core_count))))));

  auto proc_latency = [&] {
    return rng.uniform_int(config.min_process_latency,
                           config.max_process_latency);
  };
  auto chan_latency = [&] {
    return rng.uniform_int(config.min_channel_latency,
                           config.max_channel_latency);
  };

  SystemModel sys;
  const ProcessId src = sys.add_process("src", proc_latency());
  std::vector<std::vector<ProcessId>> layer(
      static_cast<std::size_t>(layers));
  for (std::int32_t i = 0; i < core_count; ++i) {
    const auto l = static_cast<std::size_t>(
        std::min<std::int32_t>(layers - 1, i * layers / core_count));
    const ProcessId p = sys.add_process(
        util::str_cat("p", l, "_", layer[l].size()),
        proc_latency());
    layer[l].push_back(p);
  }
  const ProcessId snk = sys.add_process("snk", proc_latency());

  std::int32_t chan_counter = 0;
  std::set<std::pair<ProcessId, ProcessId>> used_pairs;
  auto add_channel = [&](ProcessId from, ProcessId to) -> bool {
    if (from == to) return false;
    if (!used_pairs.insert({from, to}).second) return false;
    sys.add_channel(util::str_cat("c", chan_counter++), from, to,
                    chan_latency());
    return true;
  };

  // Backbone: each core process gets one incoming channel from the previous
  // layer (layer 0 from the source).
  for (std::size_t l = 0; l < layer.size(); ++l) {
    for (ProcessId p : layer[l]) {
      const ProcessId from =
          l == 0 ? src : layer[l - 1][rng.index(layer[l - 1].size())];
      add_channel(from, p);
    }
  }

  // Out-degree fix, last layer first: every process must reach the sink.
  for (std::size_t l = layer.size(); l-- > 0;) {
    for (ProcessId p : layer[l]) {
      if (!sys.output_order(p).empty()) continue;
      if (l + 1 < layer.size()) {
        const auto& next = layer[l + 1];
        if (add_channel(p, next[rng.index(next.size())])) continue;
      }
      add_channel(p, snk);
    }
  }

  // Reconvergent forward extras until the forward budget is met.
  const std::int32_t forward_budget =
      std::max(sys.num_channels(),
               config.num_channels - 3 * feedback);
  std::int32_t attempts = 0;
  while (sys.num_channels() < forward_budget &&
         attempts < 20 * forward_budget) {
    ++attempts;
    const auto li = rng.index(layer.size());
    if (layer[li].empty()) continue;
    const ProcessId from = layer[li][rng.index(layer[li].size())];
    // Prefer short skips (reconvergence) but allow long ones.
    const std::size_t max_skip = layer.size() - li;
    ProcessId to;
    if (max_skip <= 1 || rng.flip(0.2)) {
      to = snk;
    } else {
      const std::size_t lj =
          li + 1 + rng.index(std::min<std::size_t>(max_skip - 1, 3));
      const auto& tgt = layer[std::min(lj, layer.size() - 1)];
      if (tgt.empty()) continue;
      to = tgt[rng.index(tgt.size())];
    }
    add_channel(from, to);
  }

  // Feedback loops through double-buffered relay pairs. Every budgeted
  // relay pair is placed (the process count is part of the generator
  // contract); a loop from a process back to itself via the relays is legal
  // and still a cycle.
  for (std::int32_t k = 0; k < feedback; ++k) {
    const std::size_t j =
        layer.size() > 1 ? 1 + rng.index(layer.size() - 1) : 0;
    const std::size_t i = rng.index(j + 1);
    const ProcessId from = layer[j][rng.index(layer[j].size())];
    const ProcessId to = layer[i][rng.index(layer[i].size())];
    const ProcessId relay_a =
        sys.add_process("relay" + std::to_string(k) + "_a", 1);
    const ProcessId relay_b =
        sys.add_process("relay" + std::to_string(k) + "_b", 1);
    sys.set_primed(relay_b, true);
    add_channel(from, relay_a);
    add_channel(relay_a, relay_b);
    add_channel(relay_b, to);
  }

  return sys;
}

}  // namespace ermes::synth
