// Unit tests for the VCD waveform tracer: an observer on the compiled
// engine whose output must match, byte for byte, the reference kernel's
// trace hook rendered the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ordering/channel_ordering.h"
#include "sim/compiled.h"
#include "sim/trace.h"
#include "sim_reference/bridge.h"
#include "synth/generator.h"
#include "sysmodel/builder.h"
#include "util/rng.h"

namespace ermes::sim {
namespace {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

// prod (compute 3) -> cons (compute 5) over a rendezvous channel of
// latency 2 (or a FIFO of `capacity` slots).
SystemModel two_stage(std::int64_t prod_latency = 3,
                      std::int64_t cons_latency = 5,
                      std::int64_t chan_latency = 2,
                      std::int64_t capacity = 0) {
  SystemModel sys;
  const ProcessId prod = sys.add_process("prod", prod_latency);
  const ProcessId cons = sys.add_process("cons", cons_latency);
  const ChannelId c = sys.add_channel("link", prod, cons, chan_latency);
  sys.set_channel_capacity(c, capacity);
  return sys;
}

BatchOptions items(std::int64_t n, std::int64_t max_cycles = kDeriveCycleLimit) {
  BatchOptions opts;
  opts.target_transfers = n;
  opts.max_cycles = max_cycles;
  return opts;
}

TEST(TracerTest, RecordsEvents) {
  const SystemModel sys = two_stage();
  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  Tracer tracer(sys, instance);
  instance.run({}, items(10));
  EXPECT_FALSE(tracer.events().empty());
  // Times are non-decreasing.
  for (std::size_t i = 1; i < tracer.events().size(); ++i) {
    EXPECT_GE(tracer.events()[i].time, tracer.events()[i - 1].time);
  }
}

TEST(TracerTest, VcdStructure) {
  const SystemModel sys = two_stage();
  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  Tracer tracer(sys, instance);
  instance.run({}, items(5));
  const std::string vcd = tracer.to_vcd();
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("proc_prod"), std::string::npos);
  EXPECT_NE(vcd.find("proc_cons"), std::string::npos);
  EXPECT_NE(vcd.find("chan_link"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
}

TEST(TracerTest, ObservesStallStates) {
  // Consumer is slower: the producer must show the waiting state (b10).
  const SystemModel sys = two_stage(0, 50, 1);
  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  Tracer tracer(sys, instance);
  instance.run({}, items(3));
  bool saw_wait = false;
  for (const TraceEvent& event : tracer.events()) {
    if (event.kind == TraceEvent::Kind::kProcessState &&
        event.index == sys.find_process("prod") &&
        event.value == static_cast<std::int32_t>(ProcessStatus::kWaiting)) {
      saw_wait = true;
    }
  }
  EXPECT_TRUE(saw_wait);
}

TEST(TracerTest, FifoOccupancyTracked) {
  const SystemModel sys = two_stage(1, 40, 1, 3);
  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  Tracer tracer(sys, instance);
  instance.run({}, items(100, 60));
  std::int32_t max_level = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.kind == TraceEvent::Kind::kChannelOccupancy) {
      max_level = std::max(max_level, event.value);
    }
  }
  EXPECT_EQ(max_level, 3);  // the buffer fills to capacity
}

TEST(TracerTest, DetachesOnDestruction) {
  const SystemModel sys = two_stage();
  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  {
    Tracer tracer(sys, instance);
    EXPECT_EQ(instance.observer(), &tracer);
    instance.run({}, items(2));
    EXPECT_FALSE(tracer.events().empty());
  }
  // No tracer attached: further simulation must not crash.
  EXPECT_EQ(instance.observer(), nullptr);
  EXPECT_EQ(instance.run({}, items(2)).observed_count, 2);
}

TEST(TracerTest, WorksOnFullSystemSimulation) {
  const SystemModel sys = sysmodel::make_dac14_motivating_example();
  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  Tracer tracer(sys, instance);
  BatchOptions opts = items(20);
  opts.observe = sys.find_channel("h");
  instance.run({}, opts);
  const std::string vcd = tracer.to_vcd();
  EXPECT_NE(vcd.find("proc_P2"), std::string::npos);
  EXPECT_NE(vcd.find("chan_d"), std::string::npos);
  EXPECT_GT(tracer.events().size(), 100u);
}

// ---- equivalence with the reference kernel's trace hook ---------------------

struct Traced {
  std::string vcd;
  std::vector<TraceEvent> events;
  ScenarioResult result;
};

bool same_events(const std::vector<TraceEvent>& a,
                 const std::vector<TraceEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TraceEvent& x, const TraceEvent& y) {
                      return x.time == y.time && x.kind == y.kind &&
                             x.index == y.index && x.value == y.value;
                    });
}

Traced trace_compiled(const SystemModel& sys, const BatchOptions& opts) {
  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  Tracer tracer(sys, instance);
  Traced out;
  out.result = instance.run({}, opts);
  out.vcd = tracer.to_vcd();
  out.events = tracer.events();
  return out;
}

Traced trace_reference(const SystemModel& sys, const BatchOptions& opts) {
  Kernel kernel = build_kernel(sys);
  Traced out;
  std::vector<TraceEvent>& events = out.events;
  kernel.set_trace_hook(
      [&events](const TraceEvent& event) { events.push_back(event); });
  const SimChannelId observe =
      opts.observe >= 0 ? opts.observe : default_observe_channel(sys);
  kernel.run(observe, opts.target_transfers,
             default_cycle_limit(sys, opts.target_transfers));
  std::vector<std::string> procs, chans;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    procs.push_back(kernel.process(p).name);
  }
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    chans.push_back(kernel.channel(c).name);
  }
  out.vcd = render_vcd(events, procs, chans);
  return out;
}

void expect_same_trace(const SystemModel& sys, std::int64_t n,
                       const std::string& what) {
  BatchOptions opts = items(n);
  opts.detect_period = true;  // the attached tracer must switch it off
  const Traced compiled = trace_compiled(sys, opts);
  const Traced reference = trace_reference(sys, opts);
  EXPECT_FALSE(compiled.events.empty()) << what;
  EXPECT_TRUE(compiled.vcd == reference.vcd)
      << what << ": VCD differs from the reference kernel's";
  // Stronger than the rendering, which keeps only the last value per signal
  // and instant: the same events in the same order.
  EXPECT_TRUE(same_events(compiled.events, reference.events))
      << what << ": event stream differs from the reference kernel's";
  EXPECT_TRUE(
      results_bit_identical(compiled.result, run_legacy_kernel(sys, {}, opts)))
      << what << ": a traced run diverged from the reference kernel";
}

TEST(TracerTest, VcdMatchesReferenceOnMotivatingExample) {
  // 500 items: long enough that an untraced run jumps whole periods, so a
  // byte-identical waveform shows the tracer saw every period.
  const SystemModel sys = sysmodel::make_dac14_motivating_example();
  expect_same_trace(sys, 500, "motivating");
  const Traced traced = trace_compiled(sys, items(500));
  EXPECT_EQ(traced.result.observed_count, 500);
  // Every item costs state changes; a skipped period would leave far fewer.
  EXPECT_GT(traced.events.size(), 500u * 10u);
}

TEST(TracerTest, VcdMatchesReferenceOnMixedCapacityFifoSystems) {
  // The FifoAgreement generator (test_fifo): random SoCs, half the channels
  // given 1-4 slots, optimally ordered.
  for (const std::uint64_t seed : {1u, 5u, 9u}) {
    synth::GeneratorConfig config;
    config.num_processes = 16;
    config.num_channels = 26;
    config.feedback_fraction = 0.2;
    config.seed = seed;
    SystemModel sys = synth::generate_soc(config);
    util::Rng rng(seed * 31);
    for (ChannelId c = 0; c < sys.num_channels(); ++c) {
      if (rng.flip(0.5)) {
        sys.set_channel_capacity(c, rng.uniform_int(1, 4));
      }
    }
    sys = ordering::with_optimal_ordering(sys);
    expect_same_trace(sys, 200, "fifo seed " + std::to_string(seed));
  }
}

TEST(TracerTest, VcdMatchesReferenceOnDeadlockingOrder) {
  SystemModel sys = sysmodel::make_dac14_motivating_example();
  sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"g", "d", "e"});
  expect_same_trace(sys, 10, "deadlocking order");
  EXPECT_TRUE(trace_compiled(sys, items(10)).result.deadlocked);
}

}  // namespace
}  // namespace ermes::sim
