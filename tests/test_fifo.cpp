// Non-blocking (FIFO) channel extension: TMG model (split write/read
// transitions with data/space places), simulation semantics (hand-written
// programs on the reference kernel, payloads on the compiled engine),
// model-vs-sim agreement, and analytic buffer sizing.

#include <gtest/gtest.h>

#include "analysis/buffer_sizing.h"
#include "analysis/performance.h"
#include "analysis/tmg_builder.h"
#include "ordering/channel_ordering.h"
#include "sim/behavior.h"
#include "sim/compiled.h"
#include "sim/system_sim.h"
#include "sim_reference/bridge.h"
#include "synth/generator.h"
#include "sysmodel/builder.h"
#include "util/rng.h"

namespace ermes {
namespace {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

// src --a--> worker --b--> snk, with configurable capacities.
SystemModel pipeline(std::int64_t cap_a, std::int64_t cap_b,
                     std::int64_t worker_latency = 4) {
  SystemModel sys;
  const ProcessId src = sys.add_process("src", 6);
  const ProcessId w = sys.add_process("w", worker_latency);
  const ProcessId snk = sys.add_process("snk", 1);
  const ChannelId a = sys.add_channel("a", src, w, 2);
  const ChannelId b = sys.add_channel("b", w, snk, 3);
  sys.set_channel_capacity(a, cap_a);
  sys.set_channel_capacity(b, cap_b);
  return sys;
}

// ---- TMG structure -----------------------------------------------------------

TEST(FifoTmgTest, RendezvousChannelSharesOneTransition) {
  const SystemModel sys = pipeline(0, 0);
  const analysis::SystemTmg stmg = analysis::build_tmg(sys);
  EXPECT_EQ(stmg.channel_transition[0], stmg.channel_read_transition[0]);
}

TEST(FifoTmgTest, FifoChannelSplitsTransitions) {
  const SystemModel sys = pipeline(2, 0);
  const analysis::SystemTmg stmg = analysis::build_tmg(sys);
  EXPECT_NE(stmg.channel_transition[0], stmg.channel_read_transition[0]);
  // Write side keeps the latency; read side is instantaneous.
  EXPECT_EQ(stmg.graph.delay(stmg.channel_transition[0]), 2);
  EXPECT_EQ(stmg.graph.delay(stmg.channel_read_transition[0]), 0);
}

TEST(FifoTmgTest, SpacePlaceCarriesCapacityTokens) {
  const SystemModel sys = pipeline(3, 0);
  const analysis::SystemTmg stmg = analysis::build_tmg(sys);
  bool found_space = false, found_data = false;
  for (tmg::PlaceId pl = 0; pl < stmg.graph.num_places(); ++pl) {
    const auto& role = stmg.place_role[static_cast<std::size_t>(pl)];
    if (role.kind == analysis::PlaceRole::Kind::kFifoSpace) {
      EXPECT_EQ(stmg.graph.tokens(pl), 3);
      found_space = true;
    }
    if (role.kind == analysis::PlaceRole::Kind::kFifoData) {
      EXPECT_EQ(stmg.graph.tokens(pl), 0);
      found_data = true;
    }
  }
  EXPECT_TRUE(found_space);
  EXPECT_TRUE(found_data);
}

// ---- analytic effect of buffering ---------------------------------------------

TEST(FifoAnalysisTest, BufferingDecouplesStages) {
  // Rendezvous: the worker ring is a(2)+w(4)+b(3) = 9; the src ring is
  // 6+2 = 8. With capacity on `a`, src's ring decouples from the shared
  // transition: CT drops to the slowest *stage* instead.
  const double ct0 =
      analysis::analyze_system(pipeline(0, 0)).cycle_time;
  const double ct1 =
      analysis::analyze_system(pipeline(4, 4)).cycle_time;
  EXPECT_LT(ct1, ct0);
}

TEST(FifoAnalysisTest, CapacityNeverHurts) {
  for (std::int64_t cap = 0; cap <= 4; ++cap) {
    const double with_cap =
        analysis::analyze_system(pipeline(cap, 0)).cycle_time;
    const double more_cap =
        analysis::analyze_system(pipeline(cap + 1, 0)).cycle_time;
    EXPECT_LE(more_cap, with_cap + 1e-12) << "cap " << cap;
  }
}

TEST(FifoAnalysisTest, CapacityCuresOrderingDeadlock) {
  // The motivating example's deadlocking order becomes live once channel d
  // (where P2 blocks) gets one slot of capacity.
  SystemModel sys = sysmodel::make_dac14_motivating_example();
  sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"g", "d", "e"});
  ASSERT_FALSE(analysis::analyze_system(sys).live);
  sys.set_channel_capacity(sys.find_channel("d"), 1);
  EXPECT_TRUE(analysis::analyze_system(sys).live);
}

// ---- kernel semantics -----------------------------------------------------------

TEST(FifoKernelTest, ProducerRunsAheadUpToCapacity) {
  // Slow consumer: the producer can complete `capacity` puts before the
  // consumer pops anything.
  sim::Kernel kernel;
  const auto prod = kernel.add_process(
      "prod", sim::Program{sim::Statement::put(0), sim::Statement::compute(1)});
  const auto cons = kernel.add_process(
      "cons",
      sim::Program{sim::Statement::get(0), sim::Statement::compute(100)});
  kernel.add_channel("c", prod, cons, 1, 3);
  // Ask for more transfers than the slow consumer can pop before the cycle
  // limit: the run stops at the limit with the buffer filled.
  kernel.run(0, 100, 50);
  EXPECT_GE(kernel.process(prod).loop_iterations, 3);
}

TEST(FifoKernelTest, SimMatchesModelOnPipeline) {
  for (std::int64_t cap : {0, 1, 2, 5}) {
    SystemModel sys = pipeline(cap, cap);
    const analysis::PerformanceReport report = analysis::analyze_system(sys);
    ASSERT_TRUE(report.live);
    const sim::SystemSimResult sim = sim::simulate_system(sys, 300);
    ASSERT_FALSE(sim.deadlocked) << "cap " << cap;
    EXPECT_NEAR(sim.measured_cycle_time, report.cycle_time, 1e-9)
        << "cap " << cap;
  }
}

TEST(FifoKernelTest, DataIntegrityThroughFifo) {
  class Producer final : public sim::Behavior {
   public:
    sim::Packet on_put(sim::SimChannelId) override {
      return sim::Packet{{counter_++}};
    }
   private:
    std::int64_t counter_ = 0;
  };
  class Consumer final : public sim::Behavior {
   public:
    void on_get(sim::SimChannelId, const sim::Packet& packet) override {
      received.push_back(packet.data.at(0));
    }
    std::vector<std::int64_t> received;
  };
  // prod (no compute) -> cons (7 cycles) over a 3-slot FIFO of latency 2:
  // the producer runs ahead, so items wait in the buffer, in order.
  SystemModel sys;
  const ProcessId prod = sys.add_process("prod", 0);
  const ProcessId cons = sys.add_process("cons", 7);
  const ChannelId c = sys.add_channel("c", prod, cons, 2);
  sys.set_channel_capacity(c, 3);
  std::vector<std::unique_ptr<sim::Behavior>> behaviors(2);
  behaviors[static_cast<std::size_t>(prod)] = std::make_unique<Producer>();
  auto consumer = std::make_unique<Consumer>();
  Consumer* consumer_ptr = consumer.get();
  behaviors[static_cast<std::size_t>(cons)] = std::move(consumer);

  const sim::CompiledSim compiled(sys);
  sim::CompiledSim::Instance instance(compiled);
  sim::BehaviorObserver observer(sys, std::move(behaviors));
  instance.set_observer(&observer);
  sim::BatchOptions opts;
  opts.observe = c;
  opts.target_transfers = 8;
  const sim::ScenarioResult run = instance.run({}, opts);
  EXPECT_EQ(consumer_ptr->received,
            (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(run.channels[0].peak_occupancy, 3);  // the buffer did fill
  EXPECT_TRUE(
      sim::results_bit_identical(run, sim::run_legacy_kernel(sys, {}, opts)));
}

TEST(FifoKernelTest, FullBufferBlocksProducerDeadlockDetected) {
  // Producer only puts; consumer never gets: fills capacity then blocks; the
  // kernel reports a stall (not a crash).
  sim::Kernel kernel;
  const auto prod =
      kernel.add_process("prod", sim::Program{sim::Statement::put(0)});
  const auto cons = kernel.add_process(
      "cons", sim::Program{sim::Statement::compute(1'000'000)});
  kernel.add_channel("c", prod, cons, 1, 2);
  const sim::RunResult run = kernel.run(0, 10, 500);
  EXPECT_TRUE(run.hit_cycle_limit || run.deadlock.deadlocked);
  (void)cons;
}

// ---- model-vs-sim property across random FIFO systems ---------------------------

class FifoAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoAgreement, ModelMatchesSimulationWithMixedCapacities) {
  synth::GeneratorConfig config;
  config.num_processes = 16;
  config.num_channels = 26;
  config.feedback_fraction = 0.2;
  config.seed = GetParam();
  SystemModel sys = synth::generate_soc(config);
  util::Rng rng(GetParam() * 31);
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    if (rng.flip(0.5)) {
      sys.set_channel_capacity(c, rng.uniform_int(1, 4));
    }
  }
  sys = ordering::with_optimal_ordering(sys);
  const analysis::PerformanceReport report = analysis::analyze_system(sys);
  ASSERT_TRUE(report.live);
  const sim::SystemSimResult sim = sim::simulate_system(sys, 400);
  ASSERT_FALSE(sim.deadlocked);
  EXPECT_NEAR(sim.measured_cycle_time, report.cycle_time, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- buffer sizing ----------------------------------------------------------------

TEST(BufferSizingTest, LivenessSizingFixesDeadlockedOrder) {
  SystemModel sys = sysmodel::make_dac14_motivating_example();
  sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"g", "d", "e"});
  const analysis::SizingResult result = analysis::size_for_liveness(sys);
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.slots_added, 0);
  EXPECT_TRUE(analysis::analyze_system(sys).live);
}

TEST(BufferSizingTest, LiveSystemNeedsNoSlots) {
  SystemModel sys = sysmodel::make_dac14_motivating_example();
  const analysis::SizingResult result = analysis::size_for_liveness(sys);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.slots_added, 0);
}

TEST(BufferSizingTest, CycleTimeSizingReachesReachableTarget) {
  SystemModel sys = pipeline(0, 0);  // CT 9 (worker ring)
  const analysis::SizingResult result =
      analysis::size_for_cycle_time(sys, 9, 16);
  ASSERT_TRUE(result.success);
  EXPECT_LT(result.cycle_time, 9.0);
  // Verify against simulation.
  const sim::SystemSimResult sim = sim::simulate_system(sys, 300);
  EXPECT_NEAR(sim.measured_cycle_time, result.cycle_time, 1e-9);
}

TEST(BufferSizingTest, UnreachableTargetReportsFailure) {
  SystemModel sys = pipeline(0, 0);
  // The worker's own latency bounds the cycle time from below: compute
  // (4) + its ring channels can't go below the compute latency.
  const analysis::SizingResult result =
      analysis::size_for_cycle_time(sys, 2, 64);
  EXPECT_FALSE(result.success);
}

TEST(BufferSizingTest, ChangesListMatchesCapacities) {
  SystemModel sys = pipeline(0, 0);
  const analysis::SizingResult result =
      analysis::size_for_cycle_time(sys, 9, 16);
  for (const auto& [channel, capacity] : result.changes) {
    EXPECT_EQ(sys.channel_capacity(channel), capacity);
  }
}

}  // namespace
}  // namespace ermes
