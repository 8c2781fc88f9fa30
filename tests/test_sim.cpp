// Unit tests for simulation semantics: rendezvous timing, stall accounting
// and deadlock detection on hand-written programs (the reference kernel,
// tests/sim_reference), and the SystemModel path (sim::simulate_system on
// the compiled engine): payloads through behaviours, agreement with the
// analytic model, and the model-derived cycle limit.

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "analysis/performance.h"
#include "sim/behavior.h"
#include "sim/compiled.h"
#include "sim/system_sim.h"
#include "sim_reference/bridge.h"
#include "sysmodel/builder.h"

namespace ermes::sim {
namespace {

// ---- program helpers ---------------------------------------------------------

TEST(ProgramTest, ThreePhaseShape) {
  const Program p = make_three_phase_program({0, 1}, 7, {2});
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].kind, Statement::Kind::kGet);
  EXPECT_EQ(p[2].kind, Statement::Kind::kCompute);
  EXPECT_EQ(p[2].cycles, 7);
  EXPECT_EQ(p[3].kind, Statement::Kind::kPut);
}

TEST(ProgramTest, ToStringReadable) {
  const Program p = make_three_phase_program({0}, 3, {1});
  const std::string text = to_string(p, {"a", "b"});
  EXPECT_EQ(text, "get(a); compute(3); put(b)");
}

// ---- kernel semantics ----------------------------------------------------------

// producer: put(c); compute(pl) / consumer: get(c); compute(cl).
struct PairSim {
  Kernel kernel;
  SimChannelId c;
  PairSim(std::int64_t chan_lat, std::int64_t prod_lat, std::int64_t cons_lat) {
    const SimProcessId prod = kernel.add_process(
        "prod", Program{Statement::put(0), Statement::compute(prod_lat)});
    const SimProcessId cons = kernel.add_process(
        "cons", Program{Statement::get(0), Statement::compute(cons_lat)});
    c = kernel.add_channel("c", prod, cons, chan_lat);
  }
};

TEST(KernelTest, RendezvousPeriodIsRingSum) {
  // Both sides loop through the shared channel: period = max of the two
  // rings = chan + max(prod, cons) computes? Both rings share ch transition:
  // ring(prod) = chan + prod_lat, ring(cons) = chan + cons_lat.
  PairSim sim(2, 3, 5);
  const RunResult run = sim.kernel.run(sim.c, 100);
  EXPECT_FALSE(run.deadlock.deadlocked);
  EXPECT_NEAR(run.measured_cycle_time, 7.0, 1e-9);  // 2 + 5
}

TEST(KernelTest, FirstTransferTiming) {
  PairSim sim(4, 1, 1);
  const RunResult run = sim.kernel.run(sim.c, 1);
  // Both ready at t=0; transfer completes at t=4.
  EXPECT_EQ(run.cycles, 4);
  EXPECT_EQ(run.observed_count, 1);
}

TEST(KernelTest, StallAccounting) {
  PairSim sim(1, 9, 1);  // consumer waits for the slow producer
  sim.kernel.run(sim.c, 50);
  const ChannelState& chan = sim.kernel.channel(sim.c);
  EXPECT_GT(chan.consumer_stall_cycles, 0);
  EXPECT_EQ(chan.producer_stall_cycles, 0);
  EXPECT_GT(sim.kernel.process(1).stall_cycles, 0);
}

TEST(KernelTest, TransferCountsAndLoopIterations) {
  PairSim sim(1, 1, 1);
  sim.kernel.run(sim.c, 10);
  EXPECT_EQ(sim.kernel.channel(sim.c).transfers_completed, 10);
  EXPECT_GE(sim.kernel.process(0).loop_iterations, 9);
}

TEST(KernelTest, ResetRestoresInitialState) {
  PairSim sim(1, 1, 1);
  sim.kernel.run(sim.c, 5);
  sim.kernel.reset();
  EXPECT_EQ(sim.kernel.now(), 0);
  EXPECT_EQ(sim.kernel.channel(sim.c).transfers_completed, 0);
  const RunResult run = sim.kernel.run(sim.c, 5);
  EXPECT_EQ(run.observed_count, 5);
}

TEST(KernelTest, ZeroLatencyChannelWorks) {
  PairSim sim(0, 2, 2);
  const RunResult run = sim.kernel.run(sim.c, 50);
  EXPECT_FALSE(run.deadlock.deadlocked);
  EXPECT_NEAR(run.measured_cycle_time, 2.0, 1e-9);
}

TEST(KernelTest, DeadlockDetectedWithWaitCycle) {
  // Two processes that each get before putting: classic rendezvous deadlock.
  Kernel kernel;
  const SimProcessId a = kernel.add_process(
      "a", Program{Statement::get(1), Statement::put(0)});
  const SimProcessId b = kernel.add_process(
      "b", Program{Statement::get(0), Statement::put(1)});
  kernel.add_channel("ab", a, b, 1);
  kernel.add_channel("ba", b, a, 1);
  const RunResult run = kernel.run(0, 1);
  ASSERT_TRUE(run.deadlock.deadlocked);
  EXPECT_EQ(run.deadlock.processes.size(), 2u);
}

TEST(KernelTest, DataFlowsThroughBehaviors) {
  // Producer emits increasing integers; consumer records them. prod -> cons
  // over one rendezvous channel, both with zero compute latency.
  class Producer final : public Behavior {
   public:
    Packet on_put(SimChannelId) override { return Packet{{counter_++}}; }
   private:
    std::int64_t counter_ = 0;
  };
  class Consumer final : public Behavior {
   public:
    void on_get(SimChannelId, const Packet& packet) override {
      received.push_back(packet.data.at(0));
    }
    std::vector<std::int64_t> received;
  };
  sysmodel::SystemModel sys;
  const sysmodel::ProcessId prod = sys.add_process("prod", 0);
  const sysmodel::ProcessId cons = sys.add_process("cons", 0);
  const sysmodel::ChannelId c = sys.add_channel("c", prod, cons, 1);
  std::vector<std::unique_ptr<Behavior>> behaviors(2);
  behaviors[static_cast<std::size_t>(prod)] = std::make_unique<Producer>();
  auto consumer = std::make_unique<Consumer>();
  Consumer* consumer_ptr = consumer.get();
  behaviors[static_cast<std::size_t>(cons)] = std::move(consumer);

  const CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  BehaviorObserver observer(sys, std::move(behaviors));
  instance.set_observer(&observer);
  BatchOptions opts;
  opts.observe = c;
  opts.target_transfers = 5;
  const ScenarioResult run = instance.run({}, opts);
  EXPECT_EQ(run.observed_count, 5);
  EXPECT_EQ(consumer_ptr->received,
            (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
  // The observer leaves the timing untouched.
  EXPECT_TRUE(results_bit_identical(run, run_legacy_kernel(sys, {}, opts)));
}

TEST(KernelTest, OnResetCalledOnce) {
  class Resetting final : public Behavior {
   public:
    explicit Resetting(int* counter) : counter_(counter) {}
    void on_reset() override { ++*counter_; }
   private:
    int* counter_;
  };
  int resets = 0;
  Kernel kernel;
  const SimProcessId prod = kernel.add_process(
      "prod", Program{Statement::put(0)}, std::make_unique<Resetting>(&resets));
  const SimProcessId cons =
      kernel.add_process("cons", Program{Statement::get(0)});
  kernel.add_channel("c", prod, cons, 1);
  kernel.run(0, 2);
  kernel.run(0, 2);  // continuation, no second reset
  EXPECT_EQ(resets, 1);
}

TEST(KernelTest, MaxCyclesStopsRun) {
  PairSim sim(1000, 1000, 1000);
  const RunResult run = sim.kernel.run(sim.c, 1'000'000, 10'000);
  EXPECT_TRUE(run.hit_cycle_limit);
}

// ---- system bridge ---------------------------------------------------------------

TEST(SystemSimTest, MotivatingExampleThroughputMatchesModel) {
  const sysmodel::SystemModel sys =
      sysmodel::make_dac14_motivating_example();
  const analysis::PerformanceReport report = analysis::analyze_system(sys);
  const SystemSimResult sim = simulate_system(sys, 200);
  ASSERT_TRUE(report.live);
  ASSERT_FALSE(sim.deadlocked);
  EXPECT_NEAR(sim.measured_cycle_time, report.cycle_time, 1e-9);
}

TEST(SystemSimTest, ObserveDefaultsToSinkInput) {
  const sysmodel::SystemModel sys =
      sysmodel::make_dac14_motivating_example();
  const SystemSimResult sim = simulate_system(sys, 50);
  EXPECT_EQ(sim.items, 50);
}

TEST(SystemSimTest, DeadlockInfoSurvivesBridge) {
  sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
  sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"g", "d", "e"});
  const SystemSimResult sim = simulate_system(sys, 10);
  ASSERT_TRUE(sim.deadlocked);
  EXPECT_FALSE(sim.deadlock.processes.empty());
}

// The default cycle limit scales with the model: every latency of the
// motivating example x k must simulate to exactly k x the x1 run (200 items
// in 2407 cycles at 12 cycles per item), far past the old fixed 1e8 limit.
// Exact values, not analysis: the simulation is the oracle here.
TEST(SystemSimTest, ScaledLatenciesFinishUnderTheDerivedCycleLimit) {
  for (const std::int64_t k :
       {std::int64_t{1}, std::int64_t{1'000'000}, std::int64_t{10'000'000}}) {
    sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
    for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
      sys.set_latency(p, sys.latency(p) * k);
    }
    for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
      sys.set_channel_latency(c, sys.channel_latency(c) * k);
    }
    const SystemSimResult sim = simulate_system(sys, 200);
    EXPECT_FALSE(sim.deadlocked) << "k " << k;
    EXPECT_EQ(sim.items, 200) << "k " << k;
    EXPECT_EQ(sim.cycles, 2407 * k) << "k " << k;
    EXPECT_EQ(sim.measured_cycle_time, static_cast<double>(12 * k))
        << "k " << k;
  }
}

TEST(SystemSimTest, CycleLimitIsDerivedAndSaturates) {
  // Small models keep the old 1e8 floor; large ones get (items + 1) x the
  // latency sum, saturating instead of overflowing.
  EXPECT_EQ(cycle_limit(27, 200), 100'000'000);
  EXPECT_EQ(cycle_limit(270'000'000, 200), 201 * 270'000'000LL);
  EXPECT_EQ(cycle_limit(std::int64_t{1} << 62, 200),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(cycle_limit(5, -3), 100'000'000);
  const sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
  EXPECT_EQ(default_cycle_limit(sys, 200), 100'000'000);  // sum 27
  EXPECT_EQ(default_cycle_limit(sys, 10'000'000), 27 * 10'000'001LL);
}

TEST(SystemSimTest, PrimedProcessStartsWithPut) {
  // a -> b -> c with feedback c -> a; c primed: the loop must run.
  sysmodel::SystemModel sys;
  const auto src = sys.add_process("src", 1);
  const auto a = sys.add_process("a", 1);
  const auto b = sys.add_process("b", 1);
  const auto c = sys.add_process("c", 1);
  const auto snk = sys.add_process("snk", 1);
  sys.add_channel("in", src, a, 1);
  sys.add_channel("ab", a, b, 1);
  sys.add_channel("bc", b, c, 1);
  sys.add_channel("fb", c, a, 1);
  sys.add_channel("out", c, snk, 1);
  sys.set_primed(c, true);
  const analysis::PerformanceReport report = analysis::analyze_system(sys);
  ASSERT_TRUE(report.live);
  const SystemSimResult sim = simulate_system(sys, 100);
  ASSERT_FALSE(sim.deadlocked);
  EXPECT_NEAR(sim.measured_cycle_time, report.cycle_time, 1e-9);
}

}  // namespace
}  // namespace ermes::sim
