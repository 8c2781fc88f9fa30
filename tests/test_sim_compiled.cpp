// Randomized differential testing of the compiled batch simulator.
//
// The event-heap reference Kernel (tests/sim_reference, the engine the
// product ran before CompiledSim) is the oracle; sim::CompiledSim must be
// bit-identical to it, step for step, on every instance:
//
//  S1. Random strongly connected systems (a process ring with a primed
//      token carrier, plus random chord channels mixing rendezvous, finite
//      FIFO, and unbounded capacities): the full ScenarioResult — final
//      marking (pc/status/buffered), stall accounting, wait histograms,
//      deadlock cycles, double bits of the measured cycle time — matches
//      run_legacy_kernel exactly.
//  S2. Scenario sweeps: simulate_batch over random latency/capacity weight
//      vectors equals per-scenario legacy runs, serial and on a thread
//      pool, with results in scenario order either way.
//  S3. Sparse timelines: latencies far beyond the calendar wheel horizon
//      route through the overflow heap and stay bit-identical.
//  S4. Instance reuse: one Instance run back-to-back over a scenario list
//      equals a fresh Instance per scenario (reset is complete).
//  S5. Model validation: on live generated SoCs (rendezvous channels, no
//      capacity constraints) the sim-measured steady-state cycle time
//      equals the Howard max cycle mean from analyze_system.
//  S6. Periodic extrapolation: long runs that jump whole periods equal the
//      full grind and the Kernel, including runs whose wait histograms
//      spilled past their inline buckets before the jump, and an Instance
//      reused after such a run resets completely.
//  W.  The compact WaitHistogram equals obs::HistogramData::observe on
//      random sequences (inline and spilled), and advance_periods equals
//      observing the period n more times.
//
// Failures shrink the offending system (dropping chords, collapsing
// latencies, zeroing capacities) while the divergence persists, then print
// the seed and a compact reconstruction.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/performance.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "sim/compiled.h"
#include "sim/event_queue.h"
#include "sim_reference/bridge.h"
#include "sim/wait_histogram.h"
#include "synth/generator.h"
#include "sysmodel/system.h"
#include "util/rng.h"
#include "util/str_cat.h"

namespace ermes::sim {
namespace {

constexpr std::uint64_t kBaseSeed = 0x51dec0dedULL;

// A value-type recipe for a random system, kept separate from SystemModel
// so the shrinker can edit and rebuild it. Processes form a ring (strong
// connectivity); process 0 is primed, so the ring carries a token; chords
// add reconvergent and feedback structure.
struct SysSpec {
  struct Proc {
    std::int64_t latency = 1;
    bool primed = false;
  };
  struct Chan {
    int src = 0;
    int dst = 0;
    std::int64_t latency = 1;
    std::int64_t capacity = 0;  // sysmodel convention; -1 = unbounded
  };
  std::vector<Proc> procs;
  std::vector<Chan> rings;   // ring channel i: i -> (i+1) % n
  std::vector<Chan> chords;

  sysmodel::SystemModel build() const {
    sysmodel::SystemModel sys;
    for (std::size_t p = 0; p < procs.size(); ++p) {
      sys.add_process(util::str_cat("p", p), procs[p].latency);
      if (procs[p].primed) {
        sys.set_primed(static_cast<sysmodel::ProcessId>(p), true);
      }
    }
    auto add = [&](const Chan& chan, const std::string& name) {
      const sysmodel::ChannelId c =
          sys.add_channel(name, chan.src, chan.dst, chan.latency);
      sys.set_channel_capacity(c, chan.capacity);
    };
    for (std::size_t i = 0; i < rings.size(); ++i) {
      add(rings[i], util::str_cat("r", i));
    }
    for (std::size_t i = 0; i < chords.size(); ++i) {
      add(chords[i], util::str_cat("x", i));
    }
    return sys;
  }
};

std::int64_t random_capacity(util::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1:
    case 2:
      return 0;  // rendezvous (the common case)
    case 3:
      return 1;
    case 4:
      return rng.uniform_int(2, 4);
    default:
      return sysmodel::kUnboundedCapacity;
  }
}

SysSpec random_spec(util::Rng& rng) {
  SysSpec spec;
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  for (int p = 0; p < n; ++p) {
    SysSpec::Proc proc;
    proc.latency = rng.uniform_int(0, 12);
    proc.primed = p == 0 || rng.flip(0.25);
    spec.procs.push_back(proc);
  }
  // Keep at least one nonzero latency: an all-zero system is a pure
  // zero-latency spin and both engines just trip the livelock guard slowly.
  if (spec.procs[0].latency == 0) spec.procs[0].latency = 1;
  for (int i = 0; i < n; ++i) {
    SysSpec::Chan chan;
    chan.src = i;
    chan.dst = (i + 1) % n;
    chan.latency = rng.uniform_int(0, 6);
    chan.capacity = random_capacity(rng);
    spec.rings.push_back(chan);
  }
  const std::int64_t extras = rng.uniform_int(0, n);
  for (std::int64_t e = 0; e < extras; ++e) {
    SysSpec::Chan chan;
    chan.src = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    do {
      chan.dst = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    } while (chan.dst == chan.src);
    chan.latency = rng.uniform_int(0, 6);
    chan.capacity = random_capacity(rng);
    spec.chords.push_back(chan);
  }
  return spec;
}

std::string describe(const SysSpec& spec) {
  std::ostringstream os;
  os << "procs (latency/primed):";
  for (std::size_t p = 0; p < spec.procs.size(); ++p) {
    os << " p" << p << "(" << spec.procs[p].latency
       << (spec.procs[p].primed ? ",primed" : "") << ")";
  }
  auto chans = [&](const char* tag, const std::vector<SysSpec::Chan>& list) {
    os << "\n" << tag << ":";
    for (const SysSpec::Chan& c : list) {
      os << " " << c.src << "->" << c.dst << "(lat " << c.latency << ", cap "
         << c.capacity << ")";
    }
  };
  chans("ring", spec.rings);
  chans("chords", spec.chords);
  return os.str();
}

BatchOptions quick_opts() {
  BatchOptions opts;
  opts.target_transfers = 50;
  opts.max_cycles = 500'000;
  return opts;
}

// One compiled run of the base scenario vs the legacy oracle.
bool engines_agree(const SysSpec& spec) {
  const sysmodel::SystemModel sys = spec.build();
  const BatchOptions opts = quick_opts();
  const ScenarioResult oracle = run_legacy_kernel(sys, {}, opts);
  CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  const ScenarioResult got = instance.run({}, opts);
  return results_bit_identical(oracle, got);
}

// Greedy shrink: drop chords, then collapse latencies and capacities, while
// the failure (predicate returns false) persists.
SysSpec shrink(SysSpec spec, const std::function<bool(const SysSpec&)>& ok) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < spec.chords.size();) {
      SysSpec candidate = spec;
      candidate.chords.erase(candidate.chords.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (!ok(candidate)) {
        spec = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
    auto try_mutate = [&](const std::function<void(SysSpec&)>& mutate) {
      SysSpec candidate = spec;
      mutate(candidate);
      if (!ok(candidate)) {
        spec = std::move(candidate);
        changed = true;
      }
    };
    for (std::size_t p = 0; p < spec.procs.size(); ++p) {
      if (spec.procs[p].latency > (p == 0 ? 1 : 0)) {
        try_mutate([&](SysSpec& s) { s.procs[p].latency = p == 0 ? 1 : 0; });
      }
    }
    for (std::size_t i = 0; i < spec.rings.size(); ++i) {
      if (spec.rings[i].latency > 0) {
        try_mutate([&](SysSpec& s) { s.rings[i].latency = 0; });
      }
      if (spec.rings[i].capacity != 0) {
        try_mutate([&](SysSpec& s) { s.rings[i].capacity = 0; });
      }
    }
    for (std::size_t i = 0; i < spec.chords.size(); ++i) {
      if (spec.chords[i].latency > 0) {
        try_mutate([&](SysSpec& s) { s.chords[i].latency = 0; });
      }
      if (spec.chords[i].capacity != 0) {
        try_mutate([&](SysSpec& s) { s.chords[i].capacity = 0; });
      }
    }
  }
  return spec;
}

void report_failure(const SysSpec& spec, std::uint64_t seed,
                    const std::function<bool(const SysSpec&)>& ok,
                    const char* what) {
  const SysSpec minimized = shrink(spec, ok);
  FAIL() << what << " (seed 0x" << std::hex << seed << std::dec
         << ")\nminimized system:\n"
         << describe(minimized);
}

// ---- S1: base-scenario differential ----------------------------------------

TEST(CompiledSimDifferentialTest, RandomSystemsMatchLegacyKernel) {
  for (std::uint64_t shard = 0; shard < 60; ++shard) {
    const std::uint64_t seed = kBaseSeed + shard;
    util::Rng rng(seed);
    const SysSpec spec = random_spec(rng);
    if (!engines_agree(spec)) {
      report_failure(spec, seed, engines_agree,
                     "CompiledSim diverged from the legacy Kernel");
      return;
    }
  }
}

// ---- S2: scenario sweeps, serial and pooled ---------------------------------

std::vector<SimScenario> random_scenarios(const sysmodel::SystemModel& sys,
                                          util::Rng& rng, std::size_t k) {
  std::vector<SimScenario> scenarios(k);
  for (SimScenario& s : scenarios) {
    if (rng.flip(0.7)) {
      for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
        s.process_latency.push_back(rng.uniform_int(0, 12));
      }
      if (!s.process_latency.empty() && s.process_latency[0] == 0) {
        s.process_latency[0] = 1;
      }
    }
    if (rng.flip(0.7)) {
      for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
        s.channel_latency.push_back(rng.uniform_int(0, 6));
      }
    }
    if (rng.flip(0.7)) {
      for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
        s.channel_capacity.push_back(random_capacity(rng));
      }
    }
  }
  return scenarios;
}

TEST(CompiledSimDifferentialTest, BatchSweepsMatchLegacyPerScenario) {
  for (std::uint64_t shard = 0; shard < 8; ++shard) {
    const std::uint64_t seed = kBaseSeed ^ (0xba7c4 + shard);
    util::Rng rng(seed);
    const SysSpec spec = random_spec(rng);
    const sysmodel::SystemModel sys = spec.build();
    const std::vector<SimScenario> scenarios = random_scenarios(sys, rng, 12);
    const BatchOptions opts = quick_opts();

    CompiledSim compiled(sys);
    const std::vector<ScenarioResult> serial =
        simulate_batch(compiled, scenarios, opts);
    exec::ThreadPool pool(4);
    const std::vector<ScenarioResult> pooled =
        simulate_batch(compiled, scenarios, opts, &pool);
    ASSERT_EQ(serial.size(), scenarios.size());
    ASSERT_EQ(pooled.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const ScenarioResult oracle =
          run_legacy_kernel(sys, scenarios[i], opts);
      EXPECT_TRUE(results_bit_identical(oracle, serial[i]))
          << "serial scenario " << i << " diverged (seed 0x" << std::hex
          << seed << std::dec << ")\n"
          << describe(spec);
      EXPECT_TRUE(results_bit_identical(oracle, pooled[i]))
          << "pooled scenario " << i << " diverged (seed 0x" << std::hex
          << seed << std::dec << ")\n"
          << describe(spec);
      if (HasFailure()) return;
    }
  }
}

// ---- S3: sparse timelines exercise the overflow heap ------------------------

TEST(CompiledSimDifferentialTest, SparseTimelinesMatchLegacyKernel) {
  for (std::uint64_t shard = 0; shard < 10; ++shard) {
    const std::uint64_t seed = kBaseSeed ^ (0x5fa45e + shard);
    util::Rng rng(seed);
    SysSpec spec = random_spec(rng);
    // Blow several latencies far past the 65536-bucket wheel horizon so
    // events overflow into the binary heap and migrate back.
    for (SysSpec::Proc& p : spec.procs) {
      if (rng.flip(0.4)) p.latency = rng.uniform_int(100'000, 2'000'000);
    }
    for (SysSpec::Chan& c : spec.rings) {
      if (rng.flip(0.4)) c.latency = rng.uniform_int(100'000, 2'000'000);
    }
    auto agree = [](const SysSpec& s) {
      const sysmodel::SystemModel sys = s.build();
      BatchOptions opts;
      opts.target_transfers = 8;
      opts.max_cycles = 500'000'000;
      const ScenarioResult oracle = run_legacy_kernel(sys, {}, opts);
      CompiledSim compiled(sys);
      CompiledSim::Instance instance(compiled);
      return results_bit_identical(oracle, instance.run({}, opts));
    };
    if (!agree(spec)) {
      report_failure(spec, seed, agree,
                     "sparse-timeline run diverged from the legacy Kernel");
      return;
    }
  }
}

// ---- S4: instance reuse is a complete reset ---------------------------------

TEST(CompiledSimDifferentialTest, InstanceReuseMatchesFreshInstances) {
  const std::uint64_t seed = kBaseSeed ^ 0x4e05e;
  util::Rng rng(seed);
  const SysSpec spec = random_spec(rng);
  const sysmodel::SystemModel sys = spec.build();
  const std::vector<SimScenario> scenarios = random_scenarios(sys, rng, 10);
  const BatchOptions opts = quick_opts();

  CompiledSim compiled(sys);
  CompiledSim::Instance reused(compiled);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    CompiledSim::Instance fresh(compiled);
    const ScenarioResult a = reused.run(scenarios[i], opts);
    const ScenarioResult b = fresh.run(scenarios[i], opts);
    EXPECT_TRUE(results_bit_identical(a, b))
        << "instance reuse leaked state into scenario " << i << " (seed 0x"
        << std::hex << seed << std::dec << ")";
  }
}

// ---- S5: sim-measured throughput == Howard MCM on live graphs ---------------

TEST(CompiledSimDifferentialTest, MeasuredCycleTimeMatchesHowardOnLiveSoCs) {
  for (std::uint64_t shard = 0; shard < 6; ++shard) {
    synth::GeneratorConfig config;
    config.num_processes = 24;
    config.num_channels = 36;
    config.max_channel_latency = 16;
    config.max_process_latency = 16;
    config.seed = kBaseSeed + 977 * shard;
    const sysmodel::SystemModel sys = synth::generate_soc(config);
    const analysis::PerformanceReport report = analysis::analyze_system(sys);
    ASSERT_TRUE(report.live) << "generator must produce live systems";

    BatchOptions opts;
    opts.target_transfers = 400;
    CompiledSim compiled(sys);
    CompiledSim::Instance instance(compiled);
    const ScenarioResult run = instance.run({}, opts);
    ASSERT_FALSE(run.deadlocked);
    EXPECT_NEAR(run.measured_cycle_time, report.cycle_time, 1e-9)
        << "seed " << config.seed;
    // And the compiled run itself must still match the oracle.
    EXPECT_TRUE(
        results_bit_identical(run_legacy_kernel(sys, {}, opts), run))
        << "seed " << config.seed;
  }
}

// ---- S6: periodic extrapolation is exact ------------------------------------

// Long-horizon runs force the steady-state detector to engage (thousands of
// observations over a handful of periods); the jumped result must equal
// both the full compiled grind (detect_period off) and the legacy Kernel,
// bit for bit — counters, histograms, and the estimate_period doubles that
// hang off the replayed observation times.
TEST(CompiledSimDifferentialTest, PeriodExtrapolationIsExact) {
  for (std::uint64_t shard = 0; shard < 12; ++shard) {
    const std::uint64_t seed = kBaseSeed ^ (0x9e210d + shard);
    util::Rng rng(seed);
    const SysSpec spec = random_spec(rng);
    const sysmodel::SystemModel sys = spec.build();
    BatchOptions opts;
    opts.target_transfers = 5000;
    opts.max_cycles = 5'000'000;
    BatchOptions grind = opts;
    grind.detect_period = false;

    CompiledSim compiled(sys);
    CompiledSim::Instance instance(compiled);
    const ScenarioResult jumped = instance.run({}, opts);
    const ScenarioResult ground = instance.run({}, grind);
    EXPECT_TRUE(results_bit_identical(jumped, ground))
        << "period jump diverged from the full compiled run (seed 0x"
        << std::hex << seed << std::dec << ")\n"
        << describe(spec);
    EXPECT_TRUE(results_bit_identical(run_legacy_kernel(sys, {}, opts), jumped))
        << "period jump diverged from the legacy Kernel (seed 0x" << std::hex
        << seed << std::dec << ")\n"
        << describe(spec);
    if (HasFailure()) return;
  }
}

// A FIFO pipeline whose stage latencies double from a fast source to a
// slow sink. Each buffer that fills hands the source the rate of the next,
// slower stage, so the source's put waits roughly double from one phase to
// the next — about one new log2 bucket per stage — before the run settles
// into the sink-paced periodic orbit. The source channel's put histogram therefore
// spills during the transient, before the period jump; after the jump the
// run only replays waits the compared period already produced.
sysmodel::SystemModel doubling_pipeline(int stages, std::int64_t capacity,
                                        std::int64_t channel_latency) {
  sysmodel::SystemModel sys;
  for (int i = 0; i < stages; ++i) {
    sys.add_process(util::str_cat("s", i), std::int64_t{1} << i);
  }
  for (int i = 1; i < stages; ++i) {
    const sysmodel::ChannelId c =
        sys.add_channel(util::str_cat("c", i), i - 1, i, channel_latency);
    sys.set_channel_capacity(c, capacity);
  }
  return sys;
}

BatchOptions long_opts() {
  BatchOptions opts;
  opts.target_transfers = 5000;
  opts.max_cycles = 50'000'000;
  return opts;
}

TEST(CompiledSimDifferentialTest, SpilledHistogramsSurviveThePeriodJump) {
  for (int stages = 6; stages <= 8; ++stages) {
    for (std::int64_t capacity = 1; capacity <= 4; ++capacity) {
      for (std::int64_t latency = 0; latency <= 1; ++latency) {
        const sysmodel::SystemModel sys =
            doubling_pipeline(stages, capacity, latency);
        const BatchOptions opts = long_opts();
        BatchOptions grind = opts;
        grind.detect_period = false;

        CompiledSim compiled(sys);
        CompiledSim::Instance instance(compiled);
        const ScenarioResult jumped = instance.run({}, opts);
        ASSERT_FALSE(jumped.deadlocked);
        ASSERT_EQ(jumped.observed_count, opts.target_transfers);
        EXPECT_TRUE(jumped.channels.front().put_wait.spilled())
            << "stages " << stages << ", capacity " << capacity;
        EXPECT_TRUE(results_bit_identical(jumped, instance.run({}, grind)))
            << "stages " << stages << ", capacity " << capacity
            << ", channel latency " << latency;
        EXPECT_TRUE(
            results_bit_identical(run_legacy_kernel(sys, {}, opts), jumped))
            << "stages " << stages << ", capacity " << capacity
            << ", channel latency " << latency;
        if (HasFailure()) return;
      }
    }
  }
}

TEST(CompiledSimDifferentialTest, InstanceReuseAfterSpilledRun) {
  const sysmodel::SystemModel sys = doubling_pipeline(7, 2, 1);
  const BatchOptions spill_opts = long_opts();
  // Short runs of the same structure under other weights: a reused
  // Instance must not carry the spilled blocks (or their counts) into them.
  util::Rng rng(kBaseSeed ^ 0x2e05e);
  std::vector<SimScenario> scenarios = random_scenarios(sys, rng, 6);
  scenarios.insert(scenarios.begin(), SimScenario{});
  const BatchOptions opts = quick_opts();

  CompiledSim compiled(sys);
  CompiledSim::Instance reused(compiled);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult spilled = reused.run({}, spill_opts);
    ASSERT_TRUE(spilled.channels.front().put_wait.spilled());
    const ScenarioResult a = reused.run(scenarios[i], opts);
    CompiledSim::Instance fresh(compiled);
    EXPECT_TRUE(results_bit_identical(a, fresh.run(scenarios[i], opts)))
        << "spilled run leaked into scenario " << i;
    EXPECT_TRUE(results_bit_identical(
        a, run_legacy_kernel(sys, scenarios[i], opts)))
        << "scenario " << i << " after a spilled run diverged";
    EXPECT_TRUE(results_bit_identical(spilled, fresh.run({}, spill_opts)));
  }
}

// ---- W: compact wait histogram vs the dense accumulator ---------------------

// A value from log2 bucket `b` (bucket 0 holds every value <= 0).
std::int64_t value_in_bucket(util::Rng& rng, int b) {
  if (b == 0) return rng.uniform_int(-3, 0);
  const std::int64_t lo = std::int64_t{1} << (b - 1);
  return rng.uniform_int(lo, 2 * lo - 1);
}

// A random sequence drawn from `levels` distinct buckets.
std::vector<std::int64_t> random_waits(util::Rng& rng,
                                       const std::vector<int>& levels,
                                       std::size_t length) {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(value_in_bucket(rng, levels[rng.index(levels.size())]));
  }
  return out;
}

std::vector<int> random_levels(util::Rng& rng) {
  std::vector<int> levels;
  const auto k = static_cast<std::size_t>(rng.uniform_int(1, 8));
  while (levels.size() < k) {
    levels.push_back(static_cast<int>(rng.uniform_int(0, 40)));
  }
  return levels;
}

::testing::AssertionResult same_histogram(const WaitHistogram& compact,
                                          const obs::HistogramData& dense) {
  const obs::HistogramData got = compact.to_dense();
  if (got.count != dense.count || got.sum != dense.sum ||
      got.min != dense.min || got.max != dense.max ||
      got.buckets != dense.buckets) {
    return ::testing::AssertionFailure()
           << "to_dense() differs: count " << got.count << " vs "
           << dense.count << ", sum " << got.sum << " vs " << dense.sum;
  }
  int held = 0;
  for (int b = 0; b < obs::kHistogramBuckets; ++b) {
    const std::int64_t want = dense.buckets[static_cast<std::size_t>(b)];
    if (want != 0) ++held;
    if (compact.bucket(b) != want) {
      return ::testing::AssertionFailure() << "bucket " << b << " differs";
    }
  }
  if (compact.spilled() != (held > WaitHistogram::kInlineBuckets)) {
    return ::testing::AssertionFailure()
           << "representation is not canonical: " << held
           << " buckets, spilled=" << compact.spilled();
  }
  if (WaitHistogram::from_dense(dense) != compact) {
    return ::testing::AssertionFailure() << "from_dense() round trip differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(WaitHistogramTest, MatchesDenseObserveOnRandomSequences) {
  int spilled_runs = 0;
  for (std::uint64_t shard = 0; shard < 300; ++shard) {
    util::Rng rng(kBaseSeed ^ (0x4157 + shard));
    const std::vector<int> levels = random_levels(rng);
    const std::vector<std::int64_t> waits = random_waits(
        rng, levels, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    WaitHistogram compact;
    obs::HistogramData dense;
    ASSERT_TRUE(same_histogram(compact, dense));
    for (std::size_t i = 0; i < waits.size(); ++i) {
      compact.observe(waits[i]);
      dense.observe(waits[i]);
      ASSERT_TRUE(same_histogram(compact, dense))
          << "shard " << shard << " after observation " << i;
    }
    if (compact.spilled()) ++spilled_runs;
    compact.reset();
    ASSERT_TRUE(same_histogram(compact, obs::HistogramData{}));
  }
  EXPECT_GT(spilled_runs, 50) << "the corpus must exercise the spill path";
}

// Observing a prefix, then one period S, then jumping n periods must equal
// observing the prefix followed by n + 1 copies of S — whether the spill
// happens in the prefix, inside the period, or not at all.
TEST(WaitHistogramTest, AdvancePeriodsMatchesRepeatedObserve) {
  int inline_inline = 0, inline_spilled = 0, spilled_spilled = 0;
  for (std::uint64_t shard = 0; shard < 600; ++shard) {
    util::Rng rng(kBaseSeed ^ (0xad7a + shard));
    const std::vector<int> levels = random_levels(rng);
    const std::vector<std::int64_t> prefix = random_waits(
        rng, levels, static_cast<std::size_t>(rng.uniform_int(0, 12)));
    const std::vector<std::int64_t> period = random_waits(
        rng, levels, static_cast<std::size_t>(rng.uniform_int(1, 10)));
    const std::int64_t n = rng.uniform_int(1, 1000);

    WaitHistogram compact;
    obs::HistogramData dense;
    for (const std::int64_t w : prefix) {
      compact.observe(w);
      dense.observe(w);
    }
    const WaitHistogram start = compact;
    for (std::int64_t rep = 0; rep <= n; ++rep) {
      for (const std::int64_t w : period) dense.observe(w);
    }
    for (const std::int64_t w : period) compact.observe(w);
    if (start.spilled()) {
      ++spilled_spilled;
    } else if (compact.spilled()) {
      ++inline_spilled;
    } else {
      ++inline_inline;
    }
    compact.advance_periods(start, n);
    ASSERT_TRUE(same_histogram(compact, dense))
        << "shard " << shard << " (n = " << n << ")";
  }
  EXPECT_GT(inline_inline, 20);
  EXPECT_GT(inline_spilled, 20);
  EXPECT_GT(spilled_spilled, 20);
}

TEST(WaitHistogramTest, CopiesOwnTheirSpilledBlock) {
  WaitHistogram spilled;
  for (std::int64_t v = 0; v < 40; v += 3) spilled.observe(v);
  ASSERT_TRUE(spilled.spilled());
  WaitHistogram small;
  small.observe(5);

  WaitHistogram copy = spilled;
  EXPECT_TRUE(copy == spilled);
  copy.observe(1000);
  EXPECT_FALSE(copy == spilled);
  EXPECT_EQ(spilled.bucket(obs::bucket_index(1000)), 0);

  // Assignment in every direction: spilled over inline, inline over
  // spilled, spilled over spilled (the period-snapshot reuse path).
  WaitHistogram target = small;
  target = spilled;
  EXPECT_TRUE(target == spilled);
  target = small;
  EXPECT_TRUE(target == small);
  EXPECT_FALSE(target.spilled());
  target = spilled;
  target = copy;
  EXPECT_TRUE(target == copy);
  copy.observe(7);
  EXPECT_FALSE(target == copy);
}

// ---- calendar queue unit coverage -------------------------------------------

TEST(CalendarQueueTest, OrdersAcrossWheelAndOverflow) {
  CalendarQueue queue;
  queue.configure(/*max_latency=*/100, /*expected_events=*/8);
  // In-window, beyond-horizon (overflow), and same-instant events.
  queue.push(5, 42);
  queue.push(1'000'000, 7);   // overflow
  queue.push(5, 40);
  queue.push(70'000, 9);      // overflow (past the 65536-capped wheel)
  queue.push(130, 3);

  EXPECT_EQ(queue.size(), 5u);
  std::vector<std::uint32_t> out;
  ASSERT_EQ(queue.next_time(), 5);
  queue.pop_at(5, out);
  ASSERT_EQ(out.size(), 2u);  // both instant-5 events, unsorted
  EXPECT_TRUE((out[0] == 40 && out[1] == 42) || (out[0] == 42 && out[1] == 40));

  out.clear();
  ASSERT_EQ(queue.next_time(), 130);
  queue.pop_at(130, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 3u);

  // Pushing after a drain lands relative to the advanced window.
  queue.push(131, 11);
  out.clear();
  ASSERT_EQ(queue.next_time(), 131);
  queue.pop_at(131, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 11u);

  out.clear();
  ASSERT_EQ(queue.next_time(), 70'000);
  queue.pop_at(70'000, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 9u);

  out.clear();
  ASSERT_EQ(queue.next_time(), 1'000'000);
  queue.pop_at(1'000'000, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7u);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace ermes::sim
