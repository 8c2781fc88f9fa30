// Workload synth_flow: the Section 6 scalability path on generated SoCs.
//
// Closed loop, one caller. Set-up generates a few systems in the thousands
// of processes (synth::generate_soc + attach_pareto_sets), gives them a
// live channel ordering (Algorithm 1 plus the liveness repair, as
// bench_scalability does) and serializes them. The systems are the same for
// every seed: the work of a flow moves by several percent from one
// generated system to the next, which would make the seed, not the code,
// set the time. The seed shuffles the order of the systems in each round.
// One round runs, per system, the single-shot CLI path from text:
// io::parse_soc, analysis::build_tmg + analyze, ordering::
// with_optimal_ordering followed by ordering::ensure_live (Algorithm 1 can
// leave a token-free cycle on feedback loops), build_tmg + analyze again,
// then sim::CompiledSim compile and run. No ILP runs here.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/performance.h"
#include "analysis/tmg_builder.h"
#include "checks.h"
#include "io/soc_format.h"
#include "ordering/channel_ordering.h"
#include "ordering/repair.h"
#include "runner.h"
#include "sim/compiled.h"
#include "stats.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ermes;

constexpr std::int32_t kProcesses[] = {2000, 3000, 4000, 5000, 6000, 8000};
constexpr std::int64_t kSimItems = 1000;
constexpr int kSetupRepeats = 5;
constexpr int kRepairBudget = 2048;
constexpr std::uint64_t kSystemSeed = 1;  // see the top of the file

// What one flow computes; identical on every round for the same system.
struct FlowOutput {
  bool live_before = false;
  bool live_after = false;
  std::int64_t ct_num_before = 0, ct_den_before = 1;
  std::int64_t ct_num_after = 0, ct_den_after = 1;
  double ct_after = 0.0;
  double simulated_ct = -1.0;
  std::int64_t simulated_cycles = 0;

  bool operator==(const FlowOutput&) const = default;
};

struct Input {
  std::string name;
  std::string text;
  FlowOutput expected;
};

// Runs the flow on one system. `segment_ms`, when given, receives the
// duration of each stage: parse, analyze, order, re-analyze, compile, run.
// With `host`, the host's speed is sampled between stages, outside them.
FlowOutput run_flow(const std::string& text, std::int64_t op_id,
                    std::vector<double>* segment_ms = nullptr,
                    HostSpeed* host = nullptr) {
  std::int64_t mark = Tracer::now_ns();
  const auto end_stage = [&mark, segment_ms, host] {
    if (segment_ms != nullptr) {
      segment_ms->push_back(static_cast<double>(Tracer::now_ns() - mark) /
                            1e6);
    }
    if (host != nullptr) host->sample();
    mark = Tracer::now_ns();
  };
  Tracer::Scope op("synth_flow.system", op_id);
  FlowOutput out;
  io::ParseResult parsed;
  {
    Tracer::Scope span("io.parse_soc", op_id);
    parsed = io::parse_soc(text);
  }
  end_stage();
  if (!parsed.ok) return out;
  const auto analyze = [op_id](const sysmodel::SystemModel& sys) {
    analysis::SystemTmg stmg;
    {
      Tracer::Scope span("analysis.build_tmg", op_id);
      stmg = analysis::build_tmg(sys);
    }
    Tracer::Scope span("analysis.analyze", op_id);
    return analysis::analyze(stmg);
  };
  const analysis::PerformanceReport before = analyze(parsed.system);
  end_stage();
  out.live_before = before.live;
  out.ct_num_before = before.ct_num;
  out.ct_den_before = before.ct_den;

  sysmodel::SystemModel ordered;
  {
    Tracer::Scope span("ordering.with_optimal_ordering", op_id);
    ordered = ordering::with_optimal_ordering(std::move(parsed.system));
  }
  {
    Tracer::Scope span("ordering.ensure_live", op_id);
    ordering::ensure_live(ordered, kRepairBudget);
  }
  end_stage();
  const analysis::PerformanceReport after = analyze(ordered);
  end_stage();
  out.live_after = after.live;
  out.ct_num_after = after.ct_num;
  out.ct_den_after = after.ct_den;
  out.ct_after = after.cycle_time;

  std::optional<sim::CompiledSim> compiled;
  {
    Tracer::Scope span("sim.compile", op_id);
    compiled.emplace(ordered);
  }
  end_stage();
  {
    Tracer::Scope span("sim.run", op_id);
    sim::CompiledSim::Instance instance(*compiled);
    sim::BatchOptions opts;
    opts.target_transfers = kSimItems;
    const sim::ScenarioResult result = instance.run({}, opts);
    out.simulated_ct = result.deadlocked ? -1.0 : result.measured_cycle_time;
    out.simulated_cycles = result.cycles;
  }
  end_stage();
  return out;
}

bool set_up(std::vector<Input>& inputs, Report& report) {
  inputs.clear();
  for (std::size_t i = 0; i < std::size(kProcesses); ++i) {
    synth::GeneratorConfig config;
    config.num_processes = kProcesses[i];
    config.num_channels = kProcesses[i] + kProcesses[i] / 2;
    config.feedback_fraction = 0.1;
    config.seed = kSystemSeed * 1000 + i;
    sysmodel::SystemModel sys = synth::generate_soc(config);
    synth::attach_pareto_sets(sys, kSystemSeed * 1000 + 500 + i);
    sys = ordering::with_optimal_ordering(std::move(sys));
    ordering::ensure_live(sys, kRepairBudget);

    Input input;
    input.name = "synth_" + std::to_string(i);
    input.text = io::write_soc(sys, input.name);
    // Oracles: the text round-trips, and one untimed flow gives the values
    // every timed flow must reproduce.
    const io::ParseResult reparsed = io::parse_soc(input.text);
    report.check(reparsed.ok &&
                     io::write_soc(reparsed.system, input.name) == input.text,
                 input.name + ": write_soc(parse_soc(text)) does not "
                              "round-trip");
    input.expected = run_flow(input.text, 0);
    const FlowOutput& e = input.expected;
    report.check(e.live_before && e.live_after,
                 input.name + ": system is not live");
    report.check(e.simulated_ct == e.ct_after,
                 input.name + ": analytic CT " + format_value(e.ct_after) +
                     " != simulated CT " + format_value(e.simulated_ct));
    inputs.push_back(std::move(input));
  }
  return true;
}

struct Pass {
  ItemTimes untraced;  // per system
  ItemTimes traced;
  RoundWalls walls;
  std::int64_t flows = 0;
  std::int64_t mismatches = 0;
  std::int64_t traced_cycles = 0;  // simulated in traced rounds
  std::int64_t traced_bytes = 0;   // parsed in traced rounds
};

Pass run_pass(const std::vector<Input>& inputs, const Options& options,
              HostSpeed& host) {
  Pass pass;
  pass.untraced = pass.traced = ItemTimes(inputs.size());
  std::mt19937_64 rng(options.seed);
  std::vector<std::size_t> order(inputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::int64_t op_id = 0;
  pass.walls = run_rounds(options.seconds, options.trace, [&](bool traced) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) {
      const Input& input = inputs[i];
      std::vector<double> segment_ms;
      const std::size_t first = host.samples().size();
      if (!traced) host.sample();
      const FlowOutput out = run_flow(input.text, ++op_id, &segment_ms,
                                      traced ? nullptr : &host);
      (traced ? pass.traced : pass.untraced)
          .add(i, segment_ms, host.samples_since(first));
      ++pass.flows;
      pass.mismatches += out == input.expected ? 0 : 1;
      if (traced) {
        pass.traced_cycles += out.simulated_cycles;
        pass.traced_bytes += static_cast<std::int64_t>(input.text.size());
      }
    }
  });
  return pass;
}

}  // namespace

bool run_synth_flow(const Options& options, Report& report) {
  std::vector<Input> inputs;
  HostSpeed host;
  const double setup_s = timed_setup(kSetupRepeats, host, [&] {
    return set_up(inputs, report);
  });
  if (setup_s < 0.0) return false;
  reset_traces();
  const Pass pass = run_pass(inputs, options, host);

  report.check(pass.mismatches == 0,
               std::to_string(pass.mismatches) +
                   " flows differ from the set-up reference");
  report.attempted = pass.flows;
  report.failed =
      report.correct() ? 0 : std::max<std::int64_t>(1, pass.mismatches);

  std::size_t processes = 0, bytes = 0;
  for (const Input& input : inputs) bytes += input.text.size();
  for (const std::int32_t p : kProcesses) processes += p;
  char line[200];
  std::snprintf(line, sizeof line,
                "synth_flow: %zu systems, %zu processes, %.2f MB of model "
                "text",
                inputs.size(), processes, static_cast<double>(bytes) / 1e6);
  report.note(line);
  report.set_end_to_end("setup_s", setup_s, "s");
  report_closed_loop(report, pass.untraced, pass.walls);
  report_host_speed(report, host);
  report.set_end_to_end("peak_rss_mb", peak_rss_mb(), "MB");

  if (options.trace) {
    report_common_layers(report, sum(pass.walls.traced));
    const double parse_ms = Tracer::global().total_ms("io.parse_soc");
    report.set_layer("io.parse_mb_s",
                     parse_ms > 0.0 ? static_cast<double>(pass.traced_bytes) /
                                          1e6 / (parse_ms / 1e3)
                                    : 0.0,
                     "MB/s");
    report.set_layer("sim.simulated_cycles",
                     static_cast<double>(pass.traced_cycles), "count");
    report_trace_overhead(report, pass.untraced, pass.traced);
  }
  return true;
}

}  // namespace perfbench
