// Workload mpeg2_dse: the paper's headline flow, `ermes dse` in-process.
//
// Closed loop, one caller. One round runs a cold dse::explore on
// examples/data/mpeg2_encoder.soc for each of a fixed set of target cycle
// times (tight ratios of the initial CT drive timing optimization, loose
// ones area recovery, as in Fig. 6): parse the model text, explore with a
// fresh EvalCache and jobs=1, render the CLI text. The seed only shuffles
// the order of the targets within each round, so every seed does the same
// work. ILP selection is nearly all of the time here.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "checks.h"
#include "dse/explorer.h"
#include "io/soc_format.h"
#include "runner.h"
#include "stats.h"
#include "svc/render.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ermes;

constexpr const char* kModelPath = "examples/data/mpeg2_encoder.soc";
// Fig. 6's timing-optimization target (2000/3597 of the initial CT) and
// looser area-recovery targets. Fig. 6's own area-recovery target
// (4000/3597) is left out: it costs more than all the others together, so
// a round would fit only half as often into a run.
constexpr double kTargetRatios[] = {2000.0 / 3597.0, 1.2, 1.3, 1.6, 2.0};
constexpr double kWarmUpRatio = 1.6;
constexpr std::int64_t kSimItems = 400;

struct Setup {
  std::string text;
  std::vector<std::int64_t> targets;
};

bool set_up(Setup& s, Report& report) {
  if (!read_file(kModelPath, &s.text)) {
    std::fprintf(stderr, "error: cannot read %s\n", kModelPath);
    return false;
  }
  const io::ParseResult parsed = io::parse_soc(s.text);
  if (!parsed.ok) {
    std::fprintf(stderr, "error: %s: %s\n", kModelPath, parsed.error.c_str());
    return false;
  }
  const analysis::PerformanceReport initial =
      analysis::analyze_system(parsed.system);
  const std::string sim = check_against_simulation(parsed.system, initial,
                                                   kSimItems);
  report.check(sim.empty(), "mpeg2 input: " + sim);
  s.targets.clear();
  for (const double ratio : kTargetRatios) {
    s.targets.push_back(
        static_cast<std::int64_t>(initial.cycle_time * ratio));
  }
  return true;
}

// One exploration that runs both area recovery and ILP selection pages in
// the code and sizes the allocator before anything is timed; not part of
// setup_s, which times reading and checking the input.
void warm_up(const Setup& s, Report& report) {
  const io::ParseResult parsed = io::parse_soc(s.text);
  dse::ExplorerOptions warm;
  warm.target_cycle_time = static_cast<std::int64_t>(
      analysis::analyze_system(parsed.system).cycle_time * kWarmUpRatio);
  report.check(dse::explore(parsed.system, warm).met_target,
               "warm-up exploration missed its target");
}

struct ExploreRun {
  std::int64_t target = 0;
  // Parse to the first iteration, each iteration, the last one to the
  // rendered text.
  std::vector<double> segment_ms;
  std::string text;  // the CLI's stdout
  dse::ExplorationResult result;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t cache_bytes = 0;
};

double ms_since(std::int64_t t0) {
  return static_cast<double>(Tracer::now_ns() - t0) / 1e6;
}

// One `ermes dse <model> <tct>`, minus process start-up. With `host`, the
// host's speed is sampled between iterations, outside the timed segments.
ExploreRun explore_once(const std::string& text, std::int64_t target,
                        std::int64_t op_id, HostSpeed* host) {
  std::int64_t segment_start = Tracer::now_ns();
  Tracer::Scope op("mpeg2_dse.explore", op_id);
  ExploreRun run;
  run.target = target;
  io::ParseResult parsed;
  {
    Tracer::Scope span("io.parse_soc", op_id);
    parsed = io::parse_soc(text);
  }
  analysis::EvalCache cache;  // what explore builds itself when given none
  dse::ExplorerOptions options;
  options.target_cycle_time = target;
  options.jobs = 1;
  options.cache = &cache;
  // Polled once before every iteration: ends a segment.
  options.should_stop = [&run, &segment_start, host] {
    run.segment_ms.push_back(ms_since(segment_start));
    if (host != nullptr) host->sample();
    segment_start = Tracer::now_ns();
    return false;
  };
  {
    Tracer::Scope span("dse.explore", op_id);
    run.result = dse::explore(std::move(parsed.system), options);
  }
  {
    Tracer::Scope span("svc.explore_text", op_id);
    run.text = svc::explore_text(run.result);
  }
  run.segment_ms.push_back(ms_since(segment_start));
  if (host != nullptr) host->sample();
  run.cache_hits = cache.hits();
  run.cache_misses = cache.misses();
  run.cache_evictions = cache.evictions();
  run.cache_bytes = cache.bytes();
  return run;
}

// Checks one exploration against oracles that do not use DSE: the reported
// final CT against a fresh simulation of the final system, the verdict
// against CT < TCT, the area against the selected implementations, and the
// selections against their Pareto sets.
void check_exploration(const ExploreRun& run, Report& report) {
  const std::string where = "tct " + std::to_string(run.target) + ": ";
  const dse::ExplorationResult& result = run.result;
  if (result.history.empty()) {
    report.check(false, where + "empty history");
    return;
  }
  const dse::IterationRecord& last = result.history.back();
  const sysmodel::SystemModel& sys = result.final_system;

  const double simulated = simulated_cycle_time(sys, kSimItems);
  report.check(simulated == last.cycle_time,
               where + "reported CT " + format_value(last.cycle_time) +
                   " != simulated CT " + format_value(simulated));
  report.check(
      result.met_target == (last.cycle_time < static_cast<double>(run.target)),
      where + "met_target disagrees with CT < TCT");

  double area = 0.0;
  bool selections_ok = true;
  for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (!sys.has_implementations(p)) {
      area += sys.area(p);
      continue;
    }
    const std::size_t selected = sys.selected_implementation(p);
    if (selected >= sys.implementations(p).size()) {
      selections_ok = false;
      continue;
    }
    const sysmodel::Implementation& impl =
        sys.implementations(p).at(selected);
    area += impl.area;
    selections_ok = selections_ok && impl.latency == sys.latency(p);
  }
  report.check(selections_ok,
               where + "a selection is outside its Pareto set or does not "
                       "match the process latency");
  report.check(std::fabs(area - last.area) <= 1e-9 * std::max(1.0, area),
               where + "reported area " + format_value(last.area) +
                   " != sum of selected areas " + format_value(area));
}

// Timings and cache counters of the untraced or of the traced rounds.
struct Side {
  ItemTimes explore_ms;  // per target
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t cache_bytes = 0;
};

struct Pass {
  Side untraced;
  Side traced;
  RoundWalls walls;
  std::vector<ExploreRun> first_round;  // kept for the oracles
  std::int64_t explores = 0;
  std::int64_t text_mismatches = 0;  // against the first round
  std::vector<double> setup_s;       // one per untraced round
};

Pass run_pass(const Setup& s, const Options& options, HostSpeed& host,
              Report& report) {
  Pass pass;
  const std::size_t n = s.targets.size();
  pass.untraced.explore_ms = pass.traced.explore_ms = ItemTimes(n);
  std::mt19937_64 rng(options.seed);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::int64_t op_id = 0;
  pass.walls = run_rounds(options.seconds, options.trace, [&](bool traced) {
    // Set-up takes about a millisecond, so back-to-back repeats all see the
    // same host state. One set-up per untraced round spreads the samples
    // over the whole window; the reference samples around it scale it.
    if (!traced) {
      Setup again;
      pass.setup_s.push_back(
          scaled_seconds(host, 3, [&] { set_up(again, report); }));
    }
    Side& side = traced ? pass.traced : pass.untraced;
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<ExploreRun> runs(n);
    for (const std::size_t i : order) {
      const std::size_t first = host.samples().size();
      if (!traced) host.sample();
      runs[i] = explore_once(s.text, s.targets[i], ++op_id,
                             traced ? nullptr : &host);
      side.explore_ms.add(i, runs[i].segment_ms, host.samples_since(first));
      side.cache_hits += runs[i].cache_hits;
      side.cache_misses += runs[i].cache_misses;
      side.cache_evictions += runs[i].cache_evictions;
      side.cache_bytes += runs[i].cache_bytes;
      ++pass.explores;
    }
    if (pass.first_round.empty()) {
      pass.first_round = std::move(runs);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      pass.text_mismatches += runs[i].text == pass.first_round[i].text ? 0 : 1;
    }
  });
  return pass;
}

}  // namespace

bool run_mpeg2_dse(const Options& options, Report& report) {
  Setup s;
  if (!set_up(s, report)) return false;
  warm_up(s, report);
  reset_traces();
  HostSpeed host;
  const Pass pass = run_pass(s, options, host, report);

  // Oracles, outside the timed region.
  double design_area = 0.0;
  int targets_met = 0;
  for (const ExploreRun& run : pass.first_round) {
    check_exploration(run, report);
    design_area += run.result.history.back().area;
    targets_met += run.result.met_target ? 1 : 0;
  }
  report.check(pass.text_mismatches == 0,
               std::to_string(pass.text_mismatches) +
                   " explores rendered different text than the first round");
  report.attempted = pass.explores;
  report.failed = report.correct()
                      ? 0
                      : std::max<std::int64_t>(1, pass.text_mismatches);

  char line[200];
  std::snprintf(line, sizeof line,
                "mpeg2_dse: %zu targets; design area %.6f mm2, %d/%zu "
                "targets met",
                s.targets.size(), design_area, targets_met, s.targets.size());
  report.note(line);

  report.set_end_to_end("setup_s", median(pass.setup_s), "s");
  report_closed_loop(report, pass.untraced.explore_ms, pass.walls);
  report_host_speed(report, host);
  report.set_end_to_end("peak_rss_mb", peak_rss_mb(), "MB");

  if (options.trace) {
    const Side& traced = pass.traced;
    report_common_layers(report, sum(pass.walls.traced));
    report_cache_layers(report, traced.cache_hits, traced.cache_misses,
                        traced.cache_evictions, traced.cache_bytes);
    report.set_layer("dse.design_area_mm2", design_area, "mm2");
    report.set_layer("dse.targets_met", targets_met, "count");
    report_trace_overhead(report, pass.untraced.explore_ms,
                          traced.explore_ms);
  }
  return true;
}

}  // namespace perfbench
