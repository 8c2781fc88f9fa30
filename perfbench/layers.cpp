// Per-layer metrics shared by every workload: the benchmark's own spans
// around public calls, and the program's counters and spans for the layers
// only reachable inside dse::explore and the daemon.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

void add_split(Report& report, const char* source,
               const std::map<std::string, Tracer::Times>& times) {
  std::vector<std::pair<std::string, Tracer::Times>> rows(times.begin(),
                                                          times.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ms > b.second.total_ms;
  });
  for (const auto& [name, t] : rows) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "split %-9s %-34s n=%-7lld total %12.3f ms  self %12.3f ms",
                  source, name.c_str(), static_cast<long long>(t.count),
                  t.total_ms, t.self_ms);
    report.note(line);
  }
}

}  // namespace

void report_common_layers(Report& report, double window_s) {
  const Tracer& tracer = Tracer::global();
  const auto counter = [](const char* name) {
    return static_cast<double>(program_counter(name));
  };

  report.set_layer("io.parse_ms", tracer.total_ms("io.parse_soc"), "ms");
  report.set_layer("analysis.build_tmg_ms",
                   tracer.total_ms("analysis.build_tmg"), "ms");
  report.set_layer("analysis.analyze_ms", tracer.total_ms("analysis.analyze"),
                   "ms");
  report.set_layer("ordering.order_ms",
                   tracer.total_ms("ordering.with_optimal_ordering") +
                       tracer.total_ms("ordering.ensure_live"),
                   "ms");
  report.set_layer("sim.compile_ms", tracer.total_ms("sim.compile"), "ms");
  report.set_layer("sim.run_ms", tracer.total_ms("sim.run"), "ms");

  // Both cycle-mean solvers (legacy Howard and the CSR solver) publish
  // howard.* spans and counters. The CSR solver also mirrors the same
  // counts under tmg.solver.*, so those are not added again.
  report.set_layer("tmg.howard_ms",
                   program_span_ms("howard.solve") +
                       program_span_ms("howard.solve_batch"),
                   "ms");
  report.set_layer("tmg.howard_iterations", counter("howard.iterations"),
                   "count");
  report.set_layer("tmg.cap_hits", counter("howard.cap_hits"), "count");
  report.set_layer("ordering.labels_assigned",
                   counter("ordering.labels_assigned"), "count");

  report.set_layer("ilp.solve_ms", program_span_ms("ilp.solve"), "ms");
  report.set_layer("ilp.solves", counter("ilp.solves"), "count");
  report.set_layer("ilp.bnb_nodes", counter("ilp.bnb_nodes"), "count");
  report.set_layer("ilp.simplex_pivots", counter("ilp.simplex_pivots"),
                   "count");

  report.set_layer("dse.explore_ms", program_span_ms("dse.explore"), "ms");
  report.set_layer("dse.select_ms", program_span_ms("dse.select"), "ms");
  report.set_layer("dse.analyze_ms", program_span_ms("dse.analyze"), "ms");
  report.set_layer("dse.reorder_ms", program_span_ms("dse.reorder"), "ms");
  report.set_layer("dse.iterations", counter("dse.iterations"), "count");
  report.set_layer("dse.candidates_evaluated",
                   counter("dse.candidates_evaluated"), "count");

  // Whole-system partitioned analyses and incremental sessions both solve
  // per strongly connected component.
  const double solved =
      counter("comp.sccs_solved") + counter("comp.incremental.sccs_solved");
  const double reused =
      counter("comp.sccs_reused") + counter("comp.incremental.sccs_reused");
  report.set_layer("comp.sccs_solved", solved, "count");
  report.set_layer("comp.sccs_reused", reused, "count");
  report.set_layer("comp.reuse_ratio",
                   solved + reused > 0 ? reused / (solved + reused) : 0.0,
                   "ratio");

  report.set_layer("net.bytes_in", counter("net.bytes_in"), "bytes");
  report.set_layer("net.bytes_out", counter("net.bytes_out"), "bytes");
  report.set_layer("net.lines", counter("net.lines"), "count");

  char line[160];
  std::snprintf(line, sizeof line,
                "traced window %.3f s; benchmark spans %zu; program spans "
                "dropped %lld",
                window_s, tracer.spans().size(),
                static_cast<long long>(program_spans_dropped()));
  report.note(line);
  add_split(report, "bench", tracer.times_by_name());
  add_split(report, "program", program_span_times());
}

void report_closed_loop(Report& report, const ItemTimes& times,
                        const RoundWalls& walls) {
  const std::vector<double> items = times.item_ms();
  const double wall_s = times.wall_s();
  report.set_end_to_end("wall_s", wall_s, "s");
  report.set_end_to_end("latency_p50_ms", median(items), "ms");
  report.set_end_to_end(
      "throughput_rps", static_cast<double>(items.size()) / wall_s, "1/s");
  double raw_s = 0.0;
  for (const std::vector<double>& rounds : times.raw_total_ms) {
    raw_s += median(rounds) / 1e3;
  }
  char line[300];
  std::snprintf(line, sizeof line,
                "closed loop: %zu items x %zu rounds = %zu samples; wall "
                "%.4f s scaled, %.4f s as measured (median of each item); "
                "whole rounds median %.4f s, spread (q3 - q1) / median %.3f",
                items.size(), walls.untraced.size(), times.samples(), wall_s,
                raw_s, median(walls.untraced), iqr_share(walls.untraced));
  report.note(line);
  // serve_mix's dozens of steps are summarized per kind instead.
  for (std::size_t i = 0; i < items.size() && items.size() <= 8; ++i) {
    const std::vector<double>& raw = times.raw_total_ms[i];
    std::snprintf(line, sizeof line,
                  "  item %zu: n=%zu segments %zu; %.3f ms scaled, median "
                  "%.3f ms and fastest %.3f ms as measured",
                  i, raw.size(), times.ms[i].size(), items[i], median(raw),
                  *std::min_element(raw.begin(), raw.end()));
    report.note(line);
  }
}

void report_host_speed(Report& report, const HostSpeed& host) {
  const std::vector<double>& slowdowns = host.samples();
  if (slowdowns.empty()) return;
  char line[200];
  std::snprintf(line, sizeof line,
                "host speed: %zu reference samples; slowdown median %.4f, "
                "min %.4f, spread (q3 - q1) / median %.3f",
                slowdowns.size(), median(slowdowns),
                *std::min_element(slowdowns.begin(), slowdowns.end()),
                iqr_share(slowdowns));
  report.note(line);
}

void report_trace_overhead(Report& report, const ItemTimes& untraced,
                           const ItemTimes& traced) {
  const auto raw_ms = [](const ItemTimes& times) {
    double total = 0.0;
    for (const std::vector<double>& rounds : times.raw_total_ms) {
      total += median(rounds);
    }
    return total;
  };
  report.set_layer("obs.trace_overhead_pct",
                   (raw_ms(traced) / raw_ms(untraced) - 1.0) * 100.0, "%");
}

void report_cache_layers(Report& report, std::int64_t hits,
                         std::int64_t misses, std::int64_t evictions,
                         std::int64_t bytes) {
  const std::int64_t lookups = hits + misses;
  report.set_layer("cache.hits", static_cast<double>(hits), "count");
  report.set_layer("cache.misses", static_cast<double>(misses), "count");
  report.set_layer("cache.hit_ratio",
                   lookups > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(lookups)
                               : 0.0,
                   "ratio");
  report.set_layer("cache.evictions", static_cast<double>(evictions),
                   "count");
  report.set_layer("cache.bytes", static_cast<double>(bytes), "bytes");
}

}  // namespace perfbench
