// ermes_perfbench: the repository benchmark (see README.md).
//
//   ermes_perfbench --workload <mpeg2_dse|synth_flow|serve_mix> --seed <n>
//                   --seconds <s> --trace <0|1>
//
// Runs from the repository root (inputs are read from examples/data). Prints
// human-readable lines, then as its last stdout line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status 0 only when the run completed (correct or not); set-up errors
// exit 1 without a result line, usage errors 2.

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"latency_p50_ms", "ms"},  {"throughput_rps", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kLayers[] = {
    {"io.parse_ms", "ms"},
    {"io.parse_mb_s", "MB/s"},
    {"analysis.build_tmg_ms", "ms"},
    {"analysis.analyze_ms", "ms"},
    {"tmg.howard_ms", "ms"},
    {"tmg.howard_iterations", "count"},
    {"tmg.cap_hits", "count"},
    {"ordering.order_ms", "ms"},
    {"ordering.labels_assigned", "count"},
    {"ilp.solve_ms", "ms"},
    {"ilp.solves", "count"},
    {"ilp.bnb_nodes", "count"},
    {"ilp.simplex_pivots", "count"},
    {"dse.explore_ms", "ms"},
    {"dse.select_ms", "ms"},
    {"dse.analyze_ms", "ms"},
    {"dse.reorder_ms", "ms"},
    {"dse.iterations", "count"},
    {"dse.candidates_evaluated", "count"},
    {"dse.design_area_mm2", "mm2"},
    {"dse.targets_met", "count"},
    {"sim.compile_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.simulated_cycles", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.bytes", "bytes"},
    {"comp.sccs_solved", "count"},
    {"comp.sccs_reused", "count"},
    {"comp.reuse_ratio", "ratio"},
    {"svc.queue_wait_p99_ms", "ms"},
    {"svc.parse_p99_ms", "ms"},
    {"svc.solve_p99_ms", "ms"},
    {"svc.render_p99_ms", "ms"},
    {"svc.coalesced", "count"},
    {"svc.rejected", "count"},
    {"svc.analyze_p50_ms", "ms"},
    {"svc.explore_p99_ms", "ms"},
    {"svc.patch_p50_ms", "ms"},
    {"net.bytes_in", "bytes"},
    {"net.bytes_out", "bytes"},
    {"net.lines", "count"},
    {"serve.latency_p99_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: ermes_perfbench --workload <mpeg2_dse|synth_flow|"
               "serve_mix> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

const Metric* find(const std::vector<Metric>& list, const char* name) {
  for (const Metric& m : list) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures_;
  if (messages_.size() < 20) messages_.push_back(what);
}

void Report::set(std::vector<Metric>& list, const std::string& name,
                 double value, const std::string& unit) {
  for (Metric& m : list) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list.push_back({name, value, unit});
}

void Report::set_end_to_end(const std::string& name, double value,
                            const std::string& unit) {
  set(end_to_end_, name, value, unit);
}

void Report::set_layer(const std::string& name, double value,
                       const std::string& unit) {
  set(layers_, name, value, unit);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string format_value(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse_args(argc, argv, options)) return usage();

  Report report;
  bool ok = false;
  try {
    if (options.workload == "mpeg2_dse") {
      ok = run_mpeg2_dse(options, report);
    } else if (options.workload == "synth_flow") {
      ok = run_synth_flow(options, report);
    } else if (options.workload == "serve_mix") {
      ok = run_serve_mix(options, report);
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   options.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!ok) return 1;

  std::vector<Metric> out;
  if (options.trace) {
    for (const MetricSpec& spec : kLayers) {
      const Metric* m = find(report.layers(), spec.name);
      out.push_back({spec.name, m != nullptr ? m->value : 0.0, spec.unit});
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = find(report.end_to_end(), spec.name);
      if (m == nullptr) {
        std::fprintf(stderr, "error: workload did not report %s\n",
                     spec.name);
        return 1;
      }
      out.push_back({spec.name, m->value, spec.unit});
    }
  }
  for (Metric& m : out) {
    if (!std::isfinite(m.value)) {
      report.check(false, m.name + " is not finite");
      m.value = 0.0;
    }
  }

  for (const std::string& line : report.notes()) {
    std::printf("%s\n", line.c_str());
  }
  for (const Metric& m : out) {
    std::printf("%-28s %16s %s\n", m.name.c_str(),
                format_value(m.value).c_str(), m.unit.c_str());
  }
  std::printf("attempted %lld, failed %lld, correct %s\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.correct() ? "yes" : "no");
  for (const std::string& what : report.failures()) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " +
            format_value(out[i].value) + ", \"unit\": \"" + out[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
