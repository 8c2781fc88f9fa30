#include "checks.h"

#include <fstream>
#include <sstream>

#include "sim/compiled.h"
#include "workloads.h"

namespace perfbench {

double simulated_cycle_time(const ermes::sysmodel::SystemModel& sys,
                            std::int64_t items) {
  const ermes::sim::CompiledSim compiled(sys);
  ermes::sim::CompiledSim::Instance instance(compiled);
  ermes::sim::BatchOptions opts;
  opts.target_transfers = items;
  const ermes::sim::ScenarioResult result = instance.run({}, opts);
  return result.deadlocked ? -1.0 : result.measured_cycle_time;
}

std::string check_against_simulation(
    const ermes::sysmodel::SystemModel& sys,
    const ermes::analysis::PerformanceReport& report, std::int64_t items) {
  if (!report.live) return "analysis reports a deadlock";
  const double simulated = simulated_cycle_time(sys, items);
  if (simulated < 0.0) return "simulation deadlocks";
  if (simulated != report.cycle_time) {
    return "analytic CT " + format_value(report.cycle_time) +
           " != simulated CT " + format_value(simulated);
  }
  return {};
}

bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *text = buf.str();
  return true;
}

}  // namespace perfbench
