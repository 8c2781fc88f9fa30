#pragma once
// Independent oracles shared by the workloads.

#include <cstdint>
#include <string>

#include "analysis/performance.h"
#include "sysmodel/system.h"

namespace perfbench {

/// Cycle time of `sys` measured by the compiled simulator over `items`
/// observed transfers; negative when the simulation deadlocks.
double simulated_cycle_time(const ermes::sysmodel::SystemModel& sys,
                            std::int64_t items);

/// Empty when `report` is live and its cycle time equals the simulated one
/// exactly; otherwise what differs.
std::string check_against_simulation(
    const ermes::sysmodel::SystemModel& sys,
    const ermes::analysis::PerformanceReport& report, std::int64_t items);

/// Reads a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string* text);

}  // namespace perfbench
