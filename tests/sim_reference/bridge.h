#pragma once
// Bridges between SystemModels, the reference kernel and the compiled
// engine's result shapes — the test-side half of the bit-identity contract
// (src/sim/compiled.h).

#include <memory>
#include <vector>

#include "sim/compiled.h"
#include "sim/stall_report.h"
#include "sim_reference/kernel.h"
#include "sysmodel/system.h"

namespace ermes::sim {

/// The program a SystemModel process runs: sources put-then-compute, primed
/// processes emit their outputs before the first read, everyone else runs
/// gets / compute / puts — the shapes CompiledSim compiles.
Program program_for(const sysmodel::SystemModel& sys, sysmodel::ProcessId p);

/// Builds the reference kernel of a model (ids map 1:1), with optional
/// per-process behaviours (index = ProcessId; null entries are timing-only).
Kernel build_kernel(const sysmodel::SystemModel& sys,
                    std::vector<std::unique_ptr<Behavior>> behaviors = {});

/// The differential oracle: applies `scenario` to a copy of `sys`, runs the
/// reference kernel under the same observe channel and cycle limit a
/// CompiledSim run resolves, and snapshots the same ScenarioResult shape.
ScenarioResult run_legacy_kernel(const sysmodel::SystemModel& sys,
                                 const SimScenario& scenario,
                                 const BatchOptions& opts = {});

/// Snapshots the kernel's cumulative stall statistics. Call after run()
/// (which closes the open status intervals).
StallReport collect_stalls(const Kernel& kernel);

}  // namespace ermes::sim
