#pragma once
// The RatioGraph Howard solver that production replaced with the CSR solver
// (tmg::CycleMeanSolver, src/tmg/csr.h): a test-and-bench-only reference
// kept as an independent oracle for it. It walks a pointer-chasing Digraph
// and re-initializes all solver scratch per solve, shares no per-SCC code
// with the CSR solver, and pins the witness and the iteration count bit for
// bit (tests/test_differential.cpp D5-D10, test_solver_core,
// test_batch_solver); bench_solver_core and bench_cycle_mean time it as
// their cold baseline.
//
// Howard's policy iteration (Cochet-Terrasson et al. 1998) computes
//   lambda* = max over directed cycles c of W(c) / T(c)
// together with one critical cycle. A cycle with T(c) == 0 yields an
// infinite ratio. It shares the iteration cap (including the test
// override), the telemetry and the fold rule with the CSR solver, so the two
// stay bit-identical even when capped.

#include <vector>

#include "graph/digraph.h"
#include "tmg/cycle_ratio.h"

namespace ermes::tmg {

/// Whole-graph maximum cycle ratio: a global zero-token screen, then the
/// fold (fold_cycle_ratio) of the per-SCC solves in ascending component
/// index. Publishes the howard.* telemetry once per call.
CycleRatioResult max_cycle_ratio_howard(const RatioGraph& rg);

/// Maximum cycle ratio restricted to one strongly connected component of
/// `rg`: the members of component `comp_id` per `component` (as produced by
/// graph::strongly_connected_components on rg.g). Only arcs internal to the
/// component are considered. Zero-token cycles inside the component yield an
/// infinite ratio. Trivial components (a single node) take a closed-form
/// fast path: no self-loop means no cycle; self-loops are compared exactly,
/// first-wins on ties. `iterations`, when non-null, receives the number of
/// policy-improvement rounds (0 on the fast path). `capped`, when non-null,
/// receives true iff the iteration cap was exhausted before policy
/// iteration converged.
CycleRatioResult max_cycle_ratio_howard_scc(
    const RatioGraph& rg, const std::vector<std::int32_t>& component,
    std::int32_t comp_id, const std::vector<graph::NodeId>& members,
    int* iterations = nullptr, bool* capped = nullptr);

}  // namespace ermes::tmg
