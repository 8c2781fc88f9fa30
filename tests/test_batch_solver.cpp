// Unit tests of CycleMeanSolver::solve_batch (tmg/csr.h): the empty-batch
// no-op, k=1 equivalence with solve(), byte-for-byte sharing between
// duplicate scenarios through the slice-replay memo, per-scenario cap_hit
// reporting when the Howard iteration cap exhausts mid-batch, the Stats
// accounting of a batch, and the lifetime-totals contract of Stats itself
// (the counters survive structure recompiles). The randomized bit-identity
// sweeps live in tests/test_differential.cpp (D8-D10); this file pins the
// deterministic corners.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"
#include "tmg/marked_graph.h"

namespace ermes::tmg {
namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

void expect_bit_identical(const CycleRatioResult& got,
                          const CycleRatioResult& want) {
  EXPECT_EQ(got.has_cycle, want.has_cycle);
  EXPECT_EQ(got.ratio_num, want.ratio_num);
  EXPECT_EQ(got.ratio_den, want.ratio_den);
  EXPECT_TRUE(bits_equal(got.ratio, want.ratio));
  EXPECT_EQ(got.critical_cycle, want.critical_cycle);
}

// ring + one heavy self-loop + a cross chord: two nontrivial co-existing
// cycles in one SCC, so policy iteration actually iterates.
RatioGraph sample_graph() {
  RatioGraph rg;
  rg.g.add_nodes(4);
  const auto arc = [&rg](graph::NodeId u, graph::NodeId v, std::int64_t w,
                         std::int64_t t) {
    rg.g.add_arc(u, v);
    rg.weight.push_back(w);
    rg.tokens.push_back(t);
  };
  arc(0, 1, 3, 1);
  arc(1, 2, 4, 0);
  arc(2, 3, 5, 1);
  arc(3, 0, 2, 0);
  arc(2, 2, 9, 1);   // heavy self-loop inside the SCC
  arc(1, 0, 1, 1);   // chord: short cycle 0->1->0
  return rg;
}

// Two disjoint 2-cycles: two Howard SCCs, so per-SCC accounting (solves vs
// replays) is visible in the k x C invariant.
RatioGraph two_component_graph() {
  RatioGraph rg;
  rg.g.add_nodes(4);
  const auto arc = [&rg](graph::NodeId u, graph::NodeId v, std::int64_t w,
                         std::int64_t t) {
    rg.g.add_arc(u, v);
    rg.weight.push_back(w);
    rg.tokens.push_back(t);
  };
  arc(0, 1, 3, 1);
  arc(1, 0, 2, 1);
  arc(1, 1, 7, 1);  // self-loop so SCC 0 has competing cycles
  arc(2, 3, 4, 1);
  arc(3, 2, 1, 1);
  return rg;
}

// Installs one scenario and runs the canonical solve — the serial reference
// solve_batch must be bit-identical to.
CycleRatioResult serial_solve(CycleMeanSolver& solver, const WeightVector& w) {
  for (std::size_t a = 0; a < w.size(); ++a) {
    solver.set_arc_weight(static_cast<graph::ArcId>(a), w[a]);
  }
  return solver.solve();
}

TEST(BatchSolver, EmptyBatchIsANoOp) {
  CycleMeanSolver solver;
  solver.prepare(sample_graph());
  const CycleRatioResult before = solver.solve();
  const CycleMeanSolver::Stats stats = solver.stats();

  solver.solve_batch(std::span<const WeightVector>());
  EXPECT_EQ(solver.stats().batch_solves, 0);
  EXPECT_EQ(solver.stats().batch_scenarios, 0);
  EXPECT_EQ(solver.stats().iterations, stats.iterations);
  EXPECT_EQ(solver.stats().solves, stats.solves);
  // The prepared weights are untouched; a re-solve still agrees.
  expect_bit_identical(solver.solve(), before);
}

TEST(BatchSolver, SingleScenarioEqualsSolve) {
  const RatioGraph rg = sample_graph();
  CycleMeanSolver batched;
  batched.prepare(rg);
  CycleMeanSolver serial;
  serial.prepare(rg);

  const WeightVector w = {5, 1, 8, 2, 4, 6};
  const std::vector<WeightVector> scenarios = {w};
  const std::vector<BatchSolveReport> reports = batched.solve_batch(scenarios);
  ASSERT_EQ(reports.size(), 1u);
  expect_bit_identical(reports[0].result, serial_solve(serial, w));
  EXPECT_FALSE(reports[0].reused);
  EXPECT_FALSE(reports[0].cap_hit);
  EXPECT_GT(reports[0].iterations, 0);

  // The batch leaves the scenario's weights installed, like the serial
  // install+solve pair: arc reads and a canonical re-solve agree.
  for (std::size_t a = 0; a < w.size(); ++a) {
    EXPECT_EQ(batched.csr().arc_weight(static_cast<graph::ArcId>(a)), w[a]);
  }
  expect_bit_identical(batched.solve(), serial.solve());
}

TEST(BatchSolver, DuplicateWeightVectorsShareResults) {
  CycleMeanSolver solver;
  solver.prepare(sample_graph());

  const WeightVector a = {5, 1, 8, 2, 4, 6};
  const WeightVector b = {1, 9, 2, 7, 3, 5};
  const std::vector<WeightVector> scenarios = {a, b, a, b, a};
  const std::vector<BatchSolveReport> reports = solver.solve_batch(scenarios);
  ASSERT_EQ(reports.size(), 5u);

  // Replays are byte-for-byte copies of the first occurrence: same double
  // bits, same rationals, same witness arcs, same charged iterations.
  for (const std::size_t dup : {2u, 4u}) {
    expect_bit_identical(reports[dup].result, reports[0].result);
    EXPECT_EQ(reports[dup].iterations, reports[0].iterations);
    EXPECT_EQ(reports[dup].cap_hit, reports[0].cap_hit);
    EXPECT_TRUE(reports[dup].reused);
  }
  expect_bit_identical(reports[3].result, reports[1].result);
  EXPECT_TRUE(reports[3].reused);
  EXPECT_FALSE(reports[0].reused);
  EXPECT_FALSE(reports[1].reused);

  // One SCC: 2 distinct slices solved, 3 replayed.
  EXPECT_EQ(solver.stats().batch_scc_solves, 2);
  EXPECT_EQ(solver.stats().batch_scc_reuses, 3);
}

TEST(BatchSolver, CapExhaustionMidBatchReportsPerScenario) {
  // 2-node ring + self-loop: the canonical initial policy is the ring, so a
  // heavy self-loop needs one improvement round — impossible under cap=1 —
  // while a light self-loop converges without improving.
  RatioGraph rg;
  rg.g.add_nodes(2);
  rg.g.add_arc(0, 1);
  rg.g.add_arc(1, 0);
  rg.g.add_arc(1, 1);
  rg.weight = {1, 1, 9};
  rg.tokens = {1, 1, 1};

  const WeightVector heavy = {1, 1, 9};  // self-loop 9 > ring 2/2: must improve
  const WeightVector light = {1, 1, 0};  // ring already optimal: converges
  const std::vector<WeightVector> scenarios = {heavy, light, heavy};

  set_howard_iteration_cap_for_testing(1);
  CycleMeanSolver batched;
  batched.prepare(rg);
  const std::vector<BatchSolveReport> reports = batched.solve_batch(scenarios);

  EXPECT_TRUE(reports[0].cap_hit);
  EXPECT_FALSE(reports[1].cap_hit);
  EXPECT_TRUE(reports[2].cap_hit);  // replayed caps re-report their cap
  EXPECT_TRUE(reports[2].reused);
  EXPECT_EQ(batched.stats().cap_hits, 2);  // replays charge like serial runs

  // Capped results are still bit-identical to the serial capped solves, and
  // the serial reference charges one cap hit per heavy run — the same count
  // the batch charged (its replayed third scenario re-charges the cap the
  // serial path would spend re-running it).
  CycleMeanSolver serial;
  serial.prepare(rg);
  for (std::size_t j = 0; j < scenarios.size(); ++j) {
    expect_bit_identical(reports[j].result, serial_solve(serial, scenarios[j]));
  }
  EXPECT_EQ(serial.stats().cap_hits, 2);
  set_howard_iteration_cap_for_testing(0);
}

TEST(BatchSolver, StatsCountersSumCorrectly) {
  CycleMeanSolver solver;
  solver.prepare(two_component_graph());

  const WeightVector w0 = {3, 2, 7, 4, 1};
  WeightVector w1 = w0;
  w1[3] = 9;  // perturbs only SCC {2,3}: SCC {0,1}'s slice replays
  WeightVector w2 = w0;
  w2[2] = 1;  // perturbs only SCC {0,1}
  const std::vector<WeightVector> scenarios = {w0, w1, w2, w0};
  const std::vector<BatchSolveReport> reports = solver.solve_batch(scenarios);

  const CycleMeanSolver::Stats& stats = solver.stats();
  EXPECT_EQ(stats.batch_solves, 1);
  EXPECT_EQ(stats.batch_scenarios, 4);
  // Every scenario visits every SCC (no zero-token witness, nothing
  // infinite), so solves + replays partition the k x C scenario-SCC grid.
  EXPECT_EQ(stats.batch_scc_solves + stats.batch_scc_reuses, 4 * 2);
  // Distinct slices actually solved: SCC0 under {w0, w2}, SCC1 under
  // {w0, w1}.
  EXPECT_EQ(stats.batch_scc_solves, 4);
  EXPECT_EQ(stats.batch_scc_reuses, 4);
  // The solver-wide iteration total is exactly the per-scenario charges.
  std::int64_t charged = 0;
  for (const BatchSolveReport& rep : reports) charged += rep.iterations;
  EXPECT_EQ(stats.iterations, charged);
  // solve_batch is not a solve(): the canonical-solve counter stays put.
  EXPECT_EQ(stats.solves, 0);
  // Scenario 3 repeats scenario 0 wholesale — the only fully-replayed one.
  EXPECT_FALSE(reports[0].reused);
  EXPECT_FALSE(reports[1].reused);
  EXPECT_FALSE(reports[2].reused);
  EXPECT_TRUE(reports[3].reused);
}

TEST(BatchSolver, StatsAreLifetimeTotals) {
  // Regression: Stats fields are lifetime totals. prepare() must never
  // reset them — not on a warm weight refresh, and not on a structure
  // recompile (a recompile invalidates the solve *plan*, not the traffic
  // history; callers wanting per-phase deltas snapshot and subtract).
  MarkedGraph g;
  g.add_transition("a", 3);
  g.add_transition("b", 2);
  g.add_place(0, 1, 1);
  g.add_place(1, 0, 1);

  CycleMeanSolver solver;
  solver.prepare(g);
  solver.solve();
  EXPECT_EQ(solver.stats().compiles, 1);
  EXPECT_EQ(solver.stats().solves, 1);
  const std::int64_t iters_after_first = solver.stats().iterations;
  EXPECT_GT(iters_after_first, 0);

  g.set_delay(0, 9);  // weight-only change: warm refresh, nothing reset
  EXPECT_TRUE(solver.prepare(g));
  EXPECT_EQ(solver.stats().weight_refreshes, 1);
  EXPECT_EQ(solver.stats().iterations, iters_after_first);
  solver.solve();

  g.add_transition("c", 4);  // structure change: recompile, nothing reset
  g.add_place(1, 2, 1);
  g.add_place(2, 1, 1);
  EXPECT_FALSE(solver.prepare(g));
  EXPECT_EQ(solver.stats().compiles, 2);
  EXPECT_EQ(solver.stats().solves, 2);
  EXPECT_GE(solver.stats().iterations, iters_after_first);
  EXPECT_EQ(solver.stats().weight_refreshes, 1);

  solver.solve();
  EXPECT_EQ(solver.stats().solves, 3);
  EXPECT_GT(solver.stats().iterations, iters_after_first);
}

TEST(BatchSolver, ZeroTokenWitnessAppliesToEveryScenario) {
  // A token-free cycle is structural: every scenario is infinite, only the
  // witness weight sum varies, and no per-SCC solves or replays run.
  RatioGraph rg;
  rg.g.add_nodes(2);
  rg.g.add_arc(0, 1);
  rg.g.add_arc(1, 0);
  rg.weight = {1, 2};
  rg.tokens = {0, 0};

  CycleMeanSolver batched;
  batched.prepare(rg);
  const std::vector<WeightVector> scenarios = {{1, 2}, {5, 6}};
  const std::vector<BatchSolveReport> reports = batched.solve_batch(scenarios);

  CycleMeanSolver serial;
  serial.prepare(rg);
  for (std::size_t j = 0; j < scenarios.size(); ++j) {
    ASSERT_TRUE(reports[j].result.is_infinite());
    EXPECT_FALSE(reports[j].reused);
    EXPECT_EQ(reports[j].iterations, 0);
    expect_bit_identical(reports[j].result, serial_solve(serial, scenarios[j]));
  }
  EXPECT_EQ(reports[0].result.ratio_num, 3);
  EXPECT_EQ(reports[1].result.ratio_num, 11);
  EXPECT_EQ(batched.stats().batch_scc_solves, 0);
  EXPECT_EQ(batched.stats().batch_scc_reuses, 0);
}

}  // namespace
}  // namespace ermes::tmg
