#pragma once
// Multiple-Choice Knapsack (MCKP): pick exactly one item per group,
// maximize total value subject to a weight capacity.
//
// Both ILP problems of Section 5 have this structure (groups = processes,
// items = Pareto implementations): area recovery maximizes cumulative area
// gain subject to the latency-slack budget on the critical cycle; timing
// optimization maximizes latency gain (optionally under an area budget —
// the "dual formulation" the paper mentions). ERMES solves them with a
// dedicated exact solver instead of a general ILP code:
//  * solve_mckp      — exact branch-and-bound on the MCKP structure;
//  * solve_mckp_dp   — exact dynamic program over integer weights, kept as
//                      an independent oracle for tests (its table spans the
//                      whole weight range, so it does not scale to latency
//                      capacities).
//
// solve_mckp reduces every group first: weights are shifted by the group's
// minimum, dominated items (weight >= and value <= another item's) are
// dropped, and a group left with one item — every group whose items share
// one weight, e.g. a process off the critical cycle — is decided without
// search. The remaining groups are searched depth first. Each node is
// bounded by the LP relaxation, solved greedily over the upper convex hull
// of each group's (weight, value) points: hull increments, sorted by slope
// once per solve, are taken in slope order until the capacity runs out,
// the last one fractionally (Sinha & Zoltners, Oper. Res. 1979; Dyer,
// Math. Prog. 1984; Zemel, Inf. Proc. Letters 1984; Pisinger's "minimal
// algorithm", EJOR 1995).
//
// Canonical optimum. Among all feasible choices solve_mckp returns the one
// with maximum value, then minimum weight, then the lexicographically
// smallest choice vector. The result is therefore a function of the problem
// alone, which the DSE memo's re-verification relies on. Totals are
// compared as computed in double precision; the rule is exact whenever the
// sums are (integer weights and values below 2^53 in total, or dyadic
// fractions).

#include <cstdint>
#include <vector>

namespace ermes::ilp {

struct MckpItem {
  double value = 0.0;
  double weight = 0.0;
};

struct MckpProblem {
  std::vector<std::vector<MckpItem>> groups;  // pick exactly one per group
  double capacity = 0.0;                      // sum of weights <= capacity
};

struct MckpSolution {
  bool feasible = false;
  double value = 0.0;
  double weight = 0.0;
  std::vector<std::size_t> choice;  // item index per group
};

/// Exact canonical optimum (see above). Infeasible when a group is empty or
/// the lightest items together exceed the capacity. Publishes the `ilp.solve`
/// span and the `ilp.solves` / `ilp.bnb_nodes` counters (search nodes).
MckpSolution solve_mckp(const MckpProblem& problem);

/// Value of the LP relaxation (each group's choice relaxed to a convex
/// combination of its items); an upper bound on solve_mckp's value.
/// -infinity when the problem is infeasible. Exposed for tests.
double mckp_lp_bound(const MckpProblem& problem);

/// Exact DP; requires integer weights (asserted). Negative weights are
/// handled by per-group shifting. O(sum(items) * weight-range). Returns the
/// maximum value at the minimum weight; ties between choice vectors are not
/// broken canonically.
MckpSolution solve_mckp_dp(const MckpProblem& problem);

/// DP core for non-negative integer weights; exposed for tests.
MckpSolution solve_mckp_dp_nonneg(const MckpProblem& problem);

}  // namespace ermes::ilp
