// Tests for the ILP layer: the multiple-choice knapsack solver behind both
// DSE selection problems, checked against three independent oracles
// (canonical exhaustive enumeration, the integer-weight DP, and the general
// simplex + 0/1 branch-and-bound kept under tests/ilp_reference), plus the
// reference LP/ILP stack's own unit tests.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ilp/mckp.h"
#include "ilp_reference/branch_and_bound.h"
#include "ilp_reference/model.h"
#include "ilp_reference/simplex.h"
#include "util/rng.h"

namespace ermes::ilp {
namespace {

// ---- model -----------------------------------------------------------------

TEST(ModelTest, NormalizeMergesAndDropsZeros) {
  const LinearExpr expr = normalize({{1, 2.0}, {0, 1.0}, {1, 3.0}, {2, 0.0}});
  ASSERT_EQ(expr.size(), 2u);
  EXPECT_EQ(expr[0].var, 0);
  EXPECT_DOUBLE_EQ(expr[1].coeff, 5.0);
}

TEST(ModelTest, ObjectiveValue) {
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.set_objective({{x, 2.0}, {y, -1.0}}, true);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
}

TEST(ModelTest, FeasibilityCheck) {
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint({{x, 1.0}}, Sense::kLe, 0.5, "cap");
  EXPECT_TRUE(m.is_feasible({0.0}));
  EXPECT_FALSE(m.is_feasible({1.0}));   // violates cap
  EXPECT_FALSE(m.is_feasible({0.5}));   // violates integrality
}

// ---- simplex ----------------------------------------------------------------

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), obj 12.
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0);
  m.add_constraint({{x, 1.0}, {y, 3.0}}, Sense::kLe, 6.0);
  m.set_objective({{x, 3.0}, {y, 2.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 12.0, 1e-7);
  EXPECT_NEAR(sol.values[0], 4.0, 1e-7);
}

TEST(SimplexTest, Minimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> intersection (1.6, 1.2).
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.add_constraint({{x, 1.0}, {y, 2.0}}, Sense::kGe, 4.0);
  m.add_constraint({{x, 3.0}, {y, 1.0}}, Sense::kGe, 6.0);
  m.set_objective({{x, 1.0}, {y, 1.0}}, false);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.8, 1e-7);
}

TEST(SimplexTest, EqualityConstraint) {
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 5.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 5.0, 1e-7);
  EXPECT_NEAR(sol.values[1], 0.0, 1e-7);
}

TEST(SimplexTest, InfeasibleDetected) {
  Model m;
  const VarId x = m.add_continuous("x", 0.0, 10.0);
  m.add_constraint({{x, 1.0}}, Sense::kGe, 20.0);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  Model m;
  const VarId x = m.add_continuous("x");
  m.set_objective({{x, 1.0}}, true);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, VariableBoundsRespected) {
  Model m;
  const VarId x = m.add_continuous("x", 1.0, 3.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 3.0, 1e-7);
}

TEST(SimplexTest, LowerBoundShiftCorrect) {
  // min x with lo = -5: answer -5 (negative bounds shift correctly).
  Model m;
  const VarId x = m.add_continuous("x", -5.0, 5.0);
  m.set_objective({{x, 1.0}}, false);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], -5.0, 1e-7);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // x - y <= -1 with max x, x,y in [0,10] -> x = 9 when y = 10.
  Model m;
  const VarId x = m.add_continuous("x", 0.0, 10.0);
  const VarId y = m.add_continuous("y", 0.0, 10.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kLe, -1.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 9.0, 1e-7);
}

TEST(SimplexTest, BoundOverridesApplied) {
  Model m;
  const VarId x = m.add_continuous("x", 0.0, 10.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_lp(m, {0.0}, {2.5});
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 2.5, 1e-7);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex (degeneracy);
  // Bland's rule must avoid cycling.
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::kLe, 2.0);
  m.add_constraint({{x, 1.0}}, Sense::kLe, 1.0);
  m.set_objective({{x, 1.0}, {y, 1.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.0, 1e-7);
}

// ---- branch and bound --------------------------------------------------------

TEST(BnbTest, IntegerKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) -> a + b = 16.
  Model m;
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::kLe, 2.0);
  m.set_objective({{a, 10.0}, {b, 6.0}, {c, 4.0}}, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 16.0, 1e-7);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-7);
  EXPECT_NEAR(sol.values[1], 1.0, 1e-7);
}

TEST(BnbTest, FractionalLpForcedIntegral) {
  // LP relaxation of: max x + y, x + y <= 1.5 (binaries) is 1.5; ILP = 1.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.5);
  m.set_objective({{x, 1.0}, {y, 1.0}}, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.0, 1e-7);
}

TEST(BnbTest, InfeasibleIlp) {
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint({{x, 1.0}}, Sense::kGe, 2.0);
  EXPECT_EQ(solve_ilp(m).status, SolveStatus::kInfeasible);
}

TEST(BnbTest, GeneralIntegerVariable) {
  // max x s.t. 2x <= 7, x integer in [0, 10] -> 3.
  Model m;
  const VarId x = m.add_integer("x", 0, 10);
  m.add_constraint({{x, 2.0}}, Sense::kLe, 7.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 3.0, 1e-7);
}

TEST(BnbTest, MixedIntegerContinuous) {
  // max 2x + y, x binary, y <= 1.5 continuous, x + y <= 2 -> x=1, y=1.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_continuous("y", 0.0, 1.5);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 2.0);
  m.set_objective({{x, 2.0}, {y, 1.0}}, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 3.0, 1e-7);
}

TEST(BnbTest, MinimizationDirection) {
  // min x + y s.t. x + y >= 1, binaries -> 1.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 1.0);
  m.set_objective({{x, 1.0}, {y, 1.0}}, false);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.0, 1e-7);
}

TEST(BnbTest, SolutionIsFeasible) {
  Model m;
  std::vector<VarId> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(m.add_binary("x"));
  LinearExpr cap;
  LinearExpr obj;
  const double w[] = {3, 5, 7, 2, 4, 6};
  const double v[] = {4, 6, 9, 2, 5, 7};
  for (int i = 0; i < 6; ++i) {
    cap.push_back({vars[static_cast<std::size_t>(i)], w[i]});
    obj.push_back({vars[static_cast<std::size_t>(i)], v[i]});
  }
  m.add_constraint(cap, Sense::kLe, 12.0);
  m.set_objective(obj, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_TRUE(m.is_feasible(sol.values));
  EXPECT_NEAR(sol.objective, 15.0, 1e-7);  // {5,7} w=12 v=15
}

// ---- MCKP ---------------------------------------------------------------------

MckpProblem small_mckp() {
  MckpProblem problem;
  problem.groups = {
      {{5.0, 3.0}, {8.0, 6.0}},            // group 0
      {{4.0, 2.0}, {9.0, 7.0}, {1.0, 1.0}}  // group 1
  };
  problem.capacity = 8.0;
  return problem;
}

TEST(MckpTest, IlpSolvesSmallInstance) {
  const MckpSolution sol = solve_mckp(small_mckp());
  ASSERT_TRUE(sol.feasible);
  // Best: group0 item0 (5,3) + group1 item1? 3+7=10 > 8. So (5,3)+(4,2)=9/5
  // or (8,6)+(4,2)=12 w 8 <= 8 -> value 12.
  EXPECT_NEAR(sol.value, 12.0, 1e-9);
  EXPECT_EQ(sol.choice[0], 1u);
  EXPECT_EQ(sol.choice[1], 0u);
}

TEST(MckpTest, DpMatchesIlp) {
  const MckpSolution ilp = solve_mckp(small_mckp());
  const MckpSolution dp = solve_mckp_dp(small_mckp());
  ASSERT_TRUE(dp.feasible);
  EXPECT_NEAR(dp.value, ilp.value, 1e-9);
}

TEST(MckpTest, InfeasibleWhenCapacityTooSmall) {
  MckpProblem problem;
  problem.groups = {{{1.0, 5.0}}};
  problem.capacity = 3.0;
  EXPECT_FALSE(solve_mckp(problem).feasible);
  EXPECT_FALSE(solve_mckp_dp(problem).feasible);
}

TEST(MckpTest, NegativeWeightsHandled) {
  // Choosing a negative-weight item frees budget for another group.
  MckpProblem problem;
  problem.groups = {
      {{0.0, 0.0}, {3.0, -4.0}},  // item 1 frees 4 units
      {{0.0, 0.0}, {5.0, 4.0}},
  };
  problem.capacity = 0.0;
  const MckpSolution ilp = solve_mckp(problem);
  const MckpSolution dp = solve_mckp_dp(problem);
  ASSERT_TRUE(ilp.feasible);
  ASSERT_TRUE(dp.feasible);
  EXPECT_NEAR(ilp.value, 8.0, 1e-9);
  EXPECT_NEAR(dp.value, 8.0, 1e-9);
}

TEST(MckpTest, RandomInstancesIlpEqualsDp) {
  util::Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    MckpProblem problem;
    const auto groups = rng.uniform_int(1, 5);
    for (std::int64_t g = 0; g < groups; ++g) {
      std::vector<MckpItem> group;
      const auto items = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < items; ++i) {
        group.push_back(MckpItem{
            static_cast<double>(rng.uniform_int(0, 20)),
            static_cast<double>(rng.uniform_int(-5, 10))});
      }
      problem.groups.push_back(std::move(group));
    }
    problem.capacity = static_cast<double>(rng.uniform_int(-3, 25));
    const MckpSolution ilp = solve_mckp(problem);
    const MckpSolution dp = solve_mckp_dp(problem);
    ASSERT_EQ(ilp.feasible, dp.feasible) << "trial " << trial;
    if (ilp.feasible) {
      EXPECT_NEAR(ilp.value, dp.value, 1e-6) << "trial " << trial;
      EXPECT_LE(ilp.weight, problem.capacity + 1e-9);
    }
  }
}

TEST(MckpTest, ChoiceIndicesConsistentWithTotals) {
  const MckpSolution sol = solve_mckp(small_mckp());
  const MckpProblem problem = small_mckp();
  double value = 0.0, weight = 0.0;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    value += problem.groups[g][sol.choice[g]].value;
    weight += problem.groups[g][sol.choice[g]].weight;
  }
  EXPECT_NEAR(value, sol.value, 1e-9);
  EXPECT_NEAR(weight, sol.weight, 1e-9);
}

// ---- randomized cross-validation -----------------------------------------------

// Exhaustive 0/1 enumeration oracle for small random ILPs.
double brute_force_best(const Model& m) {
  const int n = m.num_vars();
  double best = -std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      x[static_cast<std::size_t>(v)] = (mask >> v) & 1;
    }
    if (!m.is_feasible(x)) continue;
    const double value = m.objective_value(x);
    const double signed_value = m.maximize() ? value : -value;
    if (signed_value > best) best = signed_value;
  }
  return m.maximize() ? best : -best;
}

TEST(BnbPropertyTest, MatchesExhaustiveOnRandomBinaryIlps) {
  util::Rng rng(71);
  int solved = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Model m;
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    std::vector<VarId> vars;
    for (int v = 0; v < n; ++v) vars.push_back(m.add_binary("x"));
    const int rows = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < rows; ++r) {
      LinearExpr expr;
      for (VarId v : vars) {
        const double coeff = static_cast<double>(rng.uniform_int(-4, 6));
        if (coeff != 0.0) expr.push_back({v, coeff});
      }
      const Sense sense = rng.flip() ? Sense::kLe : Sense::kGe;
      m.add_constraint(std::move(expr), sense,
                       static_cast<double>(rng.uniform_int(-3, 12)));
    }
    LinearExpr objective;
    for (VarId v : vars) {
      objective.push_back({v, static_cast<double>(rng.uniform_int(-5, 9))});
    }
    m.set_objective(std::move(objective), rng.flip());

    const Solution sol = solve_ilp(m);
    const double oracle = brute_force_best(m);
    const bool oracle_feasible = std::isfinite(oracle);
    ASSERT_EQ(sol.optimal(), oracle_feasible) << "trial " << trial;
    if (sol.optimal()) {
      EXPECT_NEAR(sol.objective, oracle, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.is_feasible(sol.values)) << "trial " << trial;
      ++solved;
    }
  }
  EXPECT_GT(solved, 10);  // the corpus must contain real instances
}

TEST(SimplexPropertyTest, RelaxationBoundsTheIlp) {
  util::Rng rng(73);
  for (int trial = 0; trial < 20; ++trial) {
    Model m;
    const int n = static_cast<int>(rng.uniform_int(2, 8));
    LinearExpr cap, objective;
    for (int v = 0; v < n; ++v) {
      const VarId var = m.add_binary("x");
      cap.push_back({var, static_cast<double>(rng.uniform_int(1, 9))});
      objective.push_back({var, static_cast<double>(rng.uniform_int(1, 9))});
    }
    m.add_constraint(std::move(cap), Sense::kLe,
                     static_cast<double>(rng.uniform_int(3, 25)));
    m.set_objective(std::move(objective), true);
    const Solution lp = solve_lp(m);
    const Solution ilp = solve_ilp(m);
    ASSERT_TRUE(lp.optimal());
    ASSERT_TRUE(ilp.optimal());
    EXPECT_GE(lp.objective + 1e-7, ilp.objective) << "trial " << trial;
  }
}

// ---- MCKP differential tests ------------------------------------------------

// The canonical optimum by enumeration: maximum value, then minimum weight,
// then the lexicographically smallest choice vector. Totals are summed in
// group order, as solve_mckp reports them.
MckpSolution exhaustive_mckp(const MckpProblem& problem) {
  MckpSolution best;
  for (const auto& group : problem.groups) {
    if (group.empty()) return best;
  }
  std::vector<std::size_t> choice(problem.groups.size(), 0);
  while (true) {
    double value = 0.0, weight = 0.0;
    for (std::size_t g = 0; g < choice.size(); ++g) {
      value += problem.groups[g][choice[g]].value;
      weight += problem.groups[g][choice[g]].weight;
    }
    if (weight <= problem.capacity &&
        (!best.feasible || value > best.value ||
         (value == best.value &&
          (weight < best.weight ||
           (weight == best.weight && choice < best.choice))))) {
      best = MckpSolution{true, value, weight, choice};
    }
    std::size_t g = choice.size();
    while (g > 0 && ++choice[g - 1] == problem.groups[g - 1].size()) {
      choice[--g] = 0;
    }
    if (g == 0) return best;
  }
}

// The MCKP as a general 0/1 ILP on the reference simplex + branch-and-bound.
Solution solve_as_ilp(const MckpProblem& problem) {
  Model model;
  LinearExpr objective, weight_row;
  for (const auto& group : problem.groups) {
    LinearExpr one_of;
    for (const MckpItem& item : group) {
      const VarId v = model.add_binary("x");
      objective.push_back({v, item.value});
      weight_row.push_back({v, item.weight});
      one_of.push_back({v, 1.0});
    }
    model.add_constraint(std::move(one_of), Sense::kEq, 1.0);
  }
  model.add_constraint(std::move(weight_row), Sense::kLe, problem.capacity);
  model.set_objective(std::move(objective), /*maximize=*/true);
  return solve_ilp(model);
}

// Instance families. Every total the solver and the oracles compare is
// exact in double precision (integers, or multiples of 2^-10), so the
// canonical tie rule is checked with ==.
enum class Family {
  kSmallInt,       // small integer weights and values, many ties
  kNegative,       // mostly negative weights: choices free capacity
  kAreaValues,     // real-valued (dyadic) values, integer weights
  kDuplicates,     // groups repeat items verbatim
  kEqualWeights,   // some groups have one weight for all items
  kHugeWeights,    // integer weights up to +-1e12, the parser's range
  kAreaWeights,    // real-valued (dyadic) weights, as in the dual explorer
};
constexpr Family kFamilies[] = {
    Family::kSmallInt,     Family::kNegative,    Family::kAreaValues,
    Family::kDuplicates,   Family::kEqualWeights, Family::kHugeWeights,
    Family::kAreaWeights,
};

bool has_integer_weights(Family family) {
  return family != Family::kAreaWeights;
}

MckpProblem random_mckp(util::Rng& rng, Family family, int max_groups = 6,
                        int max_items = 5) {
  MckpProblem problem;
  const auto groups = rng.uniform_int(1, max_groups);
  double min_sum = 0.0, max_sum = 0.0;
  for (std::int64_t g = 0; g < groups; ++g) {
    std::vector<MckpItem> group;
    const auto items = rng.uniform_int(1, max_items);
    const bool one_weight = family == Family::kEqualWeights && rng.flip();
    for (std::int64_t i = 0; i < items; ++i) {
      if (family == Family::kDuplicates && i > 0 && rng.flip(0.4)) {
        group.push_back(group[rng.index(group.size())]);
        continue;
      }
      MckpItem item;
      switch (family) {
        case Family::kNegative:
          item.weight = static_cast<double>(rng.uniform_int(-20, 5));
          item.value = static_cast<double>(rng.uniform_int(-5, 20));
          break;
        case Family::kAreaValues:
          item.weight = static_cast<double>(rng.uniform_int(-8, 16));
          item.value = static_cast<double>(rng.uniform_int(0, 4096)) / 1024.0;
          break;
        case Family::kHugeWeights:
          item.weight = static_cast<double>(
              rng.uniform_int(-1'000'000'000'000, 1'000'000'000'000));
          item.value = static_cast<double>(rng.uniform_int(0, 50));
          break;
        case Family::kAreaWeights:
          item.weight = -static_cast<double>(rng.uniform_int(0, 512)) / 256.0;
          item.value = static_cast<double>(rng.uniform_int(0, 12));
          break;
        default:
          item.weight = static_cast<double>(rng.uniform_int(-5, 10));
          item.value = static_cast<double>(rng.uniform_int(0, 8));
          break;
      }
      if (one_weight && i > 0) item.weight = group.front().weight;
      group.push_back(item);
    }
    double lo = group.front().weight, hi = lo;
    for (const MckpItem& item : group) {
      lo = std::min(lo, item.weight);
      hi = std::max(hi, item.weight);
    }
    min_sum += lo;
    max_sum += hi;
    problem.groups.push_back(std::move(group));
  }
  // From a little below the lightest choice (infeasible) to the heaviest
  // (unconstrained), on the family's grid.
  const double span = max_sum - min_sum;
  const double unit = has_integer_weights(family) ? 1.0 : 1.0 / 256.0;
  const double steps = std::floor((span * 1.125 + unit) / unit);
  problem.capacity =
      min_sum - std::floor(span / 8.0 / unit) * unit +
      static_cast<double>(rng.uniform_int(0, static_cast<std::int64_t>(steps))) *
          unit;
  return problem;
}

TEST(MckpPropertyTest, MatchesCanonicalExhaustiveOracle) {
  util::Rng rng(1201);
  int feasible = 0, infeasible = 0;
  for (const Family family : kFamilies) {
    for (int trial = 0; trial < 1000; ++trial) {
      const MckpProblem problem = random_mckp(rng, family);
      const MckpSolution got = solve_mckp(problem);
      const MckpSolution want = exhaustive_mckp(problem);
      SCOPED_TRACE("family " + std::to_string(static_cast<int>(family)) +
                   " trial " + std::to_string(trial));
      ASSERT_EQ(got.feasible, want.feasible);
      if (!want.feasible) {
        ++infeasible;
        continue;
      }
      ++feasible;
      EXPECT_EQ(got.choice, want.choice);
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.weight, want.weight);
    }
  }
  // The corpus must exercise both outcomes.
  EXPECT_GT(feasible, 4000);
  EXPECT_GT(infeasible, 200);
}

TEST(MckpPropertyTest, MatchesDpOnIntegerWeights) {
  util::Rng rng(1202);
  for (const Family family : kFamilies) {
    // The DP table spans the weight range: keep it small.
    if (!has_integer_weights(family) || family == Family::kHugeWeights) {
      continue;
    }
    for (int trial = 0; trial < 200; ++trial) {
      const MckpProblem problem = random_mckp(rng, family, 8, 6);
      const MckpSolution got = solve_mckp(problem);
      const MckpSolution dp = solve_mckp_dp(problem);
      SCOPED_TRACE("family " + std::to_string(static_cast<int>(family)) +
                   " trial " + std::to_string(trial));
      ASSERT_EQ(got.feasible, dp.feasible);
      if (!dp.feasible) continue;
      EXPECT_EQ(got.value, dp.value);
      EXPECT_EQ(got.weight, dp.weight);
    }
  }
}

TEST(MckpPropertyTest, MatchesReferenceIlpValue) {
  util::Rng rng(1203);
  for (const Family family : kFamilies) {
    if (family == Family::kHugeWeights) continue;  // beyond simplex tolerances
    for (int trial = 0; trial < 40; ++trial) {
      const MckpProblem problem = random_mckp(rng, family, 4, 4);
      const MckpSolution got = solve_mckp(problem);
      const Solution ilp = solve_as_ilp(problem);
      SCOPED_TRACE("family " + std::to_string(static_cast<int>(family)) +
                   " trial " + std::to_string(trial));
      ASSERT_EQ(got.feasible, ilp.optimal());
      if (got.feasible) {
        EXPECT_NEAR(got.value, ilp.objective, 1e-6);
      }
    }
  }
}

TEST(MckpPropertyTest, LpBoundDominatesOptimum) {
  util::Rng rng(1204);
  for (const Family family : kFamilies) {
    for (int trial = 0; trial < 1000; ++trial) {
      const MckpProblem problem = random_mckp(rng, family);
      const MckpSolution want = exhaustive_mckp(problem);
      const double bound = mckp_lp_bound(problem);
      SCOPED_TRACE("family " + std::to_string(static_cast<int>(family)) +
                   " trial " + std::to_string(trial));
      if (!want.feasible) {
        EXPECT_EQ(bound, -std::numeric_limits<double>::infinity());
        continue;
      }
      EXPECT_GE(bound + 1e-9 * std::max(1.0, std::abs(want.value)),
                want.value);
    }
  }
}

TEST(MckpTest, EmptyGroupIsInfeasible) {
  MckpProblem problem;
  problem.groups = {{{1.0, 0.0}}, {}};
  problem.capacity = 10.0;
  EXPECT_FALSE(solve_mckp(problem).feasible);
}

TEST(MckpTest, NoGroupsIsFeasibleAtNonNegativeCapacity) {
  MckpProblem problem;
  EXPECT_TRUE(solve_mckp(problem).feasible);
  problem.capacity = -1.0;
  EXPECT_FALSE(solve_mckp(problem).feasible);
}

TEST(MckpTest, TiesGoToLighterThenLexicographicallySmaller) {
  MckpProblem problem;
  // Value 5 is reachable as (0,1) weight 4, (1,0) weight 3 and (1,2)
  // weight 3: the lighter pair wins, and of those the smaller vector.
  problem.groups = {
      {{0.0, 0.0}, {5.0, 3.0}},
      {{5.0, 4.0}, {0.0, 0.0}, {0.0, 0.0}},
  };
  problem.capacity = 4.0;
  const MckpSolution sol = solve_mckp(problem);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.choice, (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(sol.value, 5.0);
  EXPECT_EQ(sol.weight, 3.0);
}

}  // namespace
}  // namespace ermes::ilp
