// Randomized differential testing of every TMG analysis path.
//
// A generator builds random strongly connected timed marked graphs (a
// permutation-cycle backbone guarantees strong connectivity; extra arcs add
// cycle structure), then independent oracles must agree on every instance:
//
//  D1. Unit-token graphs: Howard's policy iteration (the production CSR
//      solver) == Karp's cycle mean == brute-force cycle enumeration (on unit-token graphs the maximum cycle
//      ratio *is* the maximum cycle mean), exactly as rationals and within
//      1e-9 as doubles.
//  D2. General markings: Howard == Lawler's binary search == brute force,
//      including agreement on infinite ratios (zero-token cycles).
//  D3. Every solver's reported critical cycle reproduces its claimed ratio.
//  D4. The structural liveness check (token-free cycle search) agrees with
//      actually playing the token game: a strongly connected TMG with a dead
//      cycle deadlocks after finitely many firings, a live one never does.
//  D5. The CSR solver core (tmg/csr.h) is bit-identical to the RatioGraph
//      reference Howard (tests/howard_reference) — same rationals, same
//      critical cycle, same double bits — whether prepared from the
//      RatioGraph or the MarkedGraph, cold or after any sequence of warm
//      weight-only re-prepares.
//  D6. One CycleMeanSolver reused across differently-shaped graphs (its
//      workspaces only ever grow) never contaminates a later solve.
//  D7. solve_seeded() reaches the exact same maximum ratio as the canonical
//      solve (compare_ratios == 0) and its witness reproduces that ratio.
//  D8. A cold solve_batch over random weight scenarios is bit-identical to
//      installing each scenario and calling solve() in order, including the
//      weights the solver is left holding afterwards.
//  D9. Warm mutation streams that interleave solve() and solve_batch() on
//      one solver never diverge from a serial reference solver.
// D10. One solver batching across differently-shaped graphs (workspaces,
//      staging, and memo state reused) stays bit-identical per structure.
//
// Failures shrink the offending instance (dropping extra arcs, zeroing
// delays, trimming tokens) while the disagreement persists, then print the
// seed and a compact reconstruction of the minimized graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "howard_reference/howard.h"
#include "tmg/brute_force.h"
#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"
#include "tmg/karp.h"
#include "tmg/liveness.h"
#include "tmg/marked_graph.h"
#include "tmg/token_game.h"
#include "util/rng.h"
#include "util/str_cat.h"

namespace ermes::tmg {
namespace {

constexpr std::uint64_t kBaseSeed = 0xd1ffe7e57ULL;

// A value-type recipe for a random TMG, kept separate from MarkedGraph so
// the shrinker can edit and rebuild it.
struct TmgSpec {
  std::vector<std::int64_t> delays;  // one per transition
  std::vector<int> backbone;         // permutation cycle (strong connectivity)
  std::vector<std::int64_t> backbone_tokens;
  struct Arc {
    int src = 0;
    int dst = 0;
    std::int64_t tokens = 0;
  };
  std::vector<Arc> extras;

  int num_transitions() const { return static_cast<int>(delays.size()); }

  MarkedGraph build() const {
    MarkedGraph g;
    for (std::size_t t = 0; t < delays.size(); ++t) {
      g.add_transition(util::str_cat("t", t), delays[t]);
    }
    for (std::size_t i = 0; i < backbone.size(); ++i) {
      g.add_place(backbone[i], backbone[(i + 1) % backbone.size()],
                  backbone_tokens[i]);
    }
    for (const Arc& arc : extras) {
      g.add_place(arc.src, arc.dst, arc.tokens);
    }
    return g;
  }
};

TmgSpec random_spec(util::Rng& rng, bool unit_tokens) {
  TmgSpec spec;
  const int n = static_cast<int>(rng.uniform_int(3, 10));
  spec.delays.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    spec.delays.push_back(rng.uniform_int(0, 20));
  }
  for (std::size_t i : rng.permutation(static_cast<std::size_t>(n))) {
    spec.backbone.push_back(static_cast<int>(i));
    spec.backbone_tokens.push_back(unit_tokens ? 1 : rng.uniform_int(0, 2));
  }
  const std::int64_t extra = rng.uniform_int(0, 2 * n);
  for (std::int64_t e = 0; e < extra; ++e) {
    TmgSpec::Arc arc;
    arc.src = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    arc.dst = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    arc.tokens = unit_tokens ? 1 : rng.uniform_int(0, 2);
    spec.extras.push_back(arc);
  }
  return spec;
}

std::string describe(const TmgSpec& spec) {
  std::ostringstream os;
  os << "transitions (delay):";
  for (std::size_t t = 0; t < spec.delays.size(); ++t) {
    os << " t" << t << "(" << spec.delays[t] << ")";
  }
  os << "\nbackbone:";
  for (std::size_t i = 0; i < spec.backbone.size(); ++i) {
    os << " " << spec.backbone[i] << "->"
       << spec.backbone[(i + 1) % spec.backbone.size()] << "["
       << spec.backbone_tokens[i] << "]";
  }
  os << "\nextras:";
  for (const TmgSpec::Arc& arc : spec.extras) {
    os << " " << arc.src << "->" << arc.dst << "[" << arc.tokens << "]";
  }
  return os.str();
}

// Greedy shrink: keep any edit under which the failure persists, until no
// edit helps. Edits: drop an extra arc, zero a delay, drop a token.
using FailurePredicate = std::function<bool(const TmgSpec&)>;

TmgSpec shrink(TmgSpec spec, const FailurePredicate& fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < spec.extras.size(); ++i) {
      TmgSpec cand = spec;
      cand.extras.erase(cand.extras.begin() +
                        static_cast<std::ptrdiff_t>(i));
      if (fails(cand)) {
        spec = std::move(cand);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (std::size_t t = 0; t < spec.delays.size(); ++t) {
      if (spec.delays[t] == 0) continue;
      TmgSpec cand = spec;
      cand.delays[t] = 0;
      if (fails(cand)) {
        spec = std::move(cand);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (std::size_t i = 0; i < spec.backbone_tokens.size(); ++i) {
      if (spec.backbone_tokens[i] <= 1) continue;
      TmgSpec cand = spec;
      cand.backbone_tokens[i] -= 1;
      if (fails(cand)) {
        spec = std::move(cand);
        progress = true;
        break;
      }
    }
  }
  return spec;
}

void report_failure(std::uint64_t seed, const TmgSpec& original,
                    const FailurePredicate& fails, const char* what) {
  const TmgSpec minimal = shrink(original, fails);
  ADD_FAILURE() << what << " (shard seed " << seed << ")\n"
                << "minimized instance:\n"
                << describe(minimal);
}

// Ratio of the cycle claimed by a result, recomputed from its arcs.
bool critical_cycle_consistent(const RatioGraph& rg,
                               const CycleRatioResult& result) {
  if (!result.has_cycle || result.is_infinite()) return true;
  if (result.critical_cycle.empty()) return false;
  std::int64_t w = 0, t = 0;
  for (graph::ArcId a : result.critical_cycle) {
    w += rg.arc_weight(a);
    t += rg.arc_tokens(a);
  }
  return t > 0 && compare_ratios(w, t, result.ratio_num, result.ratio_den) == 0;
}

bool results_agree(const CycleRatioResult& a, const CycleRatioResult& b) {
  if (a.has_cycle != b.has_cycle) return false;
  if (!a.has_cycle) return true;
  if (a.is_infinite() || b.is_infinite()) {
    return a.is_infinite() == b.is_infinite();
  }
  return compare_ratios(a.ratio_num, a.ratio_den, b.ratio_num, b.ratio_den) ==
             0 &&
         std::abs(a.ratio - b.ratio) <= 1e-9;
}

// --- D1 + D3 (unit tokens) --------------------------------------------------

bool unit_token_solvers_disagree(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const RatioGraph rg = to_ratio_graph(g);
  CycleMeanSolver solver;
  const CycleRatioResult howard = solver.solve(rg);
  const CycleRatioResult karp = max_cycle_mean_karp(rg);
  const CycleRatioResult brute = max_cycle_ratio_brute_force(rg);
  // Every unit-token arc carries one token, so ratio denominators equal arc
  // counts and the max cycle ratio equals Karp's max cycle mean.
  return !results_agree(howard, brute) || !results_agree(karp, brute) ||
         !critical_cycle_consistent(rg, howard) ||
         !critical_cycle_consistent(rg, karp) ||
         !critical_cycle_consistent(rg, brute);
}

TEST(DifferentialCycleRatio, UnitTokensHowardKarpBruteForceAgree) {
  for (std::uint64_t shard = 0; shard < 120; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/true);
    if (unit_token_solvers_disagree(spec)) {
      report_failure(shard, spec, unit_token_solvers_disagree,
                     "Howard/Karp/brute-force disagree on a unit-token TMG");
      return;
    }
  }
}

// --- D2 + D3 (general markings) ---------------------------------------------

bool general_token_solvers_disagree(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const RatioGraph rg = to_ratio_graph(g);
  CycleMeanSolver solver;
  const CycleRatioResult howard = solver.solve(rg);
  const CycleRatioResult lawler = max_cycle_ratio_lawler(rg);
  const CycleRatioResult brute = max_cycle_ratio_brute_force(rg);
  return !results_agree(howard, brute) || !results_agree(lawler, brute) ||
         !critical_cycle_consistent(rg, howard) ||
         !critical_cycle_consistent(rg, lawler) ||
         !critical_cycle_consistent(rg, brute);
}

TEST(DifferentialCycleRatio, GeneralMarkingsHowardLawlerBruteForceAgree) {
  for (std::uint64_t shard = 0; shard < 120; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0xa5a5a5a5ULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/false);
    if (general_token_solvers_disagree(spec)) {
      report_failure(shard, spec, general_token_solvers_disagree,
                     "Howard/Lawler/brute-force disagree on a general TMG");
      return;
    }
  }
}

// --- D4 (liveness vs token game) --------------------------------------------

// Round-robin fair play. Marked graphs are conflict-free (every place has
// one consumer), so firing one enabled transition never disables another;
// a strongly connected TMG with a token-free cycle starves every transition
// after finitely many firings (tokens on any path out of the dead cycle are
// never replenished), while a live one runs forever.
bool token_game_deadlocks(const MarkedGraph& g, std::int64_t max_firings) {
  TokenGame game(g);
  std::int64_t fired = 0;
  while (fired < max_firings) {
    const std::vector<TransitionId> enabled = game.enabled();
    if (enabled.empty()) return true;
    for (TransitionId t : enabled) {
      game.fire(t);
      ++fired;
    }
  }
  return false;
}

bool liveness_disagrees_with_token_game(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const LivenessResult liveness = check_liveness(g);
  // Firings before deadlock are bounded by (#transitions x total tokens);
  // the corpus tops out near 10 x ~60, so 20000 is far beyond the bound.
  const bool deadlocked = token_game_deadlocks(g, 20'000);
  if (liveness.live == deadlocked) return true;
  if (!liveness.live) {
    // The witness must be a real token-free cycle.
    if (liveness.dead_cycle.empty()) return true;
    for (std::size_t i = 0; i < liveness.dead_cycle.size(); ++i) {
      const PlaceId p = liveness.dead_cycle[i];
      const PlaceId q =
          liveness.dead_cycle[(i + 1) % liveness.dead_cycle.size()];
      if (g.tokens(p) != 0 || g.consumer(p) != g.producer(q)) return true;
    }
  }
  return false;
}

TEST(DifferentialLiveness, StructuralCheckAgreesWithTokenGame) {
  for (std::uint64_t shard = 0; shard < 120; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0x11feULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/false);
    if (liveness_disagrees_with_token_game(spec)) {
      report_failure(shard, spec, liveness_disagrees_with_token_game,
                     "liveness check disagrees with the token game");
      return;
    }
  }
}

// --- D5 (CSR solver core, cold + warm) ---------------------------------------

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// Stricter than results_agree: the determinism contract of tmg/csr.h
// promises the same rationals, the same critical cycle, and the same raw
// double — not just agreement up to ties and epsilon.
bool results_bit_identical(const CycleRatioResult& a,
                           const CycleRatioResult& b) {
  return a.has_cycle == b.has_cycle && bits_equal(a.ratio, b.ratio) &&
         a.ratio_num == b.ratio_num && a.ratio_den == b.ratio_den &&
         a.critical_cycle == b.critical_cycle;
}

bool csr_cold_diverges(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const RatioGraph rg = to_ratio_graph(g);
  const CycleRatioResult reference = max_cycle_ratio_howard(rg);
  CycleMeanSolver from_rg;
  from_rg.prepare(rg);
  if (!results_bit_identical(from_rg.solve(), reference)) return true;
  // The MarkedGraph compile must mirror to_ratio_graph exactly.
  CycleMeanSolver from_tmg;
  from_tmg.prepare(g);
  if (!results_bit_identical(from_tmg.solve(), reference)) return true;
  // Re-solving on the already-used workspaces must not drift.
  return !results_bit_identical(from_tmg.solve(), reference);
}

TEST(DifferentialCsrSolver, ColdSolveBitIdenticalToHoward) {
  for (std::uint64_t shard = 0; shard < 120; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0xc5cULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    if (csr_cold_diverges(spec)) {
      report_failure(shard, spec, csr_cold_diverges,
                     "CSR solve is not bit-identical to reference Howard");
      return;
    }
  }
}

bool csr_warm_mutations_diverge(const TmgSpec& spec) {
  MarkedGraph g = spec.build();
  CycleMeanSolver solver;
  solver.prepare(g);
  // Deterministic per spec shape, so the shrinker can replay it.
  util::Rng rng(kBaseSeed ^ 0x3a7bULL ^
                (static_cast<std::uint64_t>(spec.delays.size()) * 131));
  for (int s = 0; s < 24; ++s) {
    const auto t =
        static_cast<TransitionId>(rng.index(spec.delays.size()));
    g.set_delay(t, rng.uniform_int(0, 20));
    if (!solver.prepare(g)) return true;  // must stay warm: weights only
    const CycleRatioResult reference =
        max_cycle_ratio_howard(to_ratio_graph(g));
    if (!results_bit_identical(solver.solve(), reference)) return true;
  }
  return false;
}

TEST(DifferentialCsrSolver, WarmWeightMutationsStayBitIdentical) {
  for (std::uint64_t shard = 0; shard < 60; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0x3a7bULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    if (csr_warm_mutations_diverge(spec)) {
      report_failure(shard, spec, csr_warm_mutations_diverge,
                     "warm CSR re-solve diverged from cold reference Howard");
      return;
    }
  }
}

// --- D6 (one solver across differently-sized graphs) -------------------------

TEST(DifferentialCsrSolver, SolverReusedAcrossGraphsStaysBitIdentical) {
  // One solver absorbs a stream of unrelated graphs; its workspaces only
  // grow, so a large graph followed by a small one exercises stale tails.
  CycleMeanSolver solver;
  for (std::uint64_t shard = 0; shard < 60; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0x5eedULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    const MarkedGraph g = spec.build();
    const CycleRatioResult reference =
        max_cycle_ratio_howard(to_ratio_graph(g));
    solver.prepare(g);
    if (!results_bit_identical(solver.solve(), reference)) {
      const auto fails = [&](const TmgSpec& cand) {
        // Re-create the cross-graph state: a fresh solver first sized by the
        // *previous* shard's graph, then fed the candidate.
        CycleMeanSolver s2;
        if (shard > 0) {
          util::Rng prev_rng = util::Rng::for_shard(kBaseSeed ^ 0x5eedULL,
                                                    shard - 1);
          s2.solve(random_spec(prev_rng, (shard - 1) % 2 == 0).build());
        }
        const MarkedGraph cg = cand.build();
        return !results_bit_identical(
            s2.solve(cg), max_cycle_ratio_howard(to_ratio_graph(cg)));
      };
      report_failure(shard, spec, fails,
                     "reused solver diverged after a differently-sized graph");
      return;
    }
  }
}

// --- D7 (seeded warm start: exact ratio, self-consistent witness) ------------

bool csr_seeded_diverges(const TmgSpec& spec) {
  MarkedGraph g = spec.build();
  CycleMeanSolver solver;
  solver.prepare(g);
  solver.solve();  // establish a previous optimal policy
  util::Rng rng(kBaseSeed ^ 0x5eedeULL ^
                (static_cast<std::uint64_t>(spec.delays.size()) * 137));
  for (int s = 0; s < 16; ++s) {
    const auto t =
        static_cast<TransitionId>(rng.index(spec.delays.size()));
    g.set_delay(t, rng.uniform_int(0, 20));
    solver.prepare(g);
    const CycleRatioResult seeded = solver.solve_seeded();
    const RatioGraph rg = to_ratio_graph(g);
    const CycleRatioResult reference = max_cycle_ratio_howard(rg);
    if (seeded.has_cycle != reference.has_cycle) return true;
    if (!seeded.has_cycle) continue;
    if (seeded.is_infinite() != reference.is_infinite()) return true;
    if (seeded.is_infinite()) continue;
    // Exact same maximum ratio, and a witness that actually attains it.
    if (compare_ratios(seeded.ratio_num, seeded.ratio_den,
                       reference.ratio_num, reference.ratio_den) != 0) {
      return true;
    }
    if (!critical_cycle_consistent(rg, seeded)) return true;
  }
  return false;
}

TEST(DifferentialCsrSolver, SeededSolveReachesExactRatio) {
  for (std::uint64_t shard = 0; shard < 60; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0x5eedeULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    if (csr_seeded_diverges(spec)) {
      report_failure(shard, spec, csr_seeded_diverges,
                     "seeded CSR solve missed the exact maximum ratio");
      return;
    }
  }
}

// --- D8 (cold batch vs serial solves) ----------------------------------------

// Random arc-indexed scenarios; a deliberate duplicate exercises the
// slice-replay memo on every instance.
std::vector<WeightVector> random_scenarios(util::Rng& rng, std::size_t k,
                                           std::size_t num_arcs) {
  std::vector<WeightVector> scenarios(k, WeightVector(num_arcs));
  for (WeightVector& w : scenarios) {
    for (std::int64_t& x : w) x = rng.uniform_int(0, 20);
  }
  if (k >= 2) scenarios.back() = scenarios.front();
  return scenarios;
}

bool serial_reference_disagrees(CycleMeanSolver& serial,
                                const std::vector<WeightVector>& scenarios,
                                const std::vector<BatchSolveReport>& reports) {
  const auto m = static_cast<std::size_t>(serial.csr().num_arcs);
  for (std::size_t j = 0; j < scenarios.size(); ++j) {
    for (std::size_t a = 0; a < m; ++a) {
      serial.set_arc_weight(static_cast<graph::ArcId>(a), scenarios[j][a]);
    }
    if (!results_bit_identical(reports[j].result, serial.solve())) return true;
  }
  return false;
}

bool batch_cold_diverges(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const RatioGraph rg = to_ratio_graph(g);
  // Deterministic per spec shape, so the shrinker can replay it.
  util::Rng rng(kBaseSeed ^ 0xba7c8ULL ^
                (static_cast<std::uint64_t>(spec.delays.size()) * 149) ^
                (static_cast<std::uint64_t>(rg.weight.size()) * 157));
  CycleMeanSolver batched;
  batched.prepare(rg);
  const std::vector<WeightVector> scenarios =
      random_scenarios(rng, 8, rg.weight.size());
  const std::vector<BatchSolveReport> reports = batched.solve_batch(scenarios);
  CycleMeanSolver serial;
  serial.prepare(rg);
  if (serial_reference_disagrees(serial, scenarios, reports)) return true;
  // The batch leaves the last scenario's weights installed, exactly like
  // the serial loop would: one more canonical solve must agree too.
  return !results_bit_identical(batched.solve(), serial.solve());
}

TEST(DifferentialCsrSolver, ColdBatchBitIdenticalToSerialSolves) {
  for (std::uint64_t shard = 0; shard < 60; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0xba7c8ULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    if (batch_cold_diverges(spec)) {
      report_failure(shard, spec, batch_cold_diverges,
                     "cold solve_batch diverged from serial solves");
      return;
    }
  }
}

// --- D9 (interleaved warm solve / solve_batch streams) -----------------------

bool batch_interleaved_diverges(const TmgSpec& spec) {
  MarkedGraph g = spec.build();
  CycleMeanSolver batched;
  CycleMeanSolver serial;
  batched.prepare(g);
  serial.prepare(g);
  const auto m = static_cast<std::size_t>(batched.csr().num_arcs);
  util::Rng rng(kBaseSeed ^ 0xba7c9ULL ^
                (static_cast<std::uint64_t>(spec.delays.size()) * 151));
  for (int round = 0; round < 10; ++round) {
    const auto t = static_cast<TransitionId>(rng.index(spec.delays.size()));
    g.set_delay(t, rng.uniform_int(0, 20));
    // Re-prepares must stay warm (weight-only) even right after a batch
    // left foreign scenario weights installed.
    if (!batched.prepare(g) || !serial.prepare(g)) return true;
    if (round % 3 == 0) {
      if (!results_bit_identical(batched.solve(), serial.solve())) return true;
      continue;
    }
    const std::vector<WeightVector> scenarios =
        random_scenarios(rng, 1 + rng.index(4), m);
    const std::vector<BatchSolveReport> reports =
        batched.solve_batch(scenarios);
    if (serial_reference_disagrees(serial, scenarios, reports)) return true;
  }
  return false;
}

TEST(DifferentialCsrSolver, InterleavedSolveAndBatchStayBitIdentical) {
  for (std::uint64_t shard = 0; shard < 40; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0xba7c9ULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    if (batch_interleaved_diverges(spec)) {
      report_failure(shard, spec, batch_interleaved_diverges,
                     "interleaved solve/solve_batch stream diverged");
      return;
    }
  }
}

// --- D10 (one solver batching across structures) -----------------------------

TEST(DifferentialCsrSolver, BatchSolverReusedAcrossStructures) {
  // One solver absorbs batches against a stream of unrelated graphs; its
  // workspaces, staging block, and memo scaffolding are reused, so a large
  // graph followed by a small one exercises stale tails in all of them.
  CycleMeanSolver batched;
  for (std::uint64_t shard = 0; shard < 40; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0xba7caULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    const MarkedGraph g = spec.build();
    batched.prepare(g);
    const auto m = static_cast<std::size_t>(batched.csr().num_arcs);
    const std::vector<WeightVector> scenarios = random_scenarios(rng, 4, m);
    const std::vector<BatchSolveReport> reports =
        batched.solve_batch(scenarios);
    CycleMeanSolver serial;
    serial.prepare(g);
    if (serial_reference_disagrees(serial, scenarios, reports)) {
      const auto fails = [&](const TmgSpec& cand) {
        // Re-create the cross-structure state: a fresh solver first sized by
        // the *previous* shard's graph, then batched on the candidate.
        CycleMeanSolver b2;
        if (shard > 0) {
          util::Rng prev_rng =
              util::Rng::for_shard(kBaseSeed ^ 0xba7caULL, shard - 1);
          b2.solve(random_spec(prev_rng, (shard - 1) % 2 == 0).build());
        }
        const MarkedGraph cg = cand.build();
        b2.prepare(cg);
        const auto cm = static_cast<std::size_t>(b2.csr().num_arcs);
        util::Rng wr(kBaseSeed ^ 0xba7caULL ^
                     (static_cast<std::uint64_t>(cm) * 163));
        const std::vector<WeightVector> ws = random_scenarios(wr, 4, cm);
        const std::vector<BatchSolveReport> reps = b2.solve_batch(ws);
        CycleMeanSolver s2;
        s2.prepare(cg);
        return serial_reference_disagrees(s2, ws, reps);
      };
      report_failure(shard, spec, fails,
                     "cross-structure solve_batch diverged from serial solves");
      return;
    }
  }
}

// --- generator sanity --------------------------------------------------------

TEST(DifferentialGenerator, ShardsProduceDistinctStreams) {
  // for_shard must give unrelated streams: the first samples of 64
  // consecutive shards should not collide en masse.
  std::vector<std::int64_t> firsts;
  for (std::uint64_t shard = 0; shard < 64; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed, shard);
    firsts.push_back(rng.uniform_int(0, 1'000'000'000));
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::unique(firsts.begin(), firsts.end()), firsts.end());
}

TEST(DifferentialGenerator, UnitTokenGraphsAreAlwaysLive) {
  for (std::uint64_t shard = 0; shard < 32; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed + 7, shard);
    const MarkedGraph g = random_spec(rng, /*unit_tokens=*/true).build();
    EXPECT_TRUE(is_live(g)) << "shard " << shard;
  }
}

}  // namespace
}  // namespace ermes::tmg
