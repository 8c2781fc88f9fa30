// Batched multi-scenario sweep: CycleMeanSolver::solve_batch vs k serial
// warm solves on one compiled structure.
//
// Workload: B feed-forward-connected blocks, each a strongly connected
// ring+chords TMG (so the system has B nontrivial SCCs; the connection
// places carry tokens and cannot close a cycle, so the plan sees exactly
// the B block SCCs). The scenario stream mutates cumulatively, one block
// per scenario in rotation — the DSE-sweep shape, where adjacent candidates
// perturb a few processes and leave the rest of the system untouched.
// Per scenario:
//
//   serial: install the scenario's arc weights (set_arc_weight sweep) +
//           solve() on a warm solver — the pre-batch path re-runs policy
//           iteration on all B SCCs every time;
//   batch:  one solve_batch over all k scenarios — staging is SoA and
//           scenario-major, and the per-SCC slice-replay memo re-solves
//           only the block each scenario actually changed (~k + B - 1
//           SCC solves instead of k * B).
//
// Every scenario asserts bit-identity of the batch report against the
// serial result (num/den, critical cycle, raw double bits). The run fails
// on any mismatch or when the batch speedup falls below 3x — the ISSUE
// floor, asserted in --smoke too.
//
// Flags: --smoke (small blocks, 24 scenarios; the bench-smoke CTest entry),
// --blocks B, --n N (transitions per block), --scenarios K, --out path
// (default BENCH_batch_sweep.json).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "svc/json.h"
#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"
#include "tmg/marked_graph.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/str_cat.h"
#include "util/table.h"

using namespace ermes;

namespace {

struct Workload {
  tmg::MarkedGraph graph;
  // Arc (== place) id ranges per block, for the per-block mutations.
  std::vector<std::pair<std::int32_t, std::int32_t>> block_arcs;
};

// B ring+chords blocks (each strongly connected, every cycle marked) chained
// by token-carrying feed-forward places. Inter-block places never sit on a
// cycle, so the SCC plan is exactly the B blocks.
Workload make_workload(std::int32_t blocks, std::int32_t n,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  Workload w;
  w.graph.reserve(blocks * n, blocks * (3 * n + 1));
  for (std::int32_t b = 0; b < blocks; ++b) {
    const std::int32_t base = b * n;
    for (std::int32_t t = 0; t < n; ++t) {
      w.graph.add_transition(util::str_cat("b", b, "t", t),
                             rng.uniform_int(1, 100));
    }
    const std::int32_t first_arc = w.graph.num_places();
    for (std::int32_t t = 0; t < n; ++t) {
      // Ring with one marked closing place: the lone pure ring cycle carries
      // a token, chords all carry tokens, so the block's ratio is finite.
      w.graph.add_place(base + t, base + (t + 1) % n,
                        /*tokens=*/t == n - 1 ? 1 : 0);
    }
    for (std::int32_t e = 0; e < 2 * n; ++e) {
      const auto from = static_cast<tmg::TransitionId>(
          base + static_cast<std::int32_t>(
                     rng.index(static_cast<std::size_t>(n))));
      const auto to = static_cast<tmg::TransitionId>(
          base + static_cast<std::int32_t>(
                     rng.index(static_cast<std::size_t>(n))));
      w.graph.add_place(from, to, /*tokens=*/1);
    }
    w.block_arcs.emplace_back(first_arc, w.graph.num_places());
    if (b > 0) {
      // Feed-forward chain; acyclic between blocks by construction.
      w.graph.add_place((b - 1) * n, base, /*tokens=*/1);
    }
  }
  return w;
}

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool results_bit_identical(const tmg::CycleRatioResult& a,
                           const tmg::CycleRatioResult& b) {
  return a.has_cycle == b.has_cycle && bits_equal(a.ratio, b.ratio) &&
         a.ratio_num == b.ratio_num && a.ratio_den == b.ratio_den &&
         a.critical_cycle == b.critical_cycle;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::int32_t blocks = 32;
  std::int32_t n = 64;
  std::int32_t scenarios = 64;
  std::string out_path = "BENCH_batch_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--blocks") == 0 && i + 1 < argc) {
      blocks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
      scenarios = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (smoke) {
    n = 24;
    scenarios = 24;
  }
  if (blocks < 2 || n < 4 || scenarios < 2) {
    std::fprintf(stderr, "bad sizes\n");
    return 2;
  }

  const Workload w = make_workload(blocks, n, 42);
  const std::int32_t num_arcs = w.graph.num_places();
  std::printf("bench_batch_sweep: %d blocks x %d transitions (%d places), "
              "%d scenarios%s\n",
              blocks, n, num_arcs, scenarios, smoke ? " [smoke]" : "");

  // Cumulative scenario stream: scenario j re-randomizes the weights of one
  // block (j mod B) on top of scenario j-1, so every scenario's other B-1
  // block slices repeat an earlier scenario — the replay memo's food.
  std::vector<tmg::WeightVector> weight_sets;
  weight_sets.reserve(static_cast<std::size_t>(scenarios));
  {
    util::Rng rng(0xba7c45feedULL);
    tmg::WeightVector current(static_cast<std::size_t>(num_arcs));
    for (std::int32_t a = 0; a < num_arcs; ++a) {
      current[static_cast<std::size_t>(a)] = rng.uniform_int(1, 100);
    }
    for (std::int32_t s = 0; s < scenarios; ++s) {
      const auto& [lo, hi] =
          w.block_arcs[static_cast<std::size_t>(s % blocks)];
      for (std::int32_t a = lo; a < hi; ++a) {
        current[static_cast<std::size_t>(a)] = rng.uniform_int(1, 100);
      }
      weight_sets.push_back(current);
    }
  }

  // Serial baseline vs. batch engine. The compile is outside the timed
  // region for both. The smoke workload finishes in well under a
  // millisecond per engine, so a single-shot measurement is at the mercy
  // of scheduler noise — take the best of a few repetitions instead, with
  // fresh solvers each time so the batch engine's replay memo starts cold
  // every rep. Results are deterministic, so the bit-identity check just
  // uses the last rep's outputs.
  const int reps = smoke ? 5 : 1;
  double serial_ms = 0.0;
  double batch_ms = 0.0;
  std::vector<tmg::CycleRatioResult> serial_results;
  std::vector<tmg::BatchSolveReport> reports;
  tmg::CycleMeanSolver::Stats stats;
  for (int rep = 0; rep < reps; ++rep) {
    // Serial baseline: warm weight installs + canonical solves, one per
    // scenario.
    tmg::CycleMeanSolver serial;
    serial.prepare(w.graph);
    serial.solve();
    std::vector<tmg::CycleRatioResult> rep_serial_results;
    rep_serial_results.reserve(weight_sets.size());
    util::Stopwatch sw;
    for (const tmg::WeightVector& weights : weight_sets) {
      for (std::int32_t a = 0; a < num_arcs; ++a) {
        serial.set_arc_weight(a, weights[static_cast<std::size_t>(a)]);
      }
      rep_serial_results.push_back(serial.solve());
    }
    const double rep_serial_ms = sw.elapsed_ms();

    // Batch engine: one solve_batch over the whole stream.
    tmg::CycleMeanSolver batched;
    batched.prepare(w.graph);
    batched.solve();
    std::vector<tmg::BatchSolveReport> rep_reports(weight_sets.size());
    sw.reset();
    batched.solve_batch(weight_sets, rep_reports);
    const double rep_batch_ms = sw.elapsed_ms();

    if (rep == 0 || rep_serial_ms < serial_ms) serial_ms = rep_serial_ms;
    if (rep == 0 || rep_batch_ms < batch_ms) batch_ms = rep_batch_ms;
    serial_results = std::move(rep_serial_results);
    reports = std::move(rep_reports);
    stats = batched.stats();
  }

  int mismatches = 0;
  for (std::size_t s = 0; s < weight_sets.size(); ++s) {
    if (!results_bit_identical(reports[s].result, serial_results[s])) {
      ++mismatches;
    }
  }

  const double serial_ns = serial_ms * 1e6 / scenarios;
  const double batch_ns = batch_ms * 1e6 / scenarios;
  const double speedup = batch_ms > 0.0 ? serial_ms / batch_ms : 0.0;

  util::Table table({"engine", "per scenario (us)", "speedup", "correct"});
  table.add_row({"serial (install + solve)",
                 util::format_double(serial_ns / 1e3, 2), "1.00", "baseline"});
  table.add_row({"batch (solve_batch)",
                 util::format_double(batch_ns / 1e3, 2),
                 util::format_double(speedup, 2),
                 mismatches == 0 ? "bit-identical" : "MISMATCH"});
  std::printf("%s\n", table.to_text(2).c_str());
  std::printf("  batch: %lld scc solves + %lld replayed of %lld "
              "scenario-SCC pairs\n",
              static_cast<long long>(stats.batch_scc_solves),
              static_cast<long long>(stats.batch_scc_reuses),
              static_cast<long long>(scenarios) * blocks);

  const bool identical = mismatches == 0;
  const bool fast_enough = speedup >= 3.0;

  svc::JsonValue report = svc::JsonValue::object();
  report.set("name", svc::JsonValue::string("batch_sweep"));
  report.set("smoke", svc::JsonValue::boolean(smoke));
  report.set("blocks", svc::JsonValue::integer(blocks));
  report.set("n_per_block", svc::JsonValue::integer(n));
  report.set("arcs", svc::JsonValue::integer(num_arcs));
  report.set("scenarios", svc::JsonValue::integer(scenarios));
  report.set("serial_ns", svc::JsonValue::number(serial_ns));
  report.set("batch_ns", svc::JsonValue::number(batch_ns));
  report.set("speedup", svc::JsonValue::number(speedup));
  report.set("speedup_floor", svc::JsonValue::number(3.0));
  report.set("meets_floor", svc::JsonValue::boolean(fast_enough));
  report.set("bit_identical", svc::JsonValue::boolean(identical));
  report.set("scc_solves", svc::JsonValue::integer(stats.batch_scc_solves));
  report.set("scc_reuses", svc::JsonValue::integer(stats.batch_scc_reuses));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = report.to_string();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("  report written to %s\n", out_path.c_str());

  if (!identical || !fast_enough) {
    std::fprintf(stderr,
                 "bench_batch_sweep FAILED: identical=%d speedup=%.2f\n",
                 identical, speedup);
    return 1;
  }
  std::printf("bench_batch_sweep PASSED\n");
  return 0;
}
