#pragma once
// Compiled simulation engine: the one simulator of communication-centric
// systems (blocking rendezvous and FIFO channels over three-phase process
// loops).
//
// The SystemModel is compiled once into string-free SoA index arrays
// (flattened three-phase programs, channel endpoints, base weights), and
// each run resolves a SimScenario's weight overrides against that
// structure — the simulator counterpart of tmg::CsrGraph, so one structure
// can be simulated under hundreds of latency/capacity scenarios. Channel
// FIFOs are occupancy counters, and the event heap is a bucketed calendar
// queue (sim/event_queue.h) with a binary-heap overflow for sparse
// timelines. Events at one instant pop in (index, kind) order — process
// wakes before transfer completions of the same index — so a run is a
// function of the model and scenario alone.
//
// Names, payloads and waveforms stay out of the hot state: an Instance
// reports its events to one optional SimObserver (sim/observer.h), which is
// how the VCD tracer (sim/trace.h) and functional behaviours
// (sim/behavior.h) ride along.
//
// Every run is checked for bit-identity against an independent event-heap
// reference engine kept with the tests: same event order, same stall
// accounting, same histograms, same deadlock cycle. results_bit_identical()
// is the comparison the differential suite and bench_sim enforce.
//
// simulate_batch() sweeps k scenarios over one compiled structure on an
// exec::ThreadPool: one reusable Instance per worker slot (allocations
// amortize across the scenarios a slot processes), results written by
// scenario index, so the output order is deterministic at any job count.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/event_queue.h"
#include "sim/observer.h"
#include "sim/stall_report.h"
#include "sim/wait_histogram.h"
#include "sysmodel/system.h"

namespace ermes::exec {
class ThreadPool;
}  // namespace ermes::exec

namespace ermes::sim {

/// One point of a sweep: per-process / per-channel weight overrides applied
/// to the compiled base structure. An empty vector keeps the base values; a
/// non-empty one must cover every process (resp. channel). Capacities use
/// the SystemModel convention: 0 = rendezvous, k > 0 = FIFO,
/// sysmodel::kUnboundedCapacity = unbounded.
struct SimScenario {
  std::vector<std::int64_t> process_latency;
  std::vector<std::int64_t> channel_latency;
  std::vector<std::int64_t> channel_capacity;
};

/// Final per-process state + statistics, index-aligned with the model.
struct ScenarioProcessStats {
  std::int64_t pc = 0;  // program counter within the process program
  std::uint8_t status = 0;  // ProcessStatus as int
  std::int64_t loop_iterations = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t compute_cycles = 0;
  std::array<std::int64_t, 4> cycles_in_status{};
};

struct ScenarioChannelStats {
  std::int64_t transfers = 0;
  std::int64_t last_transfer_at = -1;
  std::int64_t buffered = 0;  // items still in the FIFO at run end
  std::int64_t blocked_puts = 0;
  std::int64_t blocked_gets = 0;
  std::int64_t put_wait_cycles = 0;
  std::int64_t get_wait_cycles = 0;
  std::int64_t peak_occupancy = 0;
  WaitHistogram put_wait;
  WaitHistogram get_wait;
};

/// Everything a run reports, as string-free PODs: the aggregates plus the
/// full final marking and stall accounting. This is the unit of
/// bit-identity against the reference engine.
struct ScenarioResult {
  std::int64_t cycles = 0;
  std::int64_t observed_count = 0;
  double measured_cycle_time = 0.0;
  double throughput = 0.0;
  bool deadlocked = false;
  std::int64_t deadlock_at = 0;
  std::vector<SimProcessId> deadlock_processes;
  std::vector<SimChannelId> deadlock_channels;
  bool hit_cycle_limit = false;
  std::vector<ScenarioProcessStats> processes;
  std::vector<ScenarioChannelStats> channels;
};

inline constexpr std::int64_t kDeriveCycleLimit = -1;

struct BatchOptions {
  /// Channel whose completed transfers stop the run; -1 = the compiled
  /// default (default_observe_channel).
  SimChannelId observe = -1;
  std::int64_t target_transfers = 200;
  /// Simulated-time limit. Negative (kDeriveCycleLimit, the default)
  /// resolves it per run with cycle_limit() from the scenario's latencies.
  std::int64_t max_cycles = kDeriveCycleLimit;
  /// Deterministic TMG runs settle into an exact periodic orbit. When true,
  /// the engine watches for a recurrence of its full (time-relative) state
  /// at observation boundaries and, on a hit, jumps whole periods at once:
  /// every counter and histogram advances by n x its per-period delta, all
  /// clocks shift by n x the period, and the tail is simulated normally.
  /// The jump is exact — results stay bit-identical to a full run (the
  /// differential suite and bench_sim assert this); turning it off only
  /// forces the event loop to grind through every period. An attached
  /// observer turns it off too: it must see every event.
  bool detect_period = true;
};

/// The default cycle limit of a run that stops after `items` observations
/// when the process and channel latencies sum to `latency_sum`:
/// max(1e8, (items + 1) * latency_sum), saturating at int64 max. Every
/// cycle of a live TMG holds a token, so no cycle ratio exceeds the latency
/// sum, and a live run delivers its items well inside the bound; the 1e8
/// floor keeps the limit of small models where it always was.
std::int64_t cycle_limit(std::int64_t latency_sum, std::int64_t items);

/// The channel a run observes by default: the first input channel of the
/// first sink process, falling back to channel 0 (-1 without channels).
SimChannelId default_observe_channel(const sysmodel::SystemModel& sys);

/// cycle_limit() over the model's own latencies.
std::int64_t default_cycle_limit(const sysmodel::SystemModel& sys,
                                 std::int64_t items);

class CompiledSim {
 public:
  explicit CompiledSim(const sysmodel::SystemModel& sys);

  std::int32_t num_processes() const {
    return static_cast<std::int32_t>(code_begin_.size()) - 1;
  }
  std::int32_t num_channels() const {
    return static_cast<std::int32_t>(producer_.size());
  }
  SimChannelId default_observe() const { return default_observe_; }

  /// A reusable run context: all SoA state + the event queue, sized once
  /// for the compiled structure and reset per run(). One Instance per
  /// thread; run() is not reentrant.
  class Instance {
   public:
    explicit Instance(const CompiledSim& sim);
    ScenarioResult run(const SimScenario& scenario, const BatchOptions& opts);

    /// Attaches `observer` (nullptr detaches) to every later run(). The
    /// observer must outlive those runs; see sim/observer.h for the events.
    void set_observer(SimObserver* observer) { observer_ = observer; }
    SimObserver* observer() const { return observer_; }

   private:
    using enum ProcessStatus;

    void prepare(const SimScenario& scenario);
    void take_period_snapshot();
    bool matches_period_snapshot() const;
    bool try_period_jump(std::int64_t observed_target);
    void advance(SimProcessId p);
    void set_status(SimProcessId p, ProcessStatus status);
    void note_status(SimProcessId p) const;
    void note_occupancy(SimChannelId c) const;
    void try_rendezvous(SimChannelId c);
    void complete_transfer(SimChannelId c);
    void try_fifo_put(SimChannelId c);
    void try_fifo_get(SimChannelId c);
    void complete_fifo_write(SimChannelId c);
    void record_observation(SimChannelId c);
    void push_event(std::int64_t time, std::uint32_t key);
    void detect_deadlock(ScenarioResult& result) const;
    void snapshot(ScenarioResult& result) const;

    // Hot per-entity state is packed, not field-per-vector: one event
    // touches most of a process's (or channel's) fields together, so a
    // compact record costs one or two cache lines where parallel arrays
    // cost one line *per field*. Everything cold — names, payloads,
    // waveforms — lives with the observer, not here.
    struct ProcHot {
      std::array<std::int64_t, 4> cycles_in_status{};
      std::int64_t wake_at = 0;
      std::int64_t status_since = 0;
      std::int64_t stall_cycles = 0;
      std::int64_t compute_cycles = 0;
      std::int64_t loop_iterations = 0;
      std::int32_t pc = 0;  // absolute index into sim_.code_
      std::int32_t waiting_on = -1;
      ProcessStatus status = kReady;
    };
    struct ChanHot {
      // First line: the transfer fast path.
      std::int32_t producer = -1;
      std::int32_t consumer = -1;
      std::uint8_t producer_waiting = 0;
      std::uint8_t consumer_waiting = 0;
      std::uint8_t transfer_in_progress = 0;
      std::int64_t latency = 0;
      std::int64_t capacity = 0;  // scenario-resolved; unbounded -> int64 max
      std::int64_t buffered = 0;  // items in the FIFO
      std::int64_t writes_in_flight = 0;
      std::int64_t producer_wait_since = 0;
      std::int64_t consumer_wait_since = 0;
      // Second line: statistics.
      std::int64_t producer_stall = 0;
      std::int64_t consumer_stall = 0;
      std::int64_t transfers_completed = 0;
      std::int64_t last_transfer_at = -1;
      std::int64_t blocked_puts = 0;
      std::int64_t blocked_gets = 0;
      std::int64_t peak_occupancy = 0;
    };

    const CompiledSim& sim_;
    SimObserver* observer_ = nullptr;

    std::vector<std::int64_t> proc_latency_;  // scenario-resolved
    std::int64_t latency_sum_ = 0;            // saturating, for cycle_limit()
    std::int64_t max_cycles_ = 0;             // this run's resolved limit
    std::vector<ProcHot> procs_;
    std::vector<ChanHot> chans_;
    // Wait histograms are only touched when a wait episode closes — parked
    // outside the hot records. Compact (80 B each, see wait_histogram.h):
    // a steady-state channel waits for one or two distinct durations.
    std::vector<WaitHistogram> put_wait_;
    std::vector<WaitHistogram> get_wait_;

    CalendarQueue queue_;
    // Same-instant working set: pop_at() drains into scratch_, which is
    // heapified by key; events pushed for the current instant while it is
    // being processed join the heap, keeping the (index, kind) pop order.
    std::vector<std::uint32_t> scratch_;
    std::vector<std::int64_t> observed_times_;
    std::int64_t now_ = 0;
    bool in_instant_ = false;
    SimChannelId observe_ = -1;

    // Periodic steady-state detection (BatchOptions::detect_period): a
    // doubling-cadence snapshot of the full engine state, taken and
    // compared at observation boundaries. The copies double as the "state
    // at period start" the jump differences against; buffers persist
    // across runs, so a snapshot copies into storage it already owns.
    std::vector<ProcHot> snap_procs_;
    std::vector<ChanHot> snap_chans_;
    std::vector<WaitHistogram> snap_put_wait_;
    std::vector<WaitHistogram> snap_get_wait_;
    std::vector<std::pair<std::int64_t, std::uint32_t>> requeue_;
    std::int64_t snap_now_ = 0;
    std::int64_t snap_obs_ = 0;
    std::size_t snap_times_ = 0;
    std::size_t snap_queue_size_ = 0;
    bool snap_valid_ = false;
  };

 private:
  friend class Instance;

  // Flattened statement: kind 0 = get, 1 = put (arg = channel),
  // 2 = compute (arg = process; cycles resolve through the scenario's
  // process-latency array, which is what makes latency sweeps possible on
  // one compiled structure).
  struct Stmt {
    std::int32_t arg;
    std::uint8_t kind;
  };
  static constexpr std::uint8_t kStmtGet = 0;
  static constexpr std::uint8_t kStmtPut = 1;
  static constexpr std::uint8_t kStmtCompute = 2;

  std::vector<Stmt> code_;
  std::vector<std::int32_t> code_begin_;  // size P+1; program p = [begin[p], begin[p+1])
  std::vector<std::int32_t> producer_;
  std::vector<std::int32_t> consumer_;
  std::vector<std::int64_t> base_proc_latency_;
  std::vector<std::int64_t> base_chan_latency_;
  std::vector<std::int64_t> base_chan_capacity_;
  SimChannelId default_observe_ = -1;
  std::int64_t max_base_latency_ = 0;
};

/// Runs every scenario against the compiled structure. `pool` = nullptr
/// runs serially on the caller (still through the compiled engine); with a
/// pool, scenarios fan out with one Instance per worker slot. Results are
/// index-aligned with `scenarios` regardless of scheduling.
std::vector<ScenarioResult> simulate_batch(
    const CompiledSim& sim, const std::vector<SimScenario>& scenarios,
    const BatchOptions& opts = {}, exec::ThreadPool* pool = nullptr);

/// Exact comparison: integers by value, doubles by bit pattern, histograms
/// by count, sum, min, max and every bucket.
bool results_bit_identical(const ScenarioResult& a, const ScenarioResult& b);

/// Resolves names back in for reporting.
StallReport to_stall_report(const sysmodel::SystemModel& sys,
                            const ScenarioResult& result);

/// Merges one scenario's statistics into the global telemetry registry
/// under `prefix`: counters like "<prefix>.blocked_puts", per-channel
/// "<prefix>.channel.<name>.blocked_puts" and per-process
/// "<prefix>.process.<name>.waiting_cycles", wait-time histograms, and
/// peak-occupancy high-water gauges. No-op when telemetry is disabled.
void publish_metrics(const sysmodel::SystemModel& sys,
                     const ScenarioResult& result,
                     std::string_view prefix = "sim");

}  // namespace ermes::sim
