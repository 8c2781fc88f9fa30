#include "sim_reference/kernel.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/log.h"
#include "util/period.h"

namespace ermes::sim {

// Min-heap comparator (std::push_heap builds a max-heap, so invert). The
// order (time, index, kind) is total — a wake for process i and a transfer
// completion for channel i at the same instant pop in a defined sequence —
// so the event trace is a function of the event set alone, never of heap
// internals. sim::CompiledSim encodes the identical order in its packed
// event keys; the differential suite holds both engines to it.
static bool event_after(const std::int64_t a_time, std::int32_t a_idx,
                        int a_kind, const std::int64_t b_time,
                        std::int32_t b_idx, int b_kind) {
  if (a_time != b_time) return a_time > b_time;
  if (a_idx != b_idx) return a_idx > b_idx;
  return a_kind > b_kind;  // kProcessWake before kTransferDone
}

SimProcessId Kernel::add_process(std::string name, Program program,
                                 std::unique_ptr<Behavior> behavior) {
  assert(!started_);
  const SimProcessId p = num_processes();
  ProcessState state;
  state.name = std::move(name);
  state.program = std::move(program);
  state.behavior = std::move(behavior);
  procs_.push_back(std::move(state));
  return p;
}

SimChannelId Kernel::add_channel(std::string name, SimProcessId producer,
                                 SimProcessId consumer, std::int64_t latency,
                                 std::int64_t capacity) {
  assert(!started_);
  assert(producer >= 0 && producer < num_processes());
  assert(consumer >= 0 && consumer < num_processes());
  assert(producer != consumer && latency >= 0 && capacity >= 0);
  const SimChannelId c = num_channels();
  ChannelState state;
  state.name = std::move(name);
  state.producer = producer;
  state.consumer = consumer;
  state.latency = latency;
  state.capacity = capacity;
  chans_.push_back(std::move(state));
  return c;
}

void Kernel::push_event(std::int64_t time, Event::Kind kind,
                        std::int32_t index) {
  heap_.push_back(Event{time, kind, index});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Event& a, const Event& b) {
                   return event_after(a.time, a.index,
                                      static_cast<int>(a.kind), b.time,
                                      b.index, static_cast<int>(b.kind));
                 });
}

void Kernel::trace_proc(SimProcessId p) {
  if (!trace_hook_) return;
  TraceEvent event;
  event.time = now_;
  event.kind = TraceEvent::Kind::kProcessState;
  event.index = p;
  event.value = static_cast<std::int32_t>(
      procs_[static_cast<std::size_t>(p)].status);
  trace_hook_(event);
}

void Kernel::trace_chan(SimChannelId c) {
  if (!trace_hook_) return;
  const ChannelState& chan = chans_[static_cast<std::size_t>(c)];
  TraceEvent event;
  event.time = now_;
  event.kind = TraceEvent::Kind::kChannelOccupancy;
  event.index = c;
  event.value = chan.capacity > 0
                    ? static_cast<std::int32_t>(chan.buffer.size())
                    : (chan.transfer_in_progress ? 1 : 0);
  trace_hook_(event);
}

void Kernel::record_observation(SimChannelId c) {
  ChannelState& chan = chans_[static_cast<std::size_t>(c)];
  ++chan.transfers_completed;
  chan.last_transfer_completed_at = now_;
  if (c == observe_) observed_times_.push_back(now_);
}

void Kernel::reset() {
  now_ = 0;
  started_ = false;
  heap_.clear();
  observed_times_.clear();
  observe_ = -1;
  for (ProcessState& proc : procs_) {
    proc.status = ProcessState::Status::kReady;
    proc.pc = 0;
    proc.wake_at = 0;
    proc.waiting_on = -1;
    proc.loop_iterations = 0;
    proc.stall_cycles = 0;
    proc.compute_cycles = 0;
    proc.cycles_in_status.fill(0);
    proc.status_since = 0;
  }
  for (ChannelState& chan : chans_) {
    chan.producer_waiting = chan.consumer_waiting = false;
    chan.transfer_in_progress = false;
    chan.in_flight = {};
    chan.buffer.clear();
    chan.writes_in_flight = 0;
    chan.transfers_completed = 0;
    chan.last_transfer_completed_at = -1;
    chan.producer_stall_cycles = chan.consumer_stall_cycles = 0;
    chan.blocked_puts = chan.blocked_gets = 0;
    chan.put_wait.reset();
    chan.get_wait.reset();
    chan.peak_occupancy = 0;
  }
}

// Every in-run status change funnels through here so the per-status time
// split stays consistent with the event clock.
void Kernel::set_status(ProcessState& proc, ProcessState::Status status) {
  proc.cycles_in_status[static_cast<std::size_t>(proc.status)] +=
      now_ - proc.status_since;
  proc.status_since = now_;
  proc.status = status;
}

void Kernel::advance(SimProcessId p) {
  ProcessState& proc = procs_[static_cast<std::size_t>(p)];
  if (proc.program.empty()) return;  // inert process
  while (true) {
    if (proc.pc >= proc.program.size()) {
      proc.pc = 0;
      ++proc.loop_iterations;
      if (proc.behavior) proc.behavior->on_loop_end();
    }
    const Statement& stmt = proc.program[proc.pc];
    switch (stmt.kind) {
      case Statement::Kind::kCompute: {
        proc.compute_cycles += stmt.cycles;
        if (stmt.cycles == 0) {
          if (proc.behavior) proc.behavior->on_compute();
          ++proc.pc;
          continue;
        }
        set_status(proc, ProcessState::Status::kComputing);
        proc.wake_at = now_ + stmt.cycles;
        trace_proc(p);
        heap_.push_back(Event{proc.wake_at, Event::Kind::kProcessWake, p});
        std::push_heap(heap_.begin(), heap_.end(),
                       [](const Event& a, const Event& b) {
                         return event_after(a.time, a.index,
                                            static_cast<int>(a.kind), b.time,
                                            b.index, static_cast<int>(b.kind));
                       });
        return;
      }
      case Statement::Kind::kGet: {
        ChannelState& chan = chans_[static_cast<std::size_t>(stmt.channel)];
        assert(chan.consumer == p);
        chan.consumer_waiting = true;
        chan.consumer_wait_since = now_;
        set_status(proc, ProcessState::Status::kWaiting);
        proc.waiting_on = stmt.channel;
        trace_proc(p);
        if (chan.capacity > 0) {
          try_fifo_get(stmt.channel);
          if (proc.status != ProcessState::Status::kReady) return;
          ++proc.pc;
          continue;  // data was buffered: the get retired instantly
        }
        try_rendezvous(stmt.channel);
        return;
      }
      case Statement::Kind::kPut: {
        ChannelState& chan = chans_[static_cast<std::size_t>(stmt.channel)];
        assert(chan.producer == p);
        chan.producer_waiting = true;
        chan.producer_wait_since = now_;
        set_status(proc, ProcessState::Status::kWaiting);
        proc.waiting_on = stmt.channel;
        trace_proc(p);
        if (chan.capacity > 0) {
          try_fifo_put(stmt.channel);
          return;
        }
        try_rendezvous(stmt.channel);
        return;
      }
    }
  }
}

void Kernel::try_rendezvous(SimChannelId c) {
  ChannelState& chan = chans_[static_cast<std::size_t>(c)];
  if (!chan.producer_waiting || !chan.consumer_waiting ||
      chan.transfer_in_progress) {
    return;
  }
  // Both sides present: start the transfer.
  chan.transfer_in_progress = true;
  ProcessState& producer = procs_[static_cast<std::size_t>(chan.producer)];
  ProcessState& consumer = procs_[static_cast<std::size_t>(chan.consumer)];
  const std::int64_t producer_stall = now_ - chan.producer_wait_since;
  const std::int64_t consumer_stall = now_ - chan.consumer_wait_since;
  chan.producer_stall_cycles += producer_stall;
  chan.consumer_stall_cycles += consumer_stall;
  producer.stall_cycles += producer_stall;
  consumer.stall_cycles += consumer_stall;
  chan.put_wait.observe(producer_stall);
  chan.get_wait.observe(consumer_stall);
  if (producer_stall > 0) ++chan.blocked_puts;
  if (consumer_stall > 0) ++chan.blocked_gets;
  chan.in_flight = producer.behavior ? producer.behavior->on_put(c) : Packet{};
  chan.peak_occupancy = std::max<std::int64_t>(chan.peak_occupancy, 1);
  set_status(producer, ProcessState::Status::kTransferring);
  set_status(consumer, ProcessState::Status::kTransferring);
  producer.wake_at = consumer.wake_at = now_ + chan.latency;
  trace_proc(chan.producer);
  trace_proc(chan.consumer);
  trace_chan(c);
  push_event(now_ + chan.latency, Event::Kind::kTransferDone, c);
}

// FIFO put: needs a free slot; the producer is busy writing for `latency`.
void Kernel::try_fifo_put(SimChannelId c) {
  ChannelState& chan = chans_[static_cast<std::size_t>(c)];
  if (!chan.producer_waiting || chan.transfer_in_progress) return;
  if (static_cast<std::int64_t>(chan.buffer.size()) + chan.writes_in_flight >=
      chan.capacity) {
    return;  // buffer full: stay blocked
  }
  ProcessState& producer = procs_[static_cast<std::size_t>(chan.producer)];
  const std::int64_t stall = now_ - chan.producer_wait_since;
  chan.producer_stall_cycles += stall;
  producer.stall_cycles += stall;
  chan.put_wait.observe(stall);
  if (stall > 0) ++chan.blocked_puts;
  chan.producer_waiting = false;
  chan.transfer_in_progress = true;
  ++chan.writes_in_flight;
  chan.peak_occupancy = std::max(
      chan.peak_occupancy,
      static_cast<std::int64_t>(chan.buffer.size()) + chan.writes_in_flight);
  chan.in_flight = producer.behavior ? producer.behavior->on_put(c) : Packet{};
  set_status(producer, ProcessState::Status::kTransferring);
  producer.wake_at = now_ + chan.latency;
  trace_proc(chan.producer);
  push_event(now_ + chan.latency, Event::Kind::kTransferDone, c);
}

// FIFO get: pops instantly when data is buffered; the caller advances.
void Kernel::try_fifo_get(SimChannelId c) {
  ChannelState& chan = chans_[static_cast<std::size_t>(c)];
  if (!chan.consumer_waiting || chan.buffer.empty()) return;
  ProcessState& consumer = procs_[static_cast<std::size_t>(chan.consumer)];
  const std::int64_t stall = now_ - chan.consumer_wait_since;
  chan.consumer_stall_cycles += stall;
  consumer.stall_cycles += stall;
  chan.get_wait.observe(stall);
  if (stall > 0) ++chan.blocked_gets;
  chan.consumer_waiting = false;
  const Packet packet = std::move(chan.buffer.front());
  chan.buffer.pop_front();
  if (consumer.behavior) consumer.behavior->on_get(c, packet);
  record_observation(c);
  set_status(consumer, ProcessState::Status::kReady);
  consumer.waiting_on = -1;
  trace_proc(chan.consumer);
  trace_chan(c);
  // A slot just freed: restart a blocked producer.
  try_fifo_put(c);
}

// A FIFO write finished: the item lands in the buffer; the producer moves
// on; a blocked consumer is served immediately.
void Kernel::complete_fifo_write(SimChannelId c) {
  ChannelState& chan = chans_[static_cast<std::size_t>(c)];
  assert(chan.transfer_in_progress && chan.writes_in_flight == 1);
  chan.transfer_in_progress = false;
  --chan.writes_in_flight;
  chan.buffer.push_back(std::move(chan.in_flight));
  chan.in_flight = {};
  trace_chan(c);

  ProcessState& producer = procs_[static_cast<std::size_t>(chan.producer)];
  set_status(producer, ProcessState::Status::kReady);
  producer.waiting_on = -1;
  ++producer.pc;

  if (chan.consumer_waiting) {
    ProcessState& consumer = procs_[static_cast<std::size_t>(chan.consumer)];
    const std::int64_t stall = now_ - chan.consumer_wait_since;
    chan.consumer_stall_cycles += stall;
    consumer.stall_cycles += stall;
    chan.get_wait.observe(stall);
    if (stall > 0) ++chan.blocked_gets;
    chan.consumer_waiting = false;
    const Packet packet = std::move(chan.buffer.front());
    chan.buffer.pop_front();
    if (consumer.behavior) consumer.behavior->on_get(c, packet);
    record_observation(c);
    set_status(consumer, ProcessState::Status::kReady);
    consumer.waiting_on = -1;
    trace_proc(chan.consumer);
    trace_chan(c);
    ++consumer.pc;
    advance(chan.consumer);
  }
  trace_proc(chan.producer);
  advance(chan.producer);
}

void Kernel::complete_transfer(SimChannelId c) {
  ChannelState& chan = chans_[static_cast<std::size_t>(c)];
  if (chan.capacity > 0) {
    complete_fifo_write(c);
    return;
  }
  assert(chan.transfer_in_progress);
  chan.transfer_in_progress = false;
  chan.producer_waiting = chan.consumer_waiting = false;
  ++chan.transfers_completed;
  chan.last_transfer_completed_at = now_;
  if (c == observe_) observed_times_.push_back(now_);

  ProcessState& producer = procs_[static_cast<std::size_t>(chan.producer)];
  ProcessState& consumer = procs_[static_cast<std::size_t>(chan.consumer)];
  if (consumer.behavior) consumer.behavior->on_get(c, chan.in_flight);
  chan.in_flight = {};

  set_status(producer, ProcessState::Status::kReady);
  set_status(consumer, ProcessState::Status::kReady);
  producer.waiting_on = consumer.waiting_on = -1;
  trace_proc(chan.producer);
  trace_proc(chan.consumer);
  trace_chan(c);
  ++producer.pc;
  ++consumer.pc;
  advance(chan.producer);
  advance(chan.consumer);
}

DeadlockInfo Kernel::detect_deadlock() const {
  DeadlockInfo info;
  info.deadlocked = true;
  info.at_cycle = now_;
  // Wait-for walk: a process waiting on channel c waits for c's other
  // endpoint. Start anywhere blocked; a cycle must exist when no event is
  // pending and some process is waiting.
  std::vector<std::int32_t> seen_at(procs_.size(), -1);
  for (SimProcessId start = 0; start < num_processes(); ++start) {
    if (procs_[static_cast<std::size_t>(start)].status !=
        ProcessState::Status::kWaiting) {
      continue;
    }
    std::vector<SimProcessId> walk;
    SimProcessId p = start;
    while (p >= 0 &&
           procs_[static_cast<std::size_t>(p)].status ==
               ProcessState::Status::kWaiting &&
           seen_at[static_cast<std::size_t>(p)] == -1) {
      seen_at[static_cast<std::size_t>(p)] =
          static_cast<std::int32_t>(walk.size());
      walk.push_back(p);
      const SimChannelId c = procs_[static_cast<std::size_t>(p)].waiting_on;
      const ChannelState& chan = chans_[static_cast<std::size_t>(c)];
      p = (chan.producer == p) ? chan.consumer : chan.producer;
    }
    if (p >= 0 && seen_at[static_cast<std::size_t>(p)] != -1 &&
        procs_[static_cast<std::size_t>(p)].status ==
            ProcessState::Status::kWaiting) {
      // Cycle found: from p's position in walk to the end (only if the
      // repeat is within this walk).
      const auto pos =
          static_cast<std::size_t>(seen_at[static_cast<std::size_t>(p)]);
      if (pos < walk.size() && walk[pos] == p) {
        for (std::size_t i = pos; i < walk.size(); ++i) {
          info.processes.push_back(walk[i]);
          info.channels.push_back(
              procs_[static_cast<std::size_t>(walk[i])].waiting_on);
        }
        return info;
      }
    }
  }
  return info;  // deadlocked but no pure wait cycle identified
}

RunResult Kernel::run(SimChannelId observe, std::int64_t target_transfers,
                      std::int64_t max_cycles) {
  obs::ObsSpan span("sim.run", "sim");
  RunResult result;
  observe_ = observe;
  if (!started_) {
    started_ = true;
    // At most one pending wake per process plus one in-flight transfer per
    // channel; reserving up front keeps the event heap allocation-free for
    // the whole run.
    heap_.reserve(procs_.size() + chans_.size());
    for (ProcessState& proc : procs_) {
      if (proc.behavior) proc.behavior->on_reset();
    }
    for (SimProcessId p = 0; p < num_processes(); ++p) advance(p);
  }

  auto heap_cmp = [](const Event& a, const Event& b) {
    return event_after(a.time, a.index, static_cast<int>(a.kind), b.time,
                       b.index, static_cast<int>(b.kind));
  };

  std::int64_t observed_target =
      observe >= 0
          ? chans_[static_cast<std::size_t>(observe)].transfers_completed +
                target_transfers
          : target_transfers;

  while (true) {
    if (observe >= 0 &&
        chans_[static_cast<std::size_t>(observe)].transfers_completed >=
            observed_target) {
      break;
    }
    if (heap_.empty()) {
      result.deadlock = detect_deadlock();
      break;
    }
    const std::int64_t next_time = heap_.front().time;
    if (next_time > max_cycles) {
      result.hit_cycle_limit = true;
      break;
    }
    now_ = next_time;
    // Guard against zero-latency livelock at one instant.
    std::int64_t events_at_instant = 0;
    while (!heap_.empty() && heap_.front().time == now_) {
      std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
      const Event event = heap_.back();
      heap_.pop_back();
      if (event.kind == Event::Kind::kProcessWake) {
        ProcessState& proc = procs_[static_cast<std::size_t>(event.index)];
        if (proc.status == ProcessState::Status::kComputing &&
            proc.wake_at == now_) {
          if (proc.behavior) proc.behavior->on_compute();
          set_status(proc, ProcessState::Status::kReady);
          trace_proc(event.index);
          ++proc.pc;
          advance(event.index);
        }
      } else {
        complete_transfer(event.index);
      }
      if (++events_at_instant > 1'000'000) {
        ERMES_LOG(kError) << "kernel: livelock at cycle " << now_
                          << " (zero-latency loop?)";
        result.hit_cycle_limit = true;
        break;
      }
    }
    if (result.hit_cycle_limit) break;
  }

  // Close the open status intervals so the per-status splits sum to now_.
  for (ProcessState& proc : procs_) {
    proc.cycles_in_status[static_cast<std::size_t>(proc.status)] +=
        now_ - proc.status_since;
    proc.status_since = now_;
  }

  result.cycles = now_;
  if (observe >= 0) {
    result.observed_count =
        chans_[static_cast<std::size_t>(observe)].transfers_completed;
  }
  result.measured_cycle_time = util::estimate_period(observed_times_);
  if (result.measured_cycle_time > 0.0) {
    result.throughput = 1.0 / result.measured_cycle_time;
  }
  return result;
}

void Kernel::publish_metrics(std::string_view prefix) const {
  if (!obs::enabled()) return;
  obs::Registry& registry = obs::Registry::global();
  const std::string base(prefix);

  std::int64_t transfers = 0, blocked_puts = 0, blocked_gets = 0;
  obs::HistogramData all_put_wait, all_get_wait;
  for (const ChannelState& chan : chans_) {
    transfers += chan.transfers_completed;
    blocked_puts += chan.blocked_puts;
    blocked_gets += chan.blocked_gets;
    all_put_wait.merge(chan.put_wait);
    all_get_wait.merge(chan.get_wait);
    const std::string cbase = base + ".channel." + chan.name;
    registry.counter(cbase + ".transfers").add(chan.transfers_completed);
    registry.counter(cbase + ".blocked_puts").add(chan.blocked_puts);
    registry.counter(cbase + ".blocked_gets").add(chan.blocked_gets);
    registry.counter(cbase + ".put_wait_cycles")
        .add(chan.producer_stall_cycles);
    registry.counter(cbase + ".get_wait_cycles")
        .add(chan.consumer_stall_cycles);
    registry.histogram(cbase + ".put_wait").record(chan.put_wait);
    registry.histogram(cbase + ".get_wait").record(chan.get_wait);
  }

  std::int64_t stall_cycles = 0;
  using Status = ProcessState::Status;
  for (const ProcessState& proc : procs_) {
    stall_cycles += proc.stall_cycles;
    const std::string pbase = base + ".process." + proc.name;
    registry.counter(pbase + ".ready_cycles")
        .add(proc.cycles_in_status[static_cast<std::size_t>(Status::kReady)]);
    registry.counter(pbase + ".compute_cycles")
        .add(proc.cycles_in_status[static_cast<std::size_t>(
            Status::kComputing)]);
    registry.counter(pbase + ".waiting_cycles")
        .add(proc.cycles_in_status[static_cast<std::size_t>(
            Status::kWaiting)]);
    registry.counter(pbase + ".transfer_cycles")
        .add(proc.cycles_in_status[static_cast<std::size_t>(
            Status::kTransferring)]);
  }

  registry.counter(base + ".runs").add(1);
  registry.counter(base + ".cycles").add(now_);
  registry.counter(base + ".transfers").add(transfers);
  registry.counter(base + ".blocked_puts").add(blocked_puts);
  registry.counter(base + ".blocked_gets").add(blocked_gets);
  registry.counter(base + ".rendezvous_waits").add(blocked_puts + blocked_gets);
  registry.counter(base + ".stall_cycles").add(stall_cycles);
  registry.histogram(base + ".put_wait").record(all_put_wait);
  registry.histogram(base + ".get_wait").record(all_get_wait);
}

}  // namespace ermes::sim
