#include "sim/behavior.h"

#include <utility>

namespace ermes::sim {

BehaviorObserver::BehaviorObserver(
    const sysmodel::SystemModel& sys,
    std::vector<std::unique_ptr<Behavior>> behaviors)
    : behaviors_(std::move(behaviors)) {
  behaviors_.resize(static_cast<std::size_t>(sys.num_processes()));
  const auto num_chans = static_cast<std::size_t>(sys.num_channels());
  producer_.reserve(num_chans);
  consumer_.reserve(num_chans);
  for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
    producer_.push_back(sys.channel_source(c));
    consumer_.push_back(sys.channel_target(c));
  }
  in_flight_.resize(num_chans);
  buffered_.resize(num_chans);
}

void BehaviorObserver::on_reset() {
  for (Packet& packet : in_flight_) packet = {};
  for (std::deque<Packet>& queue : buffered_) queue.clear();
  for (const std::unique_ptr<Behavior>& b : behaviors_) {
    if (b) b->on_reset();
  }
}

void BehaviorObserver::on_put_begin(SimChannelId c) {
  const auto i = static_cast<std::size_t>(c);
  Behavior* b = behavior(producer_[i]);
  in_flight_[i] = b ? b->on_put(c) : Packet{};
}

void BehaviorObserver::on_write_landed(SimChannelId c) {
  const auto i = static_cast<std::size_t>(c);
  buffered_[i].push_back(std::move(in_flight_[i]));
  in_flight_[i] = {};
}

void BehaviorObserver::on_get(SimChannelId c) {
  // A FIFO get only fires with an item buffered, and a rendezvous channel
  // never buffers: the queue tells the two apart.
  const auto i = static_cast<std::size_t>(c);
  Packet packet;
  if (!buffered_[i].empty()) {
    packet = std::move(buffered_[i].front());
    buffered_[i].pop_front();
  } else {
    packet = std::move(in_flight_[i]);
    in_flight_[i] = {};
  }
  if (Behavior* b = behavior(consumer_[i])) b->on_get(c, packet);
}

void BehaviorObserver::on_compute(SimProcessId p) {
  if (Behavior* b = behavior(p)) b->on_compute();
}

void BehaviorObserver::on_loop_end(SimProcessId p) {
  if (Behavior* b = behavior(p)) b->on_loop_end();
}

}  // namespace ermes::sim
