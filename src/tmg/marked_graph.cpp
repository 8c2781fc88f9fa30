#include "tmg/marked_graph.h"

#include <cassert>

#include "util/str_cat.h"

namespace ermes::tmg {

TransitionId MarkedGraph::add_transition(std::string name,
                                         std::int64_t delay) {
  assert(delay >= 0);
  const TransitionId t = num_transitions();
  TransitionRec rec;
  rec.name = std::move(name);
  rec.delay = delay;
  transitions_.push_back(std::move(rec));
  return t;
}

PlaceId MarkedGraph::add_place(TransitionId producer, TransitionId consumer,
                               std::int64_t tokens, std::string name) {
  assert(valid_transition(producer) && valid_transition(consumer));
  assert(tokens >= 0);
  const PlaceId p = num_places();
  PlaceRec rec;
  rec.name = name.empty() ? util::str_cat("p", p) : std::move(name);
  rec.producer = producer;
  rec.consumer = consumer;
  rec.tokens = tokens;
  places_.push_back(std::move(rec));
  transitions_[static_cast<std::size_t>(producer)].out.push_back(p);
  transitions_[static_cast<std::size_t>(consumer)].in.push_back(p);
  return p;
}

void MarkedGraph::set_delay(TransitionId t, std::int64_t delay) {
  assert(valid_transition(t) && delay >= 0);
  transitions_[static_cast<std::size_t>(t)].delay = delay;
}

void MarkedGraph::set_tokens(PlaceId p, std::int64_t tokens) {
  assert(valid_place(p) && tokens >= 0);
  places_[static_cast<std::size_t>(p)].tokens = tokens;
}

std::int64_t MarkedGraph::total_tokens() const {
  std::int64_t total = 0;
  for (const PlaceRec& p : places_) total += p.tokens;
  return total;
}

std::vector<std::int64_t> MarkedGraph::initial_marking() const {
  std::vector<std::int64_t> marking(places_.size());
  for (std::size_t i = 0; i < places_.size(); ++i) {
    marking[i] = places_[i].tokens;
  }
  return marking;
}

graph::Digraph MarkedGraph::transition_graph() const {
  graph::Digraph g;
  g.reserve(num_transitions(), num_places());
  g.add_nodes(num_transitions());
  for (TransitionId t = 0; t < num_transitions(); ++t) {
    g.set_name(t, transition_name(t));
  }
  for (PlaceId p = 0; p < num_places(); ++p) {
    [[maybe_unused]] const graph::ArcId a =
        g.add_arc(producer(p), consumer(p));
    assert(a == p);  // arc ids mirror place ids by construction
  }
  return g;
}

}  // namespace ermes::tmg
