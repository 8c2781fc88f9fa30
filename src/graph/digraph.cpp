#include "graph/digraph.h"

#include <cassert>

#include "util/str_cat.h"

namespace ermes::graph {

NodeId Digraph::add_nodes(std::int32_t count) {
  assert(count >= 1);
  const NodeId first = num_nodes();
  nodes_.resize(nodes_.size() + static_cast<std::size_t>(count));
  for (NodeId n = first; n < num_nodes(); ++n) {
    nodes_[static_cast<std::size_t>(n)].name = util::str_cat("n", n);
  }
  return first;
}

NodeId Digraph::add_node(std::string name) {
  const NodeId n = add_nodes(1);
  set_name(n, std::move(name));
  return n;
}

ArcId Digraph::add_arc(NodeId tail, NodeId head) {
  assert(valid_node(tail) && valid_node(head));
  const ArcId a = num_arcs();
  arcs_.push_back(ArcRec{tail, head});
  nodes_[static_cast<std::size_t>(tail)].out.push_back(a);
  nodes_[static_cast<std::size_t>(head)].in.push_back(a);
  return a;
}

}  // namespace ermes::graph
