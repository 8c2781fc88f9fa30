#include "ilp/mckp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/span.h"

namespace ermes::ilp {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// An undominated item of a group still open to search. `weight` is shifted
// so that the group's lightest item weighs 0.
struct Item {
  double weight = 0.0;
  double value = 0.0;
  std::size_t index = 0;  // position in the problem's group
};

struct OpenGroup {
  std::size_t group = 0;    // index in the problem
  std::vector<Item> items;  // weight and value strictly increasing
};

// One step along a group's upper convex hull of (weight, value).
struct Increment {
  double slope = 0.0;
  double weight = 0.0;
  double value = 0.0;
  std::size_t depth = 0;  // search position of the group
  std::size_t item = 0;   // the group's item the increment reaches
};

// The group's items with the dominated ones removed (weight >= and value <=
// another item's; of identical items the lowest index stays), shifted by the
// group's minimum weight and sorted by weight. Values then increase strictly.
std::vector<Item> undominated(const std::vector<MckpItem>& group,
                              double min_weight) {
  std::vector<Item> items;
  items.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    items.push_back({group[i].weight - min_weight, group[i].value, i});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    if (a.value != b.value) return a.value > b.value;
    return a.index < b.index;
  });
  std::vector<Item> kept;
  for (const Item& item : items) {
    if (kept.empty() || item.value > kept.back().value) kept.push_back(item);
  }
  return kept;
}

double slope(const Item& from, const Item& to) {
  return (to.value - from.value) / (to.weight - from.weight);
}

// Exact MCKP branch-and-bound; see mckp.h for the method and the canonical
// optimum it returns.
class Solver {
 public:
  explicit Solver(const MckpProblem& problem) : problem_(problem) {
    choice_.assign(problem.groups.size(), 0);
    double room = problem.capacity;
    for (std::size_t g = 0; g < problem.groups.size(); ++g) {
      const std::vector<MckpItem>& group = problem.groups[g];
      if (group.empty()) return;  // nothing to pick: infeasible
      double min_weight = group.front().weight;
      for (const MckpItem& item : group) {
        min_weight = std::min(min_weight, item.weight);
      }
      room -= min_weight;
      std::vector<Item> items = undominated(group, min_weight);
      if (items.size() == 1) {
        // One item dominates the rest: decided without search.
        choice_[g] = items.front().index;
        fixed_value_ += items.front().value;
        continue;
      }
      open_.push_back({g, std::move(items)});
    }
    if (!(room >= 0.0)) return;  // even the lightest items overflow
    feasible_ = true;
    room_ = room;

    // Search the groups with the widest value range first: their choice
    // moves the bound most.
    std::sort(open_.begin(), open_.end(),
              [](const OpenGroup& a, const OpenGroup& b) {
                const double ra = a.items.back().value - a.items.front().value;
                const double rb = b.items.back().value - b.items.front().value;
                if (ra != rb) return ra > rb;
                return a.group < b.group;
              });

    const std::size_t depths = open_.size();
    base_.assign(depths + 1, 0.0);
    double scale = std::abs(fixed_value_);
    for (std::size_t d = depths; d-- > 0;) {
      const std::vector<Item>& items = open_[d].items;
      base_[d] = base_[d + 1] + items.front().value;
      scale += std::max(std::abs(items.front().value),
                        std::abs(items.back().value));
      // Upper convex hull from the lightest item; slopes strictly decrease
      // along it, so the greedy below takes each group's increments in
      // order.
      std::vector<std::size_t> hull{0};
      for (std::size_t j = 1; j < items.size(); ++j) {
        while (hull.size() >= 2 &&
               slope(items[hull.back()], items[j]) >=
                   slope(items[hull[hull.size() - 2]], items[hull.back()])) {
          hull.pop_back();
        }
        hull.push_back(j);
      }
      for (std::size_t h = 1; h < hull.size(); ++h) {
        const Item& from = items[hull[h - 1]];
        const Item& to = items[hull[h]];
        increments_.push_back({slope(from, to), to.weight - from.weight,
                               to.value - from.value, d, hull[h]});
      }
    }
    std::sort(increments_.begin(), increments_.end(),
              [](const Increment& a, const Increment& b) {
                if (a.slope != b.slope) return a.slope > b.slope;
                return a.depth < b.depth;
              });
    // Slack for rounding in the bound: pruning must never cut an optimum.
    tolerance_ = 1e-9 * std::max(1.0, scale);
  }

  bool feasible() const { return feasible_; }
  std::int64_t nodes() const { return nodes_; }

  // LP bound of the subtree below `depth` with `room` capacity left and
  // `value` collected: each open group at or past `depth` starts at its
  // lightest item, then hull increments are bought in slope order.
  double bound(std::size_t depth, double room, double value) const {
    value += base_[depth];
    for (const Increment& inc : increments_) {
      if (inc.depth < depth) continue;
      if (inc.weight <= room) {
        room -= inc.weight;
        value += inc.value;
      } else {
        value += inc.value * (room / inc.weight);
        break;
      }
    }
    return value;
  }

  double root_bound() const { return bound(0, room_, fixed_value_); }

  MckpSolution solve() {
    MckpSolution out;
    if (!feasible_) return out;
    path_.assign(open_.size(), 0);
    seed_incumbent();
    search(0, room_, fixed_value_);
    out.feasible = true;
    out.choice = best_choice_;
    for (std::size_t g = 0; g < problem_.groups.size(); ++g) {
      out.value += problem_.groups[g][out.choice[g]].value;
      out.weight += problem_.groups[g][out.choice[g]].weight;
    }
    return out;
  }

 private:
  // A first incumbent: the root LP solution rounded down (its fractional
  // group keeps the lighter hull point), then the leftover capacity spent
  // greedily on the largest value gain that still fits.
  void seed_incumbent() {
    double room = room_;
    for (const Increment& inc : increments_) {
      if (inc.weight > room) break;
      room -= inc.weight;
      path_[inc.depth] = inc.item;
    }
    while (true) {
      std::size_t best_depth = open_.size(), best_item = 0;
      double best_gain = 0.0;
      for (std::size_t d = 0; d < open_.size(); ++d) {
        const std::vector<Item>& items = open_[d].items;
        const Item& at = items[path_[d]];
        for (std::size_t j = path_[d] + 1; j < items.size(); ++j) {
          if (items[j].weight - at.weight > room) break;
          if (items[j].value - at.value > best_gain) {
            best_gain = items[j].value - at.value;
            best_depth = d;
            best_item = j;
          }
        }
      }
      if (best_depth == open_.size()) break;
      const std::vector<Item>& items = open_[best_depth].items;
      room -= items[best_item].weight - items[path_[best_depth]].weight;
      path_[best_depth] = best_item;
    }
    double value = fixed_value_;
    room = room_;
    for (std::size_t d = 0; d < open_.size(); ++d) {
      value += open_[d].items[path_[d]].value;
      room -= open_[d].items[path_[d]].weight;
    }
    if (room >= 0.0) offer(room, value);
  }

  void search(std::size_t depth, double room, double value) {
    ++nodes_;
    if (depth == open_.size()) {
      offer(room, value);
      return;
    }
    // Most valuable item first.
    const std::vector<Item>& items = open_[depth].items;
    for (std::size_t j = items.size(); j-- > 0;) {
      if (items[j].weight > room) continue;
      const double next_room = room - items[j].weight;
      const double next_value = value + items[j].value;
      if (!promising(depth + 1, next_room, next_value)) continue;
      path_[depth] = j;
      search(depth + 1, next_room, next_value);
    }
  }

  // False when no completion of the partial choice can match the
  // incumbent under the canonical order.
  bool promising(std::size_t depth, double room, double value) const {
    if (!have_best_) return true;
    return bound(depth, room, value) + tolerance_ >= best_value_;
  }

  void offer(double room, double value) {
    for (std::size_t d = 0; d < open_.size(); ++d) {
      choice_[open_[d].group] = open_[d].items[path_[d]].index;
    }
    if (have_best_) {
      if (value != best_value_) {
        if (value < best_value_) return;
      } else if (room != best_room_) {
        if (room < best_room_) return;  // heavier
      } else if (!(choice_ < best_choice_)) {
        return;
      }
    }
    have_best_ = true;
    best_value_ = value;
    best_room_ = room;
    best_choice_ = choice_;
  }

  const MckpProblem& problem_;
  bool feasible_ = false;
  double room_ = 0.0;         // capacity left after every group's lightest item
  double fixed_value_ = 0.0;  // value of the groups decided up front
  std::vector<OpenGroup> open_;        // in search order
  std::vector<double> base_;           // base_[d]: lightest values of d..end
  std::vector<Increment> increments_;  // by slope, steepest first
  double tolerance_ = 0.0;

  std::vector<std::size_t> path_;    // item per open group on the DFS path
  std::vector<std::size_t> choice_;  // scratch: full choice vector
  std::int64_t nodes_ = 0;
  bool have_best_ = false;
  double best_value_ = 0.0;
  double best_room_ = 0.0;
  std::vector<std::size_t> best_choice_;
};

}  // namespace

MckpSolution solve_mckp(const MckpProblem& problem) {
  obs::ObsSpan span("ilp.solve", "ilp");
  obs::count("ilp.solves");
  Solver solver(problem);
  MckpSolution out = solver.solve();
  obs::count("ilp.bnb_nodes", solver.nodes());
  obs::observe("ilp.bnb_nodes_per_solve", solver.nodes());
  return out;
}

double mckp_lp_bound(const MckpProblem& problem) {
  const Solver solver(problem);
  return solver.feasible() ? solver.root_bound() : kNegInf;
}

MckpSolution solve_mckp_dp(const MckpProblem& problem) {
  MckpSolution out;
  // Weights may be negative (e.g. a latency *gain* frees budget). Shift each
  // group by its minimum weight so the DP runs over non-negative integers;
  // the capacity shrinks by the total shift.
  double total_shift = 0.0;
  MckpProblem shifted = problem;
  for (auto& group : shifted.groups) {
    if (group.empty()) return out;  // no choice possible: infeasible
    double min_w = group.front().weight;
    for (const MckpItem& item : group) min_w = std::min(min_w, item.weight);
    for (MckpItem& item : group) item.weight -= min_w;
    total_shift += min_w;
  }
  shifted.capacity -= total_shift;
  const MckpSolution inner = solve_mckp_dp_nonneg(shifted);
  if (!inner.feasible) return out;
  out = inner;
  out.weight += total_shift;
  return out;
}

MckpSolution solve_mckp_dp_nonneg(const MckpProblem& problem) {
  MckpSolution out;
  const auto cap = static_cast<std::int64_t>(std::floor(problem.capacity));
  if (cap < 0) return out;

  // best[w] = max value using exactly the groups processed so far with total
  // weight <= w is the usual relaxation; we track exact weights and recover
  // choices with a parent table.
  const auto width = static_cast<std::size_t>(cap) + 1;
  std::vector<double> best(width, kNegInf);
  best[0] = 0.0;
  std::vector<std::vector<std::int32_t>> parent;  // per group: chosen item at w

  for (const auto& group : problem.groups) {
    std::vector<double> next(width, kNegInf);
    std::vector<std::int32_t> choice_at(width, -1);
    for (std::size_t i = 0; i < group.size(); ++i) {
      const double wd = group[i].weight;
      assert(wd >= 0.0 && std::abs(wd - std::round(wd)) < 1e-9);
      const auto w = static_cast<std::int64_t>(std::llround(wd));
      if (w > cap) continue;
      for (std::size_t from = 0; from + static_cast<std::size_t>(w) < width;
           ++from) {
        if (best[from] == kNegInf) continue;
        const std::size_t to = from + static_cast<std::size_t>(w);
        const double cand = best[from] + group[i].value;
        if (cand > next[to]) {
          next[to] = cand;
          choice_at[to] = static_cast<std::int32_t>(i);
        }
      }
    }
    best = std::move(next);
    parent.push_back(std::move(choice_at));
  }

  // Best reachable weight.
  std::size_t best_w = width;
  for (std::size_t w = 0; w < width; ++w) {
    if (best[w] == kNegInf) continue;
    if (best_w == width || best[w] > best[best_w]) best_w = w;
  }
  if (best_w == width) return out;

  out.feasible = true;
  out.value = best[best_w];
  out.choice.assign(problem.groups.size(), 0);
  // Walk back through the groups.
  std::size_t w = best_w;
  for (std::size_t g = problem.groups.size(); g-- > 0;) {
    const std::int32_t item = parent[g][w];
    assert(item >= 0);
    out.choice[g] = static_cast<std::size_t>(item);
    const auto item_w = static_cast<std::size_t>(
        std::llround(problem.groups[g][static_cast<std::size_t>(item)].weight));
    out.weight += static_cast<double>(item_w);
    w -= item_w;
  }
  return out;
}

}  // namespace ermes::ilp
