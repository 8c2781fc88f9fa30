#include "synth/pareto_gen.h"

#include <algorithm>
#include <cmath>

#include "util/str_cat.h"

namespace ermes::synth {

using sysmodel::Implementation;
using sysmodel::ParetoSet;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

ParetoSet generate_pareto_set(std::int64_t base_latency, double base_area,
                              std::size_t points, util::Rng& rng,
                              const ParetoGenConfig& config) {
  points = std::max<std::size_t>(1, points);
  ParetoSet set;
  // Point k (0-based) halves the latency k times relative to the base and
  // multiplies the area accordingly. The base point is the slowest/smallest.
  for (std::size_t k = 0; k < points; ++k) {
    Implementation impl;
    impl.name = util::str_cat("u", std::size_t{1} << k);  // unroll factor
    const double speedup = std::pow(2.0, static_cast<double>(k)) *
                           (1.0 + rng.uniform_real(-config.jitter / 2,
                                                   config.jitter / 2));
    impl.latency = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(
               static_cast<double>(base_latency) / speedup)));
    const double factor =
        std::pow(config.area_per_speedup, static_cast<double>(k)) *
        (1.0 + rng.uniform_real(-config.jitter, config.jitter));
    impl.area = base_area * factor;
    set.add(impl);
  }
  set.prune_to_frontier();
  return set;
}

std::size_t attach_pareto_sets(SystemModel& sys, std::uint64_t seed,
                               const ParetoGenConfig& config) {
  util::Rng rng(seed);
  std::size_t total = 0;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (sys.is_source(p) || sys.is_sink(p) || sys.primed(p)) continue;
    if (sys.process_name(p).rfind("relay", 0) == 0) continue;
    const std::size_t points = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(config.min_points),
        static_cast<std::int64_t>(config.max_points)));
    const double base_area =
        sys.area(p) > 0.0 ? sys.area(p)
                          : 0.01 * static_cast<double>(sys.latency(p) + 1);
    ParetoSet set =
        generate_pareto_set(sys.latency(p), base_area, points, rng, config);
    total += set.size();
    // Keep the process at its slowest/smallest point: the last of the
    // frontier in latency order is the base implementation.
    const std::size_t base_index = set.size() - 1;
    sys.set_implementations(p, std::move(set), base_index);
  }
  return total;
}

}  // namespace ermes::synth
