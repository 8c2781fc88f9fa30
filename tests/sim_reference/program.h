#pragma once
// Process programs for the reference kernel.
//
// A program is the body of the process' infinite loop, as in Listing 1 of
// the paper: a sequence of blocking gets, computation, and blocking puts.
// Statements may repeat a channel (packetized transfers) and interleave
// computation arbitrarily; the canonical three-phase shape used by the
// analytic model is produced by make_three_phase_program().

#include <cstdint>
#include <string>
#include <vector>

#include "sim/observer.h"

namespace ermes::sim {

struct Statement {
  enum class Kind { kGet, kPut, kCompute };
  Kind kind = Kind::kCompute;
  SimChannelId channel = -1;   // get/put
  std::int64_t cycles = 0;     // compute

  static Statement get(SimChannelId c) {
    return Statement{Kind::kGet, c, 0};
  }
  static Statement put(SimChannelId c) {
    return Statement{Kind::kPut, c, 0};
  }
  static Statement compute(std::int64_t cycles) {
    return Statement{Kind::kCompute, -1, cycles};
  }
};

using Program = std::vector<Statement>;

/// gets (in order), compute(latency), puts (in order).
Program make_three_phase_program(const std::vector<SimChannelId>& gets,
                                 std::int64_t compute_latency,
                                 const std::vector<SimChannelId>& puts);

/// Human-readable form, e.g. "get(a); get(b); compute(5); put(c)".
std::string to_string(const Program& program,
                      const std::vector<std::string>& channel_names);

}  // namespace ermes::sim
