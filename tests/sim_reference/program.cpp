#include "sim_reference/program.h"

#include <sstream>

namespace ermes::sim {

Program make_three_phase_program(const std::vector<SimChannelId>& gets,
                                 std::int64_t compute_latency,
                                 const std::vector<SimChannelId>& puts) {
  Program program;
  program.reserve(gets.size() + puts.size() + 1);
  for (SimChannelId c : gets) program.push_back(Statement::get(c));
  program.push_back(Statement::compute(compute_latency));
  for (SimChannelId c : puts) program.push_back(Statement::put(c));
  return program;
}

std::string to_string(const Program& program,
                      const std::vector<std::string>& channel_names) {
  std::ostringstream out;
  for (std::size_t i = 0; i < program.size(); ++i) {
    if (i) out << "; ";
    const Statement& stmt = program[i];
    switch (stmt.kind) {
      case Statement::Kind::kGet:
        out << "get("
            << channel_names[static_cast<std::size_t>(stmt.channel)] << ")";
        break;
      case Statement::Kind::kPut:
        out << "put("
            << channel_names[static_cast<std::size_t>(stmt.channel)] << ")";
        break;
      case Statement::Kind::kCompute:
        out << "compute(" << stmt.cycles << ")";
        break;
    }
  }
  return out.str();
}

}  // namespace ermes::sim
