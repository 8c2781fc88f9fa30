#include "io_reference/soc_reference.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

namespace ermes::io::reference {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

struct Parser {
  ParseResult result;
  std::map<std::string, ProcessId> procs;
  std::map<std::string, ChannelId> chans;
  // Pending implementation rows: (process, impl, selected).
  struct ImplRow {
    ProcessId process;
    sysmodel::Implementation impl;
    bool selected;
  };
  std::vector<ImplRow> impls;
  int line_no = 0;

  bool fail(const std::string& message) {
    result.ok = false;
    result.error = "line " + std::to_string(line_no) + ": " + message;
    return false;
  }

  // Upper bound on latencies/capacities: large enough for any real design,
  // small enough that sums and products across a system stay far away from
  // int64/double overflow when the input is hostile.
  static constexpr std::int64_t kMaxMagnitude = 1'000'000'000'000;  // 1e12

  bool parse_i64(const std::string& token, std::int64_t& out) {
    try {
      std::size_t pos = 0;
      out = std::stoll(token, &pos);
      return pos == token.size() && out <= kMaxMagnitude &&
             out >= -kMaxMagnitude;
    } catch (...) {
      return false;
    }
  }
  // Rejects non-finite values: stod happily parses "inf"/"nan", which would
  // poison every downstream cycle-time and area computation.
  bool parse_f64(const std::string& token, double& out) {
    try {
      std::size_t pos = 0;
      out = std::stod(token, &pos);
      return pos == token.size() && std::isfinite(out) &&
             std::fabs(out) <= 1e18;
    } catch (...) {
      return false;
    }
  }

  bool handle_process(const std::vector<std::string>& t) {
    if (t.size() < 4 || t[2] != "latency") {
      return fail("expected: process <name> latency <cycles> [area <mm2>] "
                  "[primed]");
    }
    if (procs.count(t[1]) != 0) return fail("duplicate process " + t[1]);
    std::int64_t latency = 0;
    if (!parse_i64(t[3], latency) || latency < 0) {
      return fail("bad latency '" + t[3] + "'");
    }
    double area = 0.0;
    bool primed = false;
    std::size_t i = 4;
    while (i < t.size()) {
      if (t[i] == "area" && i + 1 < t.size()) {
        if (!parse_f64(t[i + 1], area) || area < 0.0) {
          return fail("bad area");
        }
        i += 2;
      } else if (t[i] == "primed") {
        primed = true;
        ++i;
      } else {
        return fail("unexpected token '" + t[i] + "'");
      }
    }
    const ProcessId p = result.system.add_process(t[1], latency, area);
    if (primed) result.system.set_primed(p, true);
    procs[t[1]] = p;
    return true;
  }

  bool handle_channel(const std::vector<std::string>& t) {
    if (t.size() < 7 || t[3] != "->" || t[5] != "latency") {
      return fail("expected: channel <name> <from> -> <to> latency <cycles> "
                  "[capacity <slots>]");
    }
    if (chans.count(t[1]) != 0) return fail("duplicate channel " + t[1]);
    const auto from = procs.find(t[2]);
    const auto to = procs.find(t[4]);
    if (from == procs.end()) return fail("unknown process " + t[2]);
    if (to == procs.end()) return fail("unknown process " + t[4]);
    std::int64_t latency = 0;
    if (!parse_i64(t[6], latency) || latency < 0) return fail("bad latency");
    const ChannelId c =
        result.system.add_channel(t[1], from->second, to->second, latency);
    chans[t[1]] = c;
    if (t.size() >= 9 && t[7] == "capacity") {
      std::int64_t capacity = 0;
      if (t[8] == "unbounded") {
        capacity = sysmodel::kUnboundedCapacity;
      } else if (!parse_i64(t[8], capacity) || capacity < 0) {
        return fail("bad capacity");
      }
      if (t.size() != 9) return fail("unexpected trailing tokens");
      result.system.set_channel_capacity(c, capacity);
    } else if (t.size() != 7) {
      return fail("unexpected trailing tokens");
    }
    return true;
  }

  bool handle_impl(const std::vector<std::string>& t) {
    // impl <process> <name> latency <cycles> area <mm2> [selected]
    if (t.size() < 7 || t[3] != "latency" || t[5] != "area") {
      return fail(
          "expected: impl <process> <name> latency <cycles> area <mm2> "
          "[selected]");
    }
    const auto p = procs.find(t[1]);
    if (p == procs.end()) return fail("unknown process " + t[1]);
    ImplRow row;
    row.process = p->second;
    row.impl.name = t[2];
    if (!parse_i64(t[4], row.impl.latency) || row.impl.latency < 0) {
      return fail("bad latency");
    }
    if (!parse_f64(t[6], row.impl.area) || row.impl.area < 0.0) {
      return fail("bad area");
    }
    row.selected = t.size() == 8 && t[7] == "selected";
    if (t.size() > 8 || (t.size() == 8 && !row.selected)) {
      return fail("unexpected trailing tokens");
    }
    impls.push_back(std::move(row));
    return true;
  }

  bool handle_order(const std::vector<std::string>& t, bool gets) {
    if (t.size() < 2) return fail("expected: gets/puts <process> <channels>");
    const auto p = procs.find(t[1]);
    if (p == procs.end()) return fail("unknown process " + t[1]);
    std::vector<ChannelId> order;
    for (std::size_t i = 2; i < t.size(); ++i) {
      const auto c = chans.find(t[i]);
      if (c == chans.end()) return fail("unknown channel " + t[i]);
      order.push_back(c->second);
    }
    // Validate the permutation before applying (set_*_order asserts).
    std::vector<ChannelId> expected =
        gets ? result.system.input_order(p->second)
             : result.system.output_order(p->second);
    std::vector<ChannelId> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::sort(expected.begin(), expected.end());
    if (sorted != expected) {
      return fail(std::string(gets ? "gets" : "puts") + " of " + t[1] +
                  " must list exactly its incident channels");
    }
    if (gets) {
      result.system.set_input_order(p->second, std::move(order));
    } else {
      result.system.set_output_order(p->second, std::move(order));
    }
    return true;
  }

  bool finalize_impls() {
    // Group by process, attach Pareto sets, restore selection.
    std::map<ProcessId, std::vector<ImplRow>> by_proc;
    for (ImplRow& row : impls) by_proc[row.process].push_back(row);
    for (auto& [p, rows] : by_proc) {
      sysmodel::ParetoSet set;
      for (const ImplRow& row : rows) set.add(row.impl);
      std::size_t selected = 0;
      bool any_selected = false;
      for (const ImplRow& row : rows) {
        if (!row.selected) continue;
        const std::size_t idx = set.find(row.impl);
        if (idx == sysmodel::ParetoSet::npos) continue;
        selected = idx;
        any_selected = true;
      }
      (void)any_selected;
      result.system.set_implementations(p, std::move(set), selected);
    }
    return true;
  }
};

}  // namespace

namespace {

ParseResult parse_soc_impl(const std::string& text) {
  Parser parser;
  parser.result.ok = true;
  parser.result.system_name = "system";
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++parser.line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];
    bool ok = true;
    if (keyword == "system") {
      if (tokens.size() != 2) {
        ok = parser.fail("expected: system <name>");
      } else {
        parser.result.system_name = tokens[1];
      }
    } else if (keyword == "process") {
      ok = parser.handle_process(tokens);
    } else if (keyword == "channel") {
      ok = parser.handle_channel(tokens);
    } else if (keyword == "impl") {
      ok = parser.handle_impl(tokens);
    } else if (keyword == "gets") {
      ok = parser.handle_order(tokens, true);
    } else if (keyword == "puts") {
      ok = parser.handle_order(tokens, false);
    } else {
      ok = parser.fail("unknown keyword '" + keyword + "'");
    }
    if (!ok) return std::move(parser.result);
  }
  parser.finalize_impls();
  return std::move(parser.result);
}

}  // namespace

ParseResult parse_soc(const std::string& text) {
  // Last-resort containment: hostile input must produce a structured error,
  // never an uncaught throw. Everything reachable from here validates before
  // touching the model, so this only fires on resource exhaustion
  // (bad_alloc, length_error from pathological token sizes).
  try {
    return parse_soc_impl(text);
  } catch (const std::exception& e) {
    ParseResult result;
    result.error = std::string("parse failed: ") + e.what();
    return result;
  } catch (...) {
    ParseResult result;
    result.error = "parse failed: unknown error";
    return result;
  }
}

std::string write_soc(const SystemModel& sys, const std::string& system_name) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "system " << system_name << "\n\n";
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    out << "process " << sys.process_name(p) << " latency "
        << sys.latency(p);
    if (sys.area(p) != 0.0) out << " area " << sys.area(p);
    if (sys.primed(p)) out << " primed";
    out << "\n";
  }
  out << "\n";
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    out << "channel " << sys.channel_name(c) << " "
        << sys.process_name(sys.channel_source(c)) << " -> "
        << sys.process_name(sys.channel_target(c)) << " latency "
        << sys.channel_latency(c);
    if (sys.channel_capacity(c) == sysmodel::kUnboundedCapacity) {
      out << " capacity unbounded";
    } else if (sys.channel_capacity(c) > 0) {
      out << " capacity " << sys.channel_capacity(c);
    }
    out << "\n";
  }
  out << "\n";
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (!sys.has_implementations(p)) continue;
    const sysmodel::ParetoSet& set = sys.implementations(p);
    for (std::size_t i = 0; i < set.size(); ++i) {
      out << "impl " << sys.process_name(p) << " " << set.at(i).name
          << " latency " << set.at(i).latency << " area " << set.at(i).area;
      if (i == sys.selected_implementation(p)) out << " selected";
      out << "\n";
    }
  }
  out << "\n";
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (sys.input_order(p).size() > 1) {
      out << "gets " << sys.process_name(p);
      for (ChannelId c : sys.input_order(p)) {
        out << " " << sys.channel_name(c);
      }
      out << "\n";
    }
    if (sys.output_order(p).size() > 1) {
      out << "puts " << sys.process_name(p);
      for (ChannelId c : sys.output_order(p)) {
        out << " " << sys.channel_name(c);
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace ermes::io::reference
