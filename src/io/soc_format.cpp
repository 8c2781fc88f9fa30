#include "io/soc_format.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "io/soc_lexer.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/stopwatch.h"

namespace ermes::io {

using detail::Tokens;
using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

struct Parser {
  explicit Parser(std::string_view text) : lexer(text) {}

  ParseResult result;
  detail::SocLexer lexer;
  // Declared names; the keys are slices of the input text.
  std::unordered_map<std::string_view, ProcessId> procs;
  std::unordered_map<std::string_view, ChannelId> chans;
  // Pending implementation rows, attached once the whole text is read.
  struct ImplRow {
    ProcessId process;
    sysmodel::Implementation impl;
    bool selected;
  };
  std::vector<ImplRow> impls;
  std::vector<ChannelId> listed, incident;  // handle_order scratch

  bool fail(const std::string& message) {
    result.ok = false;
    result.error = "line " + std::to_string(lexer.line_no()) + ": " + message;
    return false;
  }

  bool handle_process(const Tokens& t) {
    if (t.size() < 4 || t[2] != "latency") {
      return fail("expected: process <name> latency <cycles> [area <mm2>] "
                  "[primed]");
    }
    if (!procs.try_emplace(t[1], result.system.num_processes()).second) {
      return fail("duplicate process " + std::string(t[1]));
    }
    std::int64_t latency = 0;
    if (!detail::parse_i64(t[3], latency) || latency < 0) {
      return fail("bad latency '" + std::string(t[3]) + "'");
    }
    double area = 0.0;
    bool primed = false;
    std::size_t i = 4;
    while (i < t.size()) {
      if (t[i] == "area" && i + 1 < t.size()) {
        if (!detail::parse_f64(t[i + 1], area) || area < 0.0) {
          return fail("bad area");
        }
        i += 2;
      } else if (t[i] == "primed") {
        primed = true;
        ++i;
      } else {
        return fail("unexpected token '" + std::string(t[i]) + "'");
      }
    }
    const ProcessId p =
        result.system.add_process(std::string(t[1]), latency, area);
    if (primed) result.system.set_primed(p, true);
    return true;
  }

  bool handle_channel(const Tokens& t) {
    if (t.size() < 7 || t[3] != "->" || t[5] != "latency") {
      return fail("expected: channel <name> <from> -> <to> latency <cycles> "
                  "[capacity <slots>]");
    }
    if (!chans.try_emplace(t[1], result.system.num_channels()).second) {
      return fail("duplicate channel " + std::string(t[1]));
    }
    const auto from = procs.find(t[2]);
    const auto to = procs.find(t[4]);
    if (from == procs.end()) {
      return fail("unknown process " + std::string(t[2]));
    }
    if (to == procs.end()) return fail("unknown process " + std::string(t[4]));
    std::int64_t latency = 0;
    if (!detail::parse_i64(t[6], latency) || latency < 0) {
      return fail("bad latency");
    }
    const ChannelId c = result.system.add_channel(
        std::string(t[1]), from->second, to->second, latency);
    if (t.size() >= 9 && t[7] == "capacity") {
      std::int64_t capacity = 0;
      if (t[8] == "unbounded") {
        capacity = sysmodel::kUnboundedCapacity;
      } else if (!detail::parse_i64(t[8], capacity) || capacity < 0) {
        return fail("bad capacity");
      }
      if (t.size() != 9) return fail("unexpected trailing tokens");
      result.system.set_channel_capacity(c, capacity);
    } else if (t.size() != 7) {
      return fail("unexpected trailing tokens");
    }
    return true;
  }

  bool handle_impl(const Tokens& t) {
    // impl <process> <name> latency <cycles> area <mm2> [selected]
    if (t.size() < 7 || t[3] != "latency" || t[5] != "area") {
      return fail(
          "expected: impl <process> <name> latency <cycles> area <mm2> "
          "[selected]");
    }
    const auto p = procs.find(t[1]);
    if (p == procs.end()) return fail("unknown process " + std::string(t[1]));
    ImplRow row;
    row.process = p->second;
    if (!detail::parse_i64(t[4], row.impl.latency) || row.impl.latency < 0) {
      return fail("bad latency");
    }
    if (!detail::parse_f64(t[6], row.impl.area) || row.impl.area < 0.0) {
      return fail("bad area");
    }
    row.selected = t.size() == 8 && t[7] == "selected";
    if (t.size() > 8 || (t.size() == 8 && !row.selected)) {
      return fail("unexpected trailing tokens");
    }
    row.impl.name = t[2];
    impls.push_back(std::move(row));
    return true;
  }

  bool handle_order(const Tokens& t, bool gets) {
    if (t.size() < 2) return fail("expected: gets/puts <process> <channels>");
    const auto p = procs.find(t[1]);
    if (p == procs.end()) return fail("unknown process " + std::string(t[1]));
    std::vector<ChannelId> order;
    order.reserve(t.size() - 2);
    for (std::size_t i = 2; i < t.size(); ++i) {
      const auto c = chans.find(t[i]);
      if (c == chans.end()) return fail("unknown channel " + std::string(t[i]));
      order.push_back(c->second);
    }
    // Validate the permutation before applying (set_*_order asserts).
    const std::vector<ChannelId>& current =
        gets ? result.system.input_order(p->second)
             : result.system.output_order(p->second);
    listed.assign(order.begin(), order.end());
    incident.assign(current.begin(), current.end());
    std::sort(listed.begin(), listed.end());
    std::sort(incident.begin(), incident.end());
    if (listed != incident) {
      return fail(std::string(gets ? "gets" : "puts") + " of " +
                  std::string(t[1]) +
                  " must list exactly its incident channels");
    }
    if (gets) {
      result.system.set_input_order(p->second, std::move(order));
    } else {
      result.system.set_output_order(p->second, std::move(order));
    }
    return true;
  }

  void finalize_impls() {
    // Group the rows by process (file order within a process), attach the
    // Pareto sets and restore the selection: the last row marked selected
    // wins, located in its set once the whole set is built.
    const auto n = static_cast<std::size_t>(result.system.num_processes());
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<sysmodel::ParetoSet> sets(n);
    std::vector<std::size_t> selected_row(n, kNone);
    for (std::size_t i = 0; i < impls.size(); ++i) {
      if (impls[i].selected) {
        selected_row[static_cast<std::size_t>(impls[i].process)] = i;
      }
    }
    for (std::size_t i = 0; i < impls.size(); ++i) {
      const auto p = static_cast<std::size_t>(impls[i].process);
      if (selected_row[p] == i) {
        sets[p].add(impls[i].impl);  // still needed for the lookup below
      } else {
        sets[p].add(std::move(impls[i].impl));
      }
    }
    for (std::size_t p = 0; p < n; ++p) {
      if (sets[p].empty()) continue;
      std::size_t selected = 0;
      if (selected_row[p] != kNone) {
        const std::size_t idx = sets[p].find(impls[selected_row[p]].impl);
        if (idx != sysmodel::ParetoSet::npos) selected = idx;
      }
      result.system.set_implementations(static_cast<ProcessId>(p),
                                        std::move(sets[p]), selected);
    }
  }

  void run() {
    result.ok = true;
    result.system_name = "system";
    while (lexer.next_line()) {
      const Tokens& tokens = lexer.tokens();
      if (tokens.empty()) continue;
      const std::string_view keyword = tokens[0];
      bool ok = true;
      if (keyword == "process") {
        ok = handle_process(tokens);
      } else if (keyword == "channel") {
        ok = handle_channel(tokens);
      } else if (keyword == "impl") {
        ok = handle_impl(tokens);
      } else if (keyword == "gets") {
        ok = handle_order(tokens, true);
      } else if (keyword == "puts") {
        ok = handle_order(tokens, false);
      } else if (keyword == "system") {
        if (tokens.size() != 2) {
          ok = fail("expected: system <name>");
        } else {
          result.system_name = tokens[1];
        }
      } else {
        ok = fail("unknown keyword '" + std::string(keyword) + "'");
      }
      if (!ok) return;
    }
    finalize_impls();
  }
};

void append_int(std::string& out, std::int64_t value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;  // 24 bytes hold any int64
  out.append(buf, end);
}

// "%.17g" (max_digits10): enough digits to round-trip every double. Stored
// .soc files and tests/golden hold exactly this form.
void append_double(std::string& out, double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, 17);
  (void)ec;  // sign, 17 digits, point and a 5-byte exponent fit in 32
  out.append(buf, end);
}

}  // namespace

ParseResult parse_soc(const std::string& text) {
  // Parse time reaches --metrics as the io.parse_ns histogram and --trace as
  // the io.parse span; bytes and lines say how much text it covered.
  obs::ObsSpan span("io.parse", "io");
  const util::Stopwatch watch;
  Parser parser(text);
  // Last-resort containment: hostile input must produce a structured error,
  // never an uncaught throw. Everything reachable from here validates before
  // touching the model, so this only fires on resource exhaustion
  // (bad_alloc, length_error from pathological token sizes).
  try {
    parser.run();
  } catch (const std::exception& e) {
    parser.result = ParseResult();
    parser.result.error = std::string("parse failed: ") + e.what();
  } catch (...) {
    parser.result = ParseResult();
    parser.result.error = "parse failed: unknown error";
  }
  if (obs::enabled()) {
    obs::count("io.parse_bytes", static_cast<std::int64_t>(text.size()));
    obs::count("io.parse_lines", parser.lexer.line_no());
    obs::observe("io.parse_ns", watch.elapsed_ns());
  }
  return std::move(parser.result);
}

ParseResult load_soc(const std::string& path) {
  std::string text;
  if (!detail::read_file(path, text)) {
    ParseResult result;
    result.error = "cannot open " + path;
    return result;
  }
  return parse_soc(text);
}

std::string write_soc(const SystemModel& sys, const std::string& system_name) {
  std::string out;
  out.reserve(64 * static_cast<std::size_t>(sys.num_processes() +
                                            sys.num_channels()) +
              48 * sys.total_pareto_points() + system_name.size() + 16);
  const auto line = [&out](std::initializer_list<std::string_view> parts) {
    for (const std::string_view part : parts) out.append(part);
  };
  line({"system ", system_name, "\n\n"});
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    line({"process ", sys.process_name(p), " latency "});
    append_int(out, sys.latency(p));
    if (sys.area(p) != 0.0) {
      out += " area ";
      append_double(out, sys.area(p));
    }
    if (sys.primed(p)) out += " primed";
    out += '\n';
  }
  out += '\n';
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    line({"channel ", sys.channel_name(c), " ",
          sys.process_name(sys.channel_source(c)), " -> ",
          sys.process_name(sys.channel_target(c)), " latency "});
    append_int(out, sys.channel_latency(c));
    if (sys.channel_capacity(c) == sysmodel::kUnboundedCapacity) {
      out += " capacity unbounded";
    } else if (sys.channel_capacity(c) > 0) {
      out += " capacity ";
      append_int(out, sys.channel_capacity(c));
    }
    out += '\n';
  }
  out += '\n';
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (!sys.has_implementations(p)) continue;
    const sysmodel::ParetoSet& set = sys.implementations(p);
    for (std::size_t i = 0; i < set.size(); ++i) {
      line({"impl ", sys.process_name(p), " ", set.at(i).name, " latency "});
      append_int(out, set.at(i).latency);
      out += " area ";
      append_double(out, set.at(i).area);
      if (i == sys.selected_implementation(p)) out += " selected";
      out += '\n';
    }
  }
  out += '\n';
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (sys.input_order(p).size() > 1) {
      line({"gets ", sys.process_name(p)});
      for (ChannelId c : sys.input_order(p)) line({" ", sys.channel_name(c)});
      out += '\n';
    }
    if (sys.output_order(p).size() > 1) {
      line({"puts ", sys.process_name(p)});
      for (ChannelId c : sys.output_order(p)) line({" ", sys.channel_name(c)});
      out += '\n';
    }
  }
  return out;
}

bool save_soc(const SystemModel& sys, const std::string& path,
              const std::string& system_name) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_soc(sys, system_name);
  return static_cast<bool>(out);
}

}  // namespace ermes::io
