#include "io/soc_hier.h"

#include <functional>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "comp/flatten.h"
#include "io/soc_lexer.h"

namespace ermes::io {

using detail::Tokens;

namespace {

// Declared names within one scope (checked at parse time; flatten re-checks
// for programmatically built models).
struct ScopeNames {
  std::set<std::string, std::less<>> items;  // processes + instances
  std::set<std::string, std::less<>> channels;
  std::set<std::string, std::less<>> ports;

  void clear() {
    items.clear();
    channels.clear();
    ports.clear();
  }
};

struct HierParser {
  HierParseResult result;
  comp::SubsystemDef* cur = nullptr;  // current scope (a def or top)
  bool in_subsystem = false;
  ScopeNames top_names;
  ScopeNames def_names;
  std::set<std::string> def_set;
  int line_no = 0;

  HierParser() {
    result.system_name = "system";
    cur = &result.hier.top;
  }

  ScopeNames& names() { return in_subsystem ? def_names : top_names; }

  bool fail(const std::string& message) {
    result.ok = false;
    result.error = "line " + std::to_string(line_no) + ": " + message;
    return false;
  }

  bool check_declared_name(std::string_view name, const char* what) {
    if (name.empty() || name.find('.') != std::string_view::npos) {
      return fail(std::string("bad ") + what + " name '" + std::string(name) +
                  "' (declared names may not contain '.')");
    }
    return true;
  }

  // <endpoint> = <process> | <instance>.<port>
  bool parse_endpoint(std::string_view token, comp::Endpoint& out) {
    const std::size_t dot = token.find('.');
    if (dot == std::string_view::npos) {
      if (token.empty()) return fail("empty endpoint");
      out.instance.clear();
      out.name = token;
      return true;
    }
    out.instance = token.substr(0, dot);
    out.name = token.substr(dot + 1);
    if (out.instance.empty() || out.name.empty() ||
        out.name.find('.') != std::string::npos) {
      return fail("bad endpoint '" + std::string(token) +
                  "' (expected <process> or <instance>.<port>)");
    }
    return true;
  }

  bool handle_subsystem(const Tokens& t) {
    if (in_subsystem) {
      return fail("subsystem blocks do not nest (missing 'end'?)");
    }
    if (t.size() != 2) return fail("expected: subsystem <name>");
    if (!check_declared_name(t[1], "subsystem")) return false;
    if (!def_set.emplace(t[1]).second) {
      return fail("duplicate subsystem " + std::string(t[1]));
    }
    result.hier.defs.emplace_back();
    result.hier.defs.back().name = t[1];
    cur = &result.hier.defs.back();
    in_subsystem = true;
    def_names.clear();
    return true;
  }

  bool handle_end(const Tokens& t) {
    if (!in_subsystem) return fail("'end' outside a subsystem block");
    if (t.size() != 1) return fail("unexpected tokens after 'end'");
    cur = &result.hier.top;
    in_subsystem = false;
    return true;
  }

  bool handle_port(const Tokens& t) {
    if (!in_subsystem) {
      return fail("'port' is only valid inside a subsystem block");
    }
    if (t.size() != 5 || (t[1] != "in" && t[1] != "out") || t[3] != "=") {
      return fail(
          "expected: port in|out <name> = <endpoint> (a port must be bound "
          "to an internal endpoint)");
    }
    if (!check_declared_name(t[2], "port")) return false;
    if (!names().ports.emplace(t[2]).second) {
      return fail("duplicate port " + std::string(t[2]));
    }
    comp::PortDecl port;
    port.name = t[2];
    port.is_input = t[1] == "in";
    if (!parse_endpoint(t[4], port.binding)) return false;
    cur->ports.push_back(std::move(port));
    return true;
  }

  bool handle_process(const Tokens& t) {
    if (t.size() < 4 || t[2] != "latency") {
      return fail("expected: process <name> latency <cycles> [area <mm2>] "
                  "[primed]");
    }
    if (!check_declared_name(t[1], "process")) return false;
    if (!names().items.emplace(t[1]).second) {
      return fail("duplicate name " + std::string(t[1]));
    }
    comp::ProcessDecl p;
    p.name = t[1];
    if (!detail::parse_i64(t[3], p.latency) || p.latency < 0) {
      return fail("bad latency '" + std::string(t[3]) + "'");
    }
    std::size_t i = 4;
    while (i < t.size()) {
      if (t[i] == "area" && i + 1 < t.size()) {
        if (!detail::parse_f64(t[i + 1], p.area) || p.area < 0.0) {
          return fail("bad area");
        }
        i += 2;
      } else if (t[i] == "primed") {
        p.primed = true;
        ++i;
      } else {
        return fail("unexpected token '" + std::string(t[i]) + "'");
      }
    }
    cur->add_process(std::move(p));
    return true;
  }

  bool handle_instance(const Tokens& t) {
    if (t.size() != 3) return fail("expected: instance <name> <subsystem>");
    if (!check_declared_name(t[1], "instance")) return false;
    if (!names().items.emplace(t[1]).second) {
      return fail("duplicate name " + std::string(t[1]));
    }
    // Forward references to subsystems are allowed; comp::flatten resolves
    // them (and rejects unknowns and cycles).
    comp::InstanceDecl inst;
    inst.name = t[1];
    inst.subsystem = t[2];
    cur->add_instance(std::move(inst));
    return true;
  }

  bool handle_channel(const Tokens& t) {
    if (t.size() < 7 || t[3] != "->" || t[5] != "latency") {
      return fail("expected: channel <name> <from> -> <to> latency <cycles> "
                  "[capacity <slots>|unbounded]");
    }
    if (!check_declared_name(t[1], "channel")) return false;
    if (!names().channels.emplace(t[1]).second) {
      return fail("duplicate channel " + std::string(t[1]));
    }
    comp::ChannelDecl c;
    c.name = t[1];
    if (!parse_endpoint(t[2], c.from) || !parse_endpoint(t[4], c.to)) {
      return false;
    }
    if (!detail::parse_i64(t[6], c.latency) || c.latency < 0) {
      return fail("bad latency");
    }
    if (t.size() >= 9 && t[7] == "capacity") {
      if (t[8] == "unbounded") {
        c.capacity = sysmodel::kUnboundedCapacity;
      } else if (!detail::parse_i64(t[8], c.capacity) || c.capacity < 0) {
        return fail("bad capacity");
      }
      if (t.size() != 9) return fail("unexpected trailing tokens");
    } else if (t.size() != 7) {
      return fail("unexpected trailing tokens");
    }
    cur->channels.push_back(std::move(c));
    return true;
  }

  bool handle_impl(const Tokens& t) {
    if (t.size() < 7 || t[3] != "latency" || t[5] != "area") {
      return fail(
          "expected: impl <process> <name> latency <cycles> area <mm2> "
          "[selected]");
    }
    comp::ImplDecl row;
    row.process = t[1];
    row.impl.name = t[2];
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
    if (names().items.count(row.process) == 0) {
      return fail("impl of unknown process " + row.process);
    }
    cur->impls.push_back(std::move(row));
    return true;
  }

  bool handle_order(const Tokens& t, bool gets) {
    if (t.size() < 2) return fail("expected: gets/puts <process> <channels>");
    if (names().items.count(t[1]) == 0) {
      return fail("unknown process " + std::string(t[1]));
    }
    comp::OrderDecl order;
    order.process = t[1];
    order.gets = gets;
    for (std::size_t i = 2; i < t.size(); ++i) {
      if (names().channels.count(t[i]) == 0) {
        return fail("unknown channel " + std::string(t[i]));
      }
      order.channels.emplace_back(t[i]);
    }
    cur->orders.push_back(std::move(order));
    return true;
  }

  HierParseResult run(std::string_view text) {
    result.ok = true;
    detail::SocLexer lexer(text);
    while (lexer.next_line()) {
      line_no = lexer.line_no();
      const Tokens& tokens = lexer.tokens();
      if (tokens.empty()) continue;
      const std::string_view keyword = tokens[0];
      bool ok = true;
      if (keyword == "system") {
        if (in_subsystem) {
          ok = fail("'system' is only valid at top level");
        } else if (tokens.size() != 2) {
          ok = fail("expected: system <name>");
        } else {
          result.system_name = tokens[1];
        }
      } else if (keyword == "subsystem") {
        ok = handle_subsystem(tokens);
      } else if (keyword == "end") {
        ok = handle_end(tokens);
      } else if (keyword == "port") {
        ok = handle_port(tokens);
      } else if (keyword == "process") {
        ok = handle_process(tokens);
      } else if (keyword == "instance") {
        ok = handle_instance(tokens);
      } else if (keyword == "channel") {
        ok = handle_channel(tokens);
      } else if (keyword == "impl") {
        ok = handle_impl(tokens);
      } else if (keyword == "gets") {
        ok = handle_order(tokens, true);
      } else if (keyword == "puts") {
        ok = handle_order(tokens, false);
      } else {
        ok = fail("unknown keyword '" + std::string(keyword) + "'");
      }
      if (!ok) return std::move(result);
    }
    if (in_subsystem) {
      result.ok = false;
      result.error = "unterminated subsystem " + cur->name +
                     " (missing 'end')";
    }
    return std::move(result);
  }
};

}  // namespace

HierParseResult parse_soc_hier(const std::string& text) {
  // Containment mirror of parse_soc: hostile input yields a structured
  // error, never an uncaught throw.
  try {
    HierParser parser;
    return parser.run(text);
  } catch (const std::exception& e) {
    HierParseResult result;
    result.error = std::string("parse failed: ") + e.what();
    return result;
  } catch (...) {
    HierParseResult result;
    result.error = "parse failed: unknown error";
    return result;
  }
}

HierParseResult load_soc_hier(const std::string& path) {
  std::string text;
  if (!detail::read_file(path, text)) {
    HierParseResult result;
    result.error = "cannot open " + path;
    return result;
  }
  return parse_soc_hier(text);
}

ParseResult parse_soc_flattened(const std::string& text) {
  ParseResult out;
  HierParseResult parsed = parse_soc_hier(text);
  if (!parsed.ok) {
    out.error = std::move(parsed.error);
    return out;
  }
  comp::FlattenResult flat = comp::flatten(parsed.hier);
  if (!flat.ok) {
    out.error = std::move(flat.error);
    return out;
  }
  out.ok = true;
  out.system_name = std::move(parsed.system_name);
  out.system = std::move(flat.system);
  return out;
}

ParseResult load_soc_flattened(const std::string& path) {
  std::string text;
  if (!detail::read_file(path, text)) {
    ParseResult result;
    result.error = "cannot open " + path;
    return result;
  }
  return parse_soc_flattened(text);
}

}  // namespace ermes::io
