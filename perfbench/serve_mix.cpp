// Workload serve_mix: a request mix against an in-process daemon.
//
// Set-up boots svc::Server on a unix socket (2 broker workers, 1 network
// shard) with an eval-cache byte budget below the mix's working set, and
// builds one round of requests. One client thread runs the
// round over and over for the window, one step at a time: a step is one
// request, or one cold explore sent on two connections at once (the daemon
// coalesces the pair). A step is timed from its send to its last reply. The
// mix of a round:
//   * analyze over a hot set of small SoCs (cached reads);
//   * explore over a hot set of (SoC, TCT) pairs (cache hits after the
//     first);
//   * one-off cold explores (misses: ILP selection, cache inserts,
//     evictions), one of them sent twice at once (coalescing);
//   * a v2 session: open_session, patches, close_session on a medium SoC
//     (incremental writes).
// The daemon's cache is cleared before every round, outside the timing, so
// every round sees the same hits, misses and evictions. Every reply is
// checked against expectations computed in set-up: analyze and explore
// text byte-equal to the serial single-shot renderer, analyze CTs against
// simulation, session reports against a fresh analysis of the patched
// model.
//
// Only one step is in flight, so the daemon's threads never run in
// parallel. The whole process is pinned to one CPU: the host is sampled
// (host_speed.h) on the CPU that does the daemon's work, and hand-offs
// between the client, the network shard and the workers never wait for an
// idle vCPU to wake up.

#include <sched.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/performance.h"
#include "checks.h"
#include "dse/explorer.h"
#include "io/soc_format.h"
#include "obs/metrics.h"
#include "ordering/channel_ordering.h"
#include "ordering/repair.h"
#include "runner.h"
#include "stats.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/render.h"
#include "svc/server.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ermes;

// One round. The shares (about 56% analyze, 14% hot explore, 7% cold
// explore, 23% session traffic) are a design choice, explained in
// README.md.
constexpr int kHotAnalyze = 8;
constexpr int kAnalyzeRepeats = 3;  // per hot SoC and round
constexpr int kHotExplore = 3;
constexpr int kExploreRepeats = 2;  // per hot pair and round
constexpr int kColdExplores = 2;    // the last one is sent twice at once
constexpr int kPatchesPerSession = 8;  // even: half are undone
constexpr std::uint64_t kInputSeed = 1;  // see make_inputs
constexpr std::int32_t kSessionProcesses = 160;

constexpr std::size_t kBrokerWorkers = 2;
// A round inserts about 55 KB into the cache. The budget is split over 16
// shards and three memo families, and some shares overflow every round.
constexpr std::int64_t kCacheBudgetBytes = 128 << 10;
constexpr int kSetupRepeats = 5;
constexpr std::int64_t kSimItems = 400;
constexpr int kReplyTimeoutSeconds = 30;

enum class Kind { kAnalyze, kExploreHot, kExploreCold, kOpen, kPatch, kClose };
constexpr std::size_t kKinds = 6;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kAnalyze: return "analyze";
    case Kind::kExploreHot: return "explore_hot";
    case Kind::kExploreCold: return "explore_cold";
    case Kind::kOpen: return "open_session";
    case Kind::kPatch: return "patch";
    case Kind::kClose: return "close_session";
  }
  return "?";
}

sysmodel::SystemModel make_soc(std::int32_t processes, std::uint64_t seed) {
  synth::GeneratorConfig config;
  config.num_processes = processes;
  config.num_channels = processes + processes / 2;
  config.feedback_fraction = 0.1;
  config.seed = seed;
  sysmodel::SystemModel sys = synth::generate_soc(config);
  synth::attach_pareto_sets(sys, seed ^ 0x9e3779b97f4a7c15ull);
  sys = ordering::with_optimal_ordering(std::move(sys));
  ordering::ensure_live(sys, 2048);
  return sys;
}

// What a reply must hold.
struct Expected {
  std::string text;  // analyze and explore: the rendered text
  analysis::PerformanceReport report;  // session ops but close
};

// One step of a round: a request, sent on one connection or, for the
// coalesced cold explore, on both.
struct Step {
  Kind kind = Kind::kAnalyze;
  std::vector<std::string> lines;  // one per connection used
  const Expected* expected = nullptr;
};

struct Inputs {
  std::deque<Expected> expected;  // owned here, pointed to by the steps
  std::vector<Step> round;
  std::size_t requests = 0;  // per round
};

std::string session_line(Kind kind, std::int64_t id, const std::string& soc,
                         const std::string& patches) {
  std::string line = "{\"v\":2,\"id\":" + std::to_string(id) + ",\"op\":\"";
  line += kind == Kind::kOpen ? "open_session"
          : kind == Kind::kPatch ? "patch"
                                 : "close_session";
  line += "\",\"session\":\"s\"";
  if (kind == Kind::kOpen) {
    line += ",\"soc\":" + svc::JsonValue::string(soc).to_string();
  }
  if (kind == Kind::kPatch) line += ",\"patches\":" + patches;
  return line + "}";
}

// The serial single-shot answers, from the request's own SoC text.
std::string analyze_text_of(const std::string& soc) {
  const io::ParseResult parsed = io::parse_soc(soc);
  return svc::analyze_text(parsed.system,
                           analysis::analyze_system(parsed.system));
}

std::string explore_text_of(const std::string& soc, std::int64_t tct) {
  dse::ExplorerOptions options;
  options.target_cycle_time = tct;
  options.jobs = 1;
  return svc::explore_text(dse::explore(io::parse_soc(soc).system, options));
}

// Builds one round, with the expected reply of every step. The seed draws
// the session's patch script. The SoCs, the targets and the order of the
// steps are the same for every seed: the cost of an exploration swings
// widely from one SoC to the next, and with the cache below the round's
// working set the order decides which entries are evicted before their
// next use, so either would make the seed, not the code, set the round's
// time.
void make_inputs(std::uint64_t seed, Inputs& in, Report& report) {
  in = Inputs{};
  std::mt19937_64 rng(kInputSeed);
  std::uniform_int_distribution<std::int32_t> small(24, 32);
  std::uniform_real_distribution<double> ratio(0.6, 1.4);
  std::int64_t id = 0;
  const auto add = [&in, &id](Kind kind, int copies, std::string line,
                              const Expected* expected) {
    for (int c = 0; c < copies; ++c) {
      Step step;
      step.kind = kind;
      step.expected = expected;
      step.lines.push_back(line);
      in.round.push_back(std::move(step));
    }
    ++id;
  };

  for (int i = 0; i < kHotAnalyze; ++i) {
    const sysmodel::SystemModel sys =
        make_soc(small(rng), kInputSeed * 100000 + 1000 + i);
    std::string name = "a";
    name += std::to_string(i);
    const std::string soc = io::write_soc(sys, name);
    in.expected.push_back({analyze_text_of(soc), {}});
    const std::string sim = check_against_simulation(
        sys, analysis::analyze_system(sys), kSimItems);
    report.check(sim.empty(), "analyze input: " + sim);
    add(Kind::kAnalyze, kAnalyzeRepeats,
        svc::encode_request(svc::Op::kAnalyze, svc::JsonValue::integer(id),
                            soc),
        &in.expected.back());
  }
  const auto explore = [&](Kind kind, int copies, std::uint64_t soc_seed) {
    const sysmodel::SystemModel sys = make_soc(small(rng), soc_seed);
    std::string name = "x";
    name += std::to_string(soc_seed);
    const std::string soc = io::write_soc(sys, name);
    const std::int64_t tct = static_cast<std::int64_t>(
        analysis::analyze_system(sys).cycle_time * ratio(rng));
    in.expected.push_back({explore_text_of(soc, tct), {}});
    add(kind, copies,
        svc::encode_request(svc::Op::kExplore, svc::JsonValue::integer(id),
                            soc, tct),
        &in.expected.back());
  };
  for (int i = 0; i < kHotExplore; ++i) {
    explore(Kind::kExploreHot, kExploreRepeats,
            kInputSeed * 100000 + 2000 + i);
  }
  for (int i = 0; i < kColdExplores; ++i) {
    explore(Kind::kExploreCold, 1, kInputSeed * 100000 + 5000 + i);
  }
  // The last cold explore goes out on both connections at once.
  Step& pair = in.round.back();
  std::string twin = pair.lines.front();
  const std::string old_id = "\"id\":" + std::to_string(id - 1);
  twin.replace(twin.find(old_id), old_id.size(),
               "\"id\":" + std::to_string(id));
  pair.lines.push_back(std::move(twin));
  ++id;

  // The session: open, a fixed patch script (each patch swaps 1-3
  // implementations), close, kept in this order among the shuffled steps.
  sysmodel::SystemModel sys =
      make_soc(kSessionProcesses, kInputSeed * 100000 + 3000);
  const std::string soc = io::write_soc(sys, "m");
  std::vector<Step> session;
  const auto session_step = [&](Kind kind, const std::string& patches) {
    Step step;
    step.kind = kind;
    step.lines.push_back(session_line(kind, id++, soc, patches));
    if (kind != Kind::kClose) {
      in.expected.push_back({{}, analysis::analyze_system(sys)});
      step.expected = &in.expected.back();
    }
    session.push_back(std::move(step));
  };
  session_step(Kind::kOpen, "");
  // A patch is a list of (process, implementation) selections.
  using Selects = std::vector<std::pair<sysmodel::ProcessId, std::size_t>>;
  const auto patch = [&](const Selects& selects) {
    std::string json = "[";
    for (const auto& [p, index] : selects) {
      sys.select_implementation(p, index);
      if (json.size() > 1) json += ",";
      json += "{\"process\":" +
              svc::JsonValue::string(sys.process_name(p)).to_string() +
              ",\"select\":" + std::to_string(index) + "}";
    }
    session_step(Kind::kPatch, json + "]");
  };
  // The first half of the patches change selections; the second half undoes
  // them in reverse order, as a user backing out of a try, which brings
  // back states whose SCCs the cache already holds.
  std::mt19937_64 patches(seed);
  std::uniform_int_distribution<sysmodel::ProcessId> proc(
      0, sys.num_processes() - 1);
  std::vector<Selects> undo;
  for (int k = 0; k < kPatchesPerSession / 2; ++k) {
    Selects selects, previous;
    const int ops = 1 + static_cast<int>(patches() % 3);
    for (int o = 0; o < ops; ++o) {
      sysmodel::ProcessId p = proc(patches);
      while (!sys.has_implementations(p)) p = proc(patches);
      previous.emplace(previous.begin(), p, sys.selected_implementation(p));
      selects.emplace_back(p, patches() % sys.implementations(p).size());
    }
    patch(selects);
    undo.push_back(std::move(previous));
  }
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) patch(*it);
  session_step(Kind::kClose, "");

  std::shuffle(in.round.begin(), in.round.end(), rng);
  std::vector<std::size_t> at(session.size());
  std::uniform_int_distribution<std::size_t> position(0, in.round.size());
  for (std::size_t& p : at) p = position(rng);
  std::sort(at.begin(), at.end());
  for (std::size_t k = session.size(); k-- > 0;) {
    in.round.insert(in.round.begin() + static_cast<std::ptrdiff_t>(at[k]),
                    std::move(session[k]));
  }
  for (const Step& step : in.round) in.requests += step.lines.size();
}

// ---- a minimal blocking NDJSON client ---------------------------------------

class Client {
 public:
  ~Client() { close_all(); }

  bool connect(const std::string& path, int count) {
    close_all();
    for (int i = 0; i < count; ++i) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) return false;
      fds_.push_back(fd);
      in_.emplace_back();
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
      timeval timeout{kReplyTimeoutSeconds, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Sends `line` on connection `c`.
  bool send(std::size_t c, const std::string& line) {
    std::string out = line + '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fds_[c], out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads the next reply line from connection `c`.
  bool receive(std::size_t c, std::string* line) {
    std::string& in = in_[c];
    char buf[1 << 16];
    for (;;) {
      const std::size_t nl = in.find('\n');
      if (nl != std::string::npos) {
        *line = in.substr(0, nl);
        in.erase(0, nl + 1);
        return true;
      }
      const ssize_t n = ::recv(fds_[c], buf, sizeof buf, 0);
      if (n <= 0) return false;
      in.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  void close_all() {
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
    in_.clear();
  }

  std::vector<int> fds_;
  std::vector<std::string> in_;
};

// Per-stage request times (parse, solve, render) from the broker's
// slow-request log, the only place the daemon reports them per request.
struct StageLog {
  std::mutex mu;
  std::vector<double> parse_ms, solve_ms, render_ms;

  void record(const std::string& line) {
    const svc::JsonParseResult parsed = svc::json_parse(line);
    const svc::JsonValue* stages =
        parsed.ok ? parsed.value.find("stages_ns") : nullptr;
    if (stages == nullptr) return;
    const auto stage_ms = [stages](const char* name) {
      const svc::JsonValue* v = stages->find(name);
      return v != nullptr ? static_cast<double>(v->as_int()) / 1e6 : 0.0;
    };
    std::lock_guard<std::mutex> lock(mu);
    parse_ms.push_back(stage_ms("parse"));
    solve_ms.push_back(stage_ms("solve"));
    render_ms.push_back(stage_ms("render"));
  }
};

struct Daemon {
  std::unique_ptr<svc::Server> server;
  std::thread thread;

  ~Daemon() { stop(); }
  void stop() {
    if (server == nullptr) return;
    server->request_stop();
    thread.join();
    server.reset();
  }
};

bool boot(Daemon& daemon, const std::string& path, StageLog* stages) {
  svc::ServerOptions options;
  options.socket_path = path;
  options.net_shards = 1;
  options.broker.workers = kBrokerWorkers;
  options.broker.cache_bytes = kCacheBudgetBytes;
  if (stages != nullptr) {
    options.broker.slow_request_ms = 1;
    options.broker.slow_log_sink = [stages](const std::string& line) {
      stages->record(line);
    };
  }
  daemon.server = std::make_unique<svc::Server>(std::move(options));
  std::string error;
  if (!daemon.server->start(&error)) {
    std::fprintf(stderr, "error: daemon start failed: %s\n", error.c_str());
    daemon.server.reset();
    return false;
  }
  svc::Server* server = daemon.server.get();
  daemon.thread = std::thread([server] { server->run(); });
  return true;
}

// True when `reply` is a successful answer that matches `step`.
bool reply_ok(const Step& step, const std::string& reply) {
  const svc::ResponseView view = svc::parse_response(reply);
  if (!view.ok || !view.success) return false;
  switch (step.kind) {
    case Kind::kAnalyze:
    case Kind::kExploreHot:
    case Kind::kExploreCold: {
      const svc::JsonValue* text = view.result.find("text");
      return text != nullptr && text->as_string() == step.expected->text;
    }
    case Kind::kOpen:
    case Kind::kPatch: {
      // Session replies carry no rendered text: compare field by field.
      const analysis::PerformanceReport& e = step.expected->report;
      const svc::JsonValue* live = view.result.find("live");
      const svc::JsonValue* num = view.result.find("ct_num");
      const svc::JsonValue* den = view.result.find("ct_den");
      const svc::JsonValue* ct = view.result.find("cycle_time");
      return live != nullptr && live->as_bool() == e.live && num != nullptr &&
             num->as_int() == e.ct_num && den != nullptr &&
             den->as_int() == e.ct_den && ct != nullptr &&
             ct->as_double() == e.cycle_time;
    }
    case Kind::kClose:
      return true;
  }
  return false;
}

struct Pass {
  ItemTimes untraced;  // per step
  ItemTimes traced;
  RoundWalls walls;
  Outcomes traced_requests;  // every request of the traced rounds
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  bool transport_ok = true;
};

// Runs one round and checks every reply. Records, per step, its time and
// (with `host`) the reference samples around it into `times`, when given.
// Returns false on a transport error.
bool run_round(const Inputs& in, Client& client, Daemon& daemon,
               HostSpeed* host, ItemTimes* times, bool traced, Pass& pass,
               Report& report) {
  daemon.server->broker().cache().clear();
  std::int64_t op_id = 0;
  if (host != nullptr) host->sample();
  for (std::size_t i = 0; i < in.round.size(); ++i) {
    const Step& step = in.round[i];
    const std::size_t first =
        host != nullptr ? host->samples().size() - 1 : 0;
    const std::int64_t t0 = Tracer::now_ns();
    bool ok = true;
    for (std::size_t c = 0; c < step.lines.size(); ++c) {
      ok = ok && client.send(c, step.lines[c]);
    }
    std::vector<std::string> replies(step.lines.size());
    for (std::size_t c = 0; c < step.lines.size() && ok; ++c) {
      ok = client.receive(c, &replies[c]);
    }
    const std::int64_t t1 = Tracer::now_ns();
    if (!ok) return false;
    const double step_ms = static_cast<double>(t1 - t0) / 1e6;
    if (host != nullptr) host->sample();
    if (times != nullptr) {
      times->add(i, {step_ms},
                 host != nullptr ? host->samples_since(first)
                                 : std::span<const double>());
    }
    if (traced) {
      Tracer::global().record(std::string("serve.") + kind_name(step.kind),
                              t0, t1, ++op_id);
    }
    for (const std::string& reply : replies) {
      ++pass.requests;
      const bool good = reply_ok(step, reply);
      if (traced) {
        if (good) {
          pass.traced_requests.ok(step_ms);
        } else {
          pass.traced_requests.failed();
        }
      }
      if (!good) {
        ++pass.failed;
        report.check(false, std::string(kind_name(step.kind)) + " step " +
                                std::to_string(i) +
                                " failed: " + reply.substr(0, 160));
      }
    }
  }
  return true;
}

// Pins the calling thread, and every thread it starts from now on, to the
// CPU it runs on; restores the previous affinity when destroyed.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    pinned_ = ::sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    const int cpu = ::sched_getcpu();
    if (!pinned_ || cpu < 0) {
      pinned_ = false;
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  bool pinned() const { return pinned_; }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

double quantile_ms(const char* name, double q) {
  return static_cast<double>(
             obs::Registry::global().quantile(name).snapshot().quantile(q)) /
         1e6;
}

// Per-layer metrics of the traced rounds: the daemon's latency instruments
// and slow-log stages, the client's view, and one benchmark span per step.
void report_traced_layers(Report& report, const Pass& pass,
                          StageLog& stages) {
  report_common_layers(report, sum(pass.walls.traced));
  const std::vector<double> all = pass.traced_requests.all_latencies();
  report.set_layer("serve.latency_p99_ms", percentile(all, 99.0), "ms");
  report_trace_overhead(report, pass.untraced, pass.traced);
  report.set_layer("svc.queue_wait_p99_ms",
                   quantile_ms("svc.queue_wait_ns", 0.99), "ms");
  report.set_layer("svc.analyze_p50_ms",
                   quantile_ms("svc.op_ns.analyze", 0.50), "ms");
  report.set_layer("svc.explore_p99_ms",
                   quantile_ms("svc.op_ns.explore", 0.99), "ms");
  report.set_layer("svc.patch_p50_ms", quantile_ms("svc.op_ns.patch", 0.50),
                   "ms");
  // Requests under the slow-log threshold spent < 1 ms in every stage and
  // enter as zeros.
  std::lock_guard<std::mutex> lock(stages.mu);
  for (std::vector<double>* v :
       {&stages.parse_ms, &stages.solve_ms, &stages.render_ms}) {
    if (v->size() < all.size()) v->resize(all.size(), 0.0);
  }
  report.set_layer("svc.parse_p99_ms", percentile(stages.parse_ms, 99.0),
                   "ms");
  report.set_layer("svc.solve_p99_ms", percentile(stages.solve_ms, 99.0),
                   "ms");
  report.set_layer("svc.render_p99_ms", percentile(stages.render_ms, 99.0),
                   "ms");
}

}  // namespace

bool run_serve_mix(const Options& options, Report& report) {
  // A short path relative to the checkout: sun_path holds 108 bytes.
  ::mkdir(".bench_build", 0755);
  const std::string path =
      ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
  const PinToOneCpu pin;
  Inputs inputs;
  StageLog stages;  // outlives the daemon, whose slow log writes into it
  Daemon daemon;
  Client client;
  // The daemon's requests parse text, fill the cache and allocate, so the
  // reference adds loads through memory (host_speed.h).
  HostSpeed host(HostSpeed::Mix::kCoreAndMemory);
  Pass warm;
  // Set-up: the inputs and their expected replies, the daemon, and one
  // untimed round that warms it.
  const double setup_s = timed_setup(kSetupRepeats, host, [&] {
    daemon.stop();
    make_inputs(options.seed, inputs, report);
    return boot(daemon, path, options.trace ? &stages : nullptr) &&
           client.connect(path, 2) &&
           run_round(inputs, client, daemon, nullptr, nullptr, false, warm,
                     report);
  });
  if (setup_s < 0.0) return false;
  reset_traces();
  {
    std::lock_guard<std::mutex> lock(stages.mu);
    stages.parse_ms.clear();
    stages.solve_ms.clear();
    stages.render_ms.clear();
  }

  Pass pass;
  pass.untraced = pass.traced = ItemTimes(inputs.round.size());
  svc::Broker& broker = daemon.server->broker();
  const analysis::EvalCache& cache = broker.cache();
  const svc::Broker::Stats before = broker.stats();
  std::int64_t hits = 0, misses = 0, evictions = 0, bytes = 0;
  pass.walls = run_rounds(options.seconds, options.trace, [&](bool traced) {
    const std::int64_t h = cache.hits(), m = cache.misses(),
                       e = cache.evictions();
    pass.transport_ok =
        pass.transport_ok &&
        run_round(inputs, client, daemon, traced ? nullptr : &host,
                  traced ? &pass.traced : &pass.untraced, traced, pass,
                  report);
    if (traced) {
      hits += cache.hits() - h;
      misses += cache.misses() - m;
      evictions += cache.evictions() - e;
      bytes = cache.bytes();
    }
  });
  const svc::Broker::Stats after = broker.stats();
  if (options.trace) {
    report_cache_layers(report, hits, misses, evictions, bytes);
    report.set_layer("svc.coalesced",
                     static_cast<double>(after.coalesced - before.coalesced),
                     "count");
    report.set_layer(
        "svc.rejected",
        static_cast<double>(after.rejected_overloaded -
                            before.rejected_overloaded +
                            after.rejected_shutting_down -
                            before.rejected_shutting_down),
        "count");
    report_traced_layers(report, pass, stages);
  }
  daemon.stop();
  report.check(pass.transport_ok, "transport error or replies missing");
  report.attempted = pass.requests;
  report.failed =
      report.correct() ? 0 : std::max<std::int64_t>(1, pass.failed);

  char line[240];
  std::snprintf(line, sizeof line,
                "serve_mix: %zu steps (%zu requests) per round, %zu "
                "untraced rounds; pinned to one CPU: %s",
                inputs.round.size(), inputs.requests,
                pass.walls.untraced.size(), pin.pinned() ? "yes" : "no");
  report.note(line);
  std::vector<double> all;  // every untraced step, scaled
  for (const std::vector<std::vector<double>>& step : pass.untraced.ms) {
    for (const std::vector<double>& rounds : step) {
      all.insert(all.end(), rounds.begin(), rounds.end());
    }
  }
  const double tail = tail_percentile(all.size());
  std::snprintf(line, sizeof line,
                "  all steps: %zu samples; p50 %.3f ms, p%g %.3f ms (%zu "
                "samples beyond) (scaled)",
                all.size(), median(all), tail, percentile(all, tail),
                samples_beyond(all.size(), tail));
  report.note(line);
  const std::vector<double> steps = pass.untraced.item_ms();
  std::vector<std::vector<double>> by_kind(kKinds);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    by_kind[static_cast<std::size_t>(inputs.round[i].kind)].push_back(
        steps[i]);
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::snprintf(line, sizeof line,
                  "  %-13s %2zu steps; median %8.3f ms, slowest %8.3f ms "
                  "(scaled)",
                  kind_name(static_cast<Kind>(k)), by_kind[k].size(),
                  median(by_kind[k]),
                  by_kind[k].empty() ? 0.0
                                     : *std::max_element(by_kind[k].begin(),
                                                         by_kind[k].end()));
    report.note(line);
  }

  report.set_end_to_end("setup_s", setup_s, "s");
  report_closed_loop(report, pass.untraced, pass.walls);
  report.set_end_to_end(
      "throughput_rps",
      static_cast<double>(inputs.requests) / pass.untraced.wall_s(), "1/s");
  report.set_end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report_host_speed(report, host);
  return true;
}

}  // namespace perfbench
