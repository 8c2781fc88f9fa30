// Unit tests for the telemetry subsystem: instrument semantics, JSON
// snapshot round-trip, trace spans (nesting + Chrome trace well-formedness),
// registry reset, the reference sim kernel's stall accounting checked
// against a hand-computed rendezvous schedule, and metrics parity between
// sim::publish_metrics and the reference kernel's publisher.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/quantile.h"
#include "obs/report.h"
#include "obs/request_context.h"
#include "obs/span.h"
#include "sim/compiled.h"
#include "sim/stall_report.h"
#include "sim/system_sim.h"
#include "sim_reference/bridge.h"
#include "sysmodel/builder.h"
#include "util/str_cat.h"
#include "util/timer.h"

namespace ermes::obs {
namespace {

// ---- mini JSON parser --------------------------------------------------------
//
// Just enough recursive descent to round-trip what the exporters emit:
// objects, arrays, strings (with \uXXXX escapes), and numbers.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::monostate, double, std::string, JsonArray, JsonObject> v;

  bool is_number() const { return std::holds_alternative<double>(v); }
  double num() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  const JsonArray& arr() const { return std::get<JsonArray>(v); }
  const JsonObject& obj() const { return std::get<JsonObject>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage in JSON";
    return value;
  }

  bool failed() const { return failed_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) {
      failed_ = true;
      return '\0';
    }
    return text_[pos_];
  }

  bool consume(char c) {
    if (peek() != c) {
      failed_ = true;
      return false;
    }
    ++pos_;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue{parse_string()};
    return parse_number();
  }

  JsonValue parse_object() {
    JsonObject out;
    consume('{');
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(out)};
    }
    while (!failed_) {
      std::string key = parse_string();
      consume(':');
      out.emplace(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      consume('}');
      break;
    }
    return JsonValue{std::move(out)};
  }

  JsonValue parse_array() {
    JsonArray out;
    consume('[');
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(out)};
    }
    while (!failed_) {
      out.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      consume(']');
      break;
    }
    return JsonValue{std::move(out)};
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) return out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'u':
            // \uXXXX: the exporters only emit it for control characters.
            out.push_back(static_cast<char>(
                std::stoi(text_.substr(pos_, 4), nullptr, 16)));
            pos_ += 4;
            break;
          default: out.push_back(esc); break;
        }
      } else {
        out.push_back(c);
      }
    }
    consume('"');
    return out;
  }

  JsonValue parse_number() {
    skip_ws();
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) {
      failed_ = true;
      return JsonValue{};
    }
    const double value = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return JsonValue{value};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// Restores the process-wide enable flag on scope exit so tests cannot leak
// telemetry state into each other.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(false); }
};

// ---- bucketing ---------------------------------------------------------------

TEST(HistogramBuckets, IndexMatchesDocumentedRanges) {
  EXPECT_EQ(bucket_index(-5), 0);
  EXPECT_EQ(bucket_index(0), 0);
  EXPECT_EQ(bucket_index(1), 1);
  EXPECT_EQ(bucket_index(2), 2);
  EXPECT_EQ(bucket_index(3), 2);
  EXPECT_EQ(bucket_index(4), 3);
  EXPECT_EQ(bucket_index(7), 3);
  EXPECT_EQ(bucket_index(8), 4);
  EXPECT_EQ(bucket_index(std::numeric_limits<std::int64_t>::max()),
            kHistogramBuckets - 1);
}

TEST(HistogramBuckets, UpperBoundsBracketTheirValues) {
  for (std::int64_t v : {1, 2, 3, 100, 1023, 1024, 1 << 20}) {
    const int b = bucket_index(v);
    EXPECT_LE(v, bucket_upper_bound(b)) << "v=" << v;
    if (b > 1) {
      EXPECT_GT(v, bucket_upper_bound(b - 1)) << "v=" << v;
    }
  }
}

// ---- instrument semantics ----------------------------------------------------

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, SetOverwritesAddAccumulates) {
  Gauge g;
  g.set(10);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(HistogramDataTest, ObserveTracksExactMoments) {
  HistogramData h;
  for (std::int64_t v : {5, 1, 9, 0}) h.observe(v);
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.sum, 15);
  EXPECT_EQ(h.min, 0);
  EXPECT_EQ(h.max, 9);
  EXPECT_DOUBLE_EQ(h.mean(), 3.75);
  EXPECT_EQ(h.buckets[bucket_index(0)], 1);
  EXPECT_EQ(h.buckets[bucket_index(1)], 1);
  EXPECT_EQ(h.buckets[bucket_index(5)], 1);
  EXPECT_EQ(h.buckets[bucket_index(9)], 1);
}

TEST(HistogramDataTest, MergeMatchesSequentialObserve) {
  HistogramData a, b, both;
  for (std::int64_t v : {3, 100}) { a.observe(v); both.observe(v); }
  for (std::int64_t v : {1, 7, 50}) { b.observe(v); both.observe(v); }
  a.merge(b);
  EXPECT_EQ(a.count, both.count);
  EXPECT_EQ(a.sum, both.sum);
  EXPECT_EQ(a.min, both.min);
  EXPECT_EQ(a.max, both.max);
  EXPECT_EQ(a.buckets, both.buckets);
}

TEST(HistogramDataTest, QuantileReturnsBucketUpperBound) {
  HistogramData h;
  for (int i = 0; i < 99; ++i) h.observe(4);   // bucket 3: [4,7]
  h.observe(1000);                             // bucket 10: [512,1023]
  EXPECT_EQ(h.quantile(0.5), bucket_upper_bound(bucket_index(4)));
  // The bucket bound is clamped by the exact max, so the tail quantile is
  // the observed maximum rather than the looser 2^k - 1.
  EXPECT_EQ(h.quantile(1.0), 1000);
}

TEST(HistogramTest, AtomicMirrorsPlainData) {
  Histogram h;
  h.observe(5);
  h.observe(600);
  HistogramData batch;
  batch.observe(2);
  batch.observe(70);
  h.record(batch);
  const HistogramData snap = h.snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum, 677);
  EXPECT_EQ(snap.min, 2);
  EXPECT_EQ(snap.max, 600);
}

// ---- registry ----------------------------------------------------------------

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter("x.count").value(), 3);
}

TEST(RegistryTest, ResetZeroesButKeepsRegistrations) {
  Registry reg;
  Counter& c = reg.counter("a");
  reg.gauge("b").set(7);
  reg.histogram("c").observe(12);
  c.add(5);
  reg.reset();
  EXPECT_EQ(reg.entries().size(), 3u);  // registrations survive
  EXPECT_EQ(c.value(), 0);              // old reference still valid
  EXPECT_EQ(reg.gauge("b").value(), 0);
  EXPECT_EQ(reg.histogram("c").count(), 0);
}

TEST(RegistryTest, FreeFunctionsGateOnEnabledFlag) {
  const std::string name = "test.gated_counter";
  set_enabled(false);
  count(name, 5);
  for (const Registry::Entry& e : Registry::global().entries()) {
    EXPECT_NE(e.name, name) << "disabled count() must not register";
  }
  {
    EnabledGuard guard(true);
    count(name, 5);
    gauge_set("test.gated_gauge", 9);
    observe("test.gated_hist", 100);
  }
  EXPECT_EQ(Registry::global().counter(name).value(), 5);
  EXPECT_EQ(Registry::global().gauge("test.gated_gauge").value(), 9);
  EXPECT_EQ(Registry::global().histogram("test.gated_hist").count(), 1);
}

TEST(RegistryTest, JsonSnapshotRoundTrips) {
  Registry reg;
  reg.counter("howard.iterations").add(42);
  reg.gauge("dse.frontier").set(-3);
  Histogram& h = reg.histogram("sim.put_wait");
  h.observe(0);
  h.observe(5);
  h.observe(1000);

  const std::string json = reg.to_json();
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_FALSE(parser.failed()) << json;

  const JsonObject& obj = root.obj();
  EXPECT_EQ(obj.at("counters").obj().at("howard.iterations").num(), 42.0);
  EXPECT_EQ(obj.at("gauges").obj().at("dse.frontier").num(), -3.0);
  const JsonObject& hist = obj.at("histograms").obj().at("sim.put_wait").obj();
  EXPECT_EQ(hist.at("count").num(), 3.0);
  EXPECT_EQ(hist.at("sum").num(), 1005.0);
  EXPECT_EQ(hist.at("min").num(), 0.0);
  EXPECT_EQ(hist.at("max").num(), 1000.0);
  // Buckets serialize as [upper_bound, count] pairs covering every sample.
  double bucket_total = 0.0;
  for (const JsonValue& pair : hist.at("buckets").arr()) {
    ASSERT_EQ(pair.arr().size(), 2u);
    bucket_total += pair.arr()[1].num();
  }
  EXPECT_EQ(bucket_total, 3.0);
}

TEST(JsonUtilTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ReportTest, TablesIncludeRegisteredInstruments) {
  Registry reg;
  reg.counter("m.events").add(7);
  reg.histogram("m.wait").observe(16);
  const std::string text = metrics_tables(reg);
  EXPECT_NE(text.find("m.events"), std::string::npos);
  EXPECT_NE(text.find("m.wait"), std::string::npos);
  // Prefix filtering drops everything else.
  EXPECT_EQ(metrics_tables(reg, "nomatch").find("m.events"),
            std::string::npos);
}

// ---- spans -------------------------------------------------------------------

TEST(SpanTest, DisabledSpanRecordsNothing) {
  set_enabled(false);
  SpanRecorder& rec = SpanRecorder::global();
  rec.clear();
  { ObsSpan span("should_not_appear"); }
  EXPECT_EQ(rec.size(), 0u);
}

TEST(SpanTest, NestedSpansAreContainedInParent) {
  EnabledGuard guard(true);
  SpanRecorder& rec = SpanRecorder::global();
  rec.clear();
  {
    ObsSpan outer("outer", "test");
    {
      ObsSpan inner("inner", "test");
    }
  }
  const std::vector<SpanEvent> events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  // Children close first, so they precede their parent in the buffer.
  const SpanEvent& inner = events[0];
  const SpanEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_GE(inner.dur_ns, 0);
}

TEST(SpanTest, CloseIsIdempotentAndEndsTheSpanEarly) {
  EnabledGuard guard(true);
  SpanRecorder& rec = SpanRecorder::global();
  rec.clear();
  ObsSpan span("early", "test");
  EXPECT_TRUE(span.active());
  span.close();
  EXPECT_FALSE(span.active());
  span.close();  // no double record
  EXPECT_EQ(rec.size(), 1u);
}

TEST(SpanRecorderTest, RingKeepsNewestAndCountsDrops) {
  SpanRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    rec.record(util::str_cat("s", i), "test", /*start_ns=*/i, /*dur_ns=*/1);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2);
  const std::vector<SpanEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "s2");  // oldest surviving
  EXPECT_EQ(events.back().name, "s5");
}

TEST(SpanRecorderTest, ChromeTraceJsonIsWellFormed) {
  SpanRecorder rec(/*capacity=*/16);
  rec.record("alpha", "test", 1500, 2500);       // 1.5us .. 4us
  rec.record("beta \"quoted\"", "test", 0, 10);  // name needs escaping
  const std::string json = rec.to_chrome_json();
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_FALSE(parser.failed()) << json;
  const JsonArray& events = root.obj().at("traceEvents").arr();
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& ev : events) {
    const JsonObject& obj = ev.obj();
    EXPECT_EQ(obj.at("ph").str(), "X");
    EXPECT_GE(obj.at("ts").num(), 0.0);
    EXPECT_GE(obj.at("dur").num(), 0.0);
    EXPECT_TRUE(obj.count("pid"));
    EXPECT_TRUE(obj.count("tid"));
  }
  // ts/dur are microseconds at nanosecond resolution.
  EXPECT_DOUBLE_EQ(events[0].obj().at("ts").num(), 1.5);
  EXPECT_DOUBLE_EQ(events[0].obj().at("dur").num(), 2.5);
  EXPECT_EQ(events[1].obj().at("name").str(), "beta \"quoted\"");
}

// ---- util::Timer -------------------------------------------------------------

TEST(TimerTest, FeedsHistogramOnlyWhenEnabled) {
  Histogram hist;
  set_enabled(false);
  { util::Timer t(hist); }
  EXPECT_EQ(hist.count(), 0);
  {
    EnabledGuard guard(true);
    util::Timer t(hist);
  }
  EXPECT_EQ(hist.count(), 1);
  EXPECT_GE(hist.snapshot().min, 0);
}

// ---- kernel stall accounting -------------------------------------------------
//
// Hand-computed rendezvous schedule. producer = compute(3); put(a) and
// consumer = get(a); compute(5), channel latency 2. Timeline for the first
// two transfers:
//
//   t=0   cons blocks on get (no put pending); prod computes until 3
//   t=3   prod puts, cons was waiting 3 cycles -> transfer until 5
//   t=5   prod computes until 8; cons computes until 10
//   t=8   prod blocks on put (cons still computing)
//   t=10  cons gets, prod was waiting 2 cycles -> transfer until 12
//   t=12  second transfer completes, run stops
TEST(StallAccountingTest, MatchesHandComputedSchedule) {
  sim::Kernel kernel;
  const sim::SimProcessId prod = kernel.add_process(
      "prod",
      sim::Program{sim::Statement::compute(3), sim::Statement::put(0)});
  const sim::SimProcessId cons = kernel.add_process(
      "cons",
      sim::Program{sim::Statement::get(0), sim::Statement::compute(5)});
  const sim::SimChannelId a = kernel.add_channel("a", prod, cons, 2);

  const sim::RunResult run = kernel.run(a, 2);
  ASSERT_FALSE(run.deadlock.deadlocked);
  ASSERT_EQ(run.cycles, 12);

  const sim::StallReport report = sim::collect_stalls(kernel);
  ASSERT_EQ(report.processes.size(), 2u);
  ASSERT_EQ(report.channels.size(), 1u);

  const sim::ProcessStall& ps = report.processes[0];
  EXPECT_EQ(ps.computing, 6);      // [0,3] + [5,8]
  EXPECT_EQ(ps.waiting, 2);        // [8,10]
  EXPECT_EQ(ps.transferring, 4);   // [3,5] + [10,12]
  EXPECT_EQ(ps.total(), 12);       // the split covers the whole run

  const sim::ProcessStall& cs = report.processes[1];
  EXPECT_EQ(cs.waiting, 3);        // [0,3]
  EXPECT_EQ(cs.computing, 5);      // [5,10]
  EXPECT_EQ(cs.transferring, 4);
  EXPECT_EQ(cs.total(), 12);

  const sim::ChannelStall& ch = report.channels[0];
  EXPECT_EQ(ch.transfers, 2);
  EXPECT_EQ(ch.blocked_puts, 1);   // only the t=8 put actually suspended
  EXPECT_EQ(ch.blocked_gets, 1);
  EXPECT_EQ(ch.put_wait_cycles, 2);
  EXPECT_EQ(ch.get_wait_cycles, 3);
  // Every episode lands in the histograms, including the zero-wait ones.
  EXPECT_EQ(ch.put_wait.count, 2);
  EXPECT_EQ(ch.put_wait.sum, 2);
  EXPECT_EQ(ch.put_wait.max, 2);
  EXPECT_EQ(ch.get_wait.count, 2);
  EXPECT_EQ(ch.get_wait.sum, 3);
  EXPECT_EQ(ch.get_wait.max, 3);

  // The rendered report names both tables.
  const std::string text = report.to_text(0);
  EXPECT_NE(text.find("stall accounting over 12 cycles"), std::string::npos);
  EXPECT_NE(text.find("prod"), std::string::npos);
  EXPECT_NE(text.find("blocked puts"), std::string::npos);
}

TEST(StallAccountingTest, PublishMetricsFillsSimPrefix) {
  EnabledGuard guard(true);
  Registry::global().reset();
  sim::Kernel kernel;
  const sim::SimProcessId prod = kernel.add_process(
      "p", sim::Program{sim::Statement::compute(3), sim::Statement::put(0)});
  const sim::SimProcessId cons = kernel.add_process(
      "c", sim::Program{sim::Statement::get(0), sim::Statement::compute(5)});
  const sim::SimChannelId ch = kernel.add_channel("a", prod, cons, 2);
  kernel.run(ch, 2);
  kernel.publish_metrics("simtest");

  Registry& reg = Registry::global();
  EXPECT_EQ(reg.counter("simtest.runs").value(), 1);
  EXPECT_EQ(reg.counter("simtest.transfers").value(), 2);
  EXPECT_EQ(reg.counter("simtest.blocked_puts").value(), 1);
  EXPECT_EQ(reg.counter("simtest.blocked_gets").value(), 1);
  EXPECT_EQ(reg.counter("simtest.channel.a.put_wait_cycles").value(), 2);
  EXPECT_EQ(reg.counter("simtest.channel.a.get_wait_cycles").value(), 3);
  EXPECT_EQ(reg.counter("simtest.process.p.compute_cycles").value(), 6);
  EXPECT_EQ(reg.counter("simtest.process.c.waiting_cycles").value(), 3);
  EXPECT_EQ(reg.histogram("simtest.channel.a.put_wait").count(), 2);
}

// simulate_system publishes through sim::publish_metrics. Against the
// reference kernel's publisher on the same run, its metric names are a
// superset (it adds peak-occupancy gauges), and every counter and histogram
// the two share holds the same value.
TEST(StallAccountingTest, PublishMetricsCoversTheReferencePublisher) {
  EnabledGuard guard(true);
  sysmodel::SystemModel fifo = sysmodel::make_dac14_motivating_example();
  fifo.set_channel_capacity(fifo.find_channel("d"), 2);
  fifo.set_channel_capacity(fifo.find_channel("g"), 1);
  for (const sysmodel::SystemModel& sys :
       {sysmodel::make_dac14_motivating_example(), fifo}) {
    Registry& reg = Registry::global();
    reg.reset();
    constexpr std::int64_t kItems = 300;
    const sim::SystemSimResult run = sim::simulate_system(sys, kItems);
    ASSERT_EQ(run.items, kItems);
    sim::Kernel kernel = sim::build_kernel(sys);
    kernel.run(sim::default_observe_channel(sys), kItems,
               sim::default_cycle_limit(sys, kItems));
    kernel.publish_metrics("simref");

    std::map<std::string, Registry::Entry> fresh, old;
    for (Registry::Entry& entry : reg.entries()) {
      if (entry.name.rfind("sim.", 0) == 0) {
        fresh[entry.name.substr(4)] = entry;
      } else if (entry.name.rfind("simref.", 0) == 0) {
        old[entry.name.substr(7)] = entry;
      }
    }
    ASSERT_FALSE(old.empty());
    for (const auto& [name, entry] : old) {
      const auto it = fresh.find(name);
      ASSERT_NE(it, fresh.end()) << "sim." << name << " not published";
      ASSERT_EQ(it->second.kind, entry.kind) << name;
      EXPECT_EQ(it->second.value, entry.value) << name;
      if (entry.kind == Registry::Entry::Kind::kHistogram) {
        EXPECT_EQ(it->second.hist.count, entry.hist.count) << name;
        EXPECT_EQ(it->second.hist.sum, entry.hist.sum) << name;
        EXPECT_EQ(it->second.hist.min, entry.hist.min) << name;
        EXPECT_EQ(it->second.hist.max, entry.hist.max) << name;
        EXPECT_EQ(it->second.hist.buckets, entry.hist.buckets) << name;
      }
    }
    // What the compiled publisher adds: peak-occupancy high-water gauges.
    for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
      const std::string name =
          "channel." + sys.channel_name(c) + ".peak_occupancy";
      ASSERT_TRUE(fresh.count(name)) << name;
      EXPECT_EQ(fresh[name].value, kernel.channel(c).peak_occupancy) << name;
    }
    EXPECT_TRUE(fresh.count("peak_occupancy"));
  }
}

// ---- quantile histogram ------------------------------------------------------

TEST(QuantileTest, BucketIndexRoundTripsExactRange) {
  // Below kQuantileExactLimit every value owns its bucket: index == value
  // and the bucket upper bound is the value itself.
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{37},
                         kQuantileExactLimit - 1}) {
    const int b = quantile_bucket_index(v);
    EXPECT_EQ(b, static_cast<int>(v));
    EXPECT_EQ(quantile_bucket_upper(b), v);
  }
  EXPECT_EQ(quantile_bucket_index(-5), 0);  // negatives clamp to bucket 0
}

TEST(QuantileTest, BucketUpperBoundsBracketLargeValues) {
  // Above the exact range: value <= upper(bucket(value)) and the bucket
  // width bounds relative error by 2^-kQuantilePrecisionBits.
  for (std::int64_t v :
       {std::int64_t{256}, std::int64_t{1000}, std::int64_t{123456789},
        std::int64_t{1} << 40, std::numeric_limits<std::int64_t>::max()}) {
    const int b = quantile_bucket_index(v);
    const std::int64_t upper = quantile_bucket_upper(b);
    ASSERT_GE(upper, v);
    const double rel = static_cast<double>(upper - v) / static_cast<double>(v);
    EXPECT_LE(rel, 1.0 / (1 << kQuantilePrecisionBits))
        << "value " << v << " bucket " << b;
  }
}

TEST(QuantileTest, ExactBelowLimitNearestRankAboveIt) {
  QuantileSnapshot q;
  for (std::int64_t v = 1; v <= 100; ++v) q.observe(v);
  // Values < 256 are exact: the nearest-rank quantile is the value itself.
  EXPECT_EQ(q.quantile(0.50), 50);
  EXPECT_EQ(q.quantile(0.90), 90);
  EXPECT_EQ(q.quantile(0.99), 99);
  EXPECT_EQ(q.quantile(0.0), 1);    // clamped to min
  EXPECT_EQ(q.quantile(1.0), 100);  // clamped to max
  EXPECT_EQ(q.count, 100);
  EXPECT_EQ(q.sum, 5050);
  EXPECT_DOUBLE_EQ(q.mean(), 50.5);
}

TEST(QuantileTest, RelativeErrorBoundHoldsAboveExactRange) {
  QuantileSnapshot q;
  for (std::int64_t v = 1; v <= 10'000; ++v) q.observe(v * 1000);
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    const double exact =
        1000.0 * std::ceil(p * 10'000.0);  // nearest-rank ground truth
    const double got = static_cast<double>(q.quantile(p));
    EXPECT_GE(got, exact);  // bucket upper bound never under-reports
    EXPECT_LE((got - exact) / exact, 1.0 / (1 << kQuantilePrecisionBits))
        << "p=" << p;
  }
}

TEST(QuantileTest, QuantilesAreMonotoneInQ) {
  QuantileSnapshot q;
  std::uint64_t seed = 12345;  // unsigned: the LCG wraps modulo 2^64
  for (int i = 0; i < 5000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    q.observe(static_cast<std::int64_t>((seed >> 33) & ((1ULL << 28) - 1)));
  }
  std::int64_t prev = q.quantile(0.0);
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    const std::int64_t cur = q.quantile(p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
}

TEST(QuantileTest, MergeMatchesSequentialObserve) {
  QuantileSnapshot a, b, all;
  for (std::int64_t v = 1; v <= 400; ++v) {
    ((v % 2 == 0) ? a : b).observe(v * 7);
    all.observe(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a.count, all.count);
  EXPECT_EQ(a.sum, all.sum);
  EXPECT_EQ(a.min, all.min);
  EXPECT_EQ(a.max, all.max);
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(p), all.quantile(p)) << "p=" << p;
  }
}

TEST(QuantileTest, EmptySnapshotIsAllZero) {
  const QuantileSnapshot q;
  EXPECT_EQ(q.count, 0);
  EXPECT_EQ(q.quantile(0.5), 0);
  EXPECT_EQ(q.quantile(0.99), 0);
  EXPECT_DOUBLE_EQ(q.mean(), 0.0);
  // Merging an empty snapshot is a no-op in both directions.
  QuantileSnapshot other;
  other.observe(42);
  QuantileSnapshot merged = other;
  merged.merge(q);
  EXPECT_EQ(merged.count, 1);
  QuantileSnapshot empty;
  empty.merge(other);
  EXPECT_EQ(empty.quantile(0.5), 42);
}

TEST(QuantileTest, AtomicHistogramMirrorsSnapshot) {
  QuantileHistogram h;
  for (std::int64_t v = 1; v <= 300; ++v) h.observe(v);
  EXPECT_EQ(h.count(), 300);
  const QuantileSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 300);
  EXPECT_EQ(snap.quantile(0.5), 150);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.snapshot().quantile(0.5), 0);
}

TEST(QuantileTest, RegistryObserveQuantileGatesOnEnabled) {
  Registry::global().reset();
  set_enabled(false);
  observe_quantile("q.test.gate", 10);
  EXPECT_EQ(Registry::global().quantile("q.test.gate").count(), 0);
  {
    EnabledGuard guard(true);
    observe_quantile("q.test.gate", 10);
  }
  EXPECT_EQ(Registry::global().quantile("q.test.gate").count(), 1);
  Registry::global().reset();
}

// ---- sliding-window rates ----------------------------------------------------

TEST(WindowRateTest, SumCoversOnlyTheWindow) {
  WindowRate rate(10);
  EXPECT_EQ(rate.window_seconds(), 10);
  for (std::int64_t s = 100; s < 110; ++s) rate.record_at(s, 2);
  EXPECT_EQ(rate.sum_at(109), 20);  // all ten seconds inside the window
  // Five seconds later, the first five seconds have aged out.
  EXPECT_EQ(rate.sum_at(114), 10);
  // A full window later, everything has aged out.
  EXPECT_EQ(rate.sum_at(120), 0);
  EXPECT_DOUBLE_EQ(rate.rate_per_sec_at(109), 2.0);
}

TEST(WindowRateTest, RolloverRepurposesStaleSlots) {
  WindowRate rate(3);
  rate.record_at(5, 100);
  // Second 9 maps onto second 5's ring slot (ring size 4); the stale count
  // must not leak into the new epoch.
  rate.record_at(9, 1);
  EXPECT_EQ(rate.sum_at(9), 1);
  rate.record_at(9, 1);
  EXPECT_EQ(rate.sum_at(9), 2);
  // Going quiet decays to zero; old epochs never resurface.
  EXPECT_EQ(rate.sum_at(13), 0);
}

// ---- Prometheus exposition ---------------------------------------------------

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(prometheus_name("svc.request_ns"), "ermes_svc_request_ns");
  EXPECT_EQ(prometheus_name("svc.op_ns.open_session"),
            "ermes_svc_op_ns_open_session");
  EXPECT_EQ(prometheus_name("weird-name 1"), "ermes_weird_name_1");
}

TEST(PrometheusTest, RendersEveryInstrumentKind) {
  Registry registry;
  registry.counter("svc.requests.accepted").add(7);
  registry.gauge("svc.queue.waiting").set(3);
  registry.histogram("solve.ns").observe(12);
  for (std::int64_t v = 1; v <= 100; ++v) {
    registry.quantile("svc.request_ns").observe(v);
  }
  const std::string text = render_prometheus(registry);

  EXPECT_NE(text.find("# TYPE ermes_svc_requests_accepted counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("ermes_svc_requests_accepted_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ermes_svc_queue_waiting gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("ermes_svc_queue_waiting 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ermes_solve_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("ermes_solve_ns_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ermes_solve_ns_count 1\n"), std::string::npos);
  // The quantile instrument renders as a histogram plus precomputed
  // quantile gauges.
  EXPECT_NE(text.find("# TYPE ermes_svc_request_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("ermes_svc_request_ns_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("ermes_svc_request_ns_sum 5050\n"), std::string::npos);
  EXPECT_NE(text.find("ermes_svc_request_ns_q{quantile=\"0.5\"} 50\n"),
            std::string::npos);
  EXPECT_NE(text.find("ermes_svc_request_ns_q{quantile=\"0.99\"} 99\n"),
            std::string::npos);
  // Cumulative bucket counts are monotone and end at the total count.
  const std::string bucket_prefix = "ermes_solve_ns_bucket{le=";
  EXPECT_NE(text.find(bucket_prefix), std::string::npos);
  // Every line the renderer emits is newline-terminated.
  EXPECT_EQ(text.back(), '\n');
}

// ---- request context ---------------------------------------------------------

TEST(RequestContextTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(current_request(), nullptr);
  RequestContext outer;
  outer.id = "\"r1\"";
  {
    RequestScope scope(&outer);
    EXPECT_EQ(current_request(), &outer);
    RequestContext inner;
    {
      RequestScope nested(&inner);
      EXPECT_EQ(current_request(), &inner);
    }
    EXPECT_EQ(current_request(), &outer);
  }
  EXPECT_EQ(current_request(), nullptr);
}

TEST(RequestContextTest, StageTimerAccumulatesIntoCurrentContext) {
  RequestContext ctx;
  {
    RequestScope scope(&ctx);
    { StageTimer t(Stage::kSolve); }
    { StageTimer t(Stage::kSolve); }
    { StageTimer t(Stage::kParse); }
  }
  EXPECT_GE(ctx.stage(Stage::kSolve), 0);
  EXPECT_GE(ctx.stage(Stage::kParse), 0);
  EXPECT_EQ(ctx.stage(Stage::kQueueWait), 0);
  ctx.add(Stage::kQueueWait, 1234);
  EXPECT_EQ(ctx.stage(Stage::kQueueWait), 1234);
  // Outside a scope a StageTimer is inert.
  { StageTimer t(Stage::kRender); }
  EXPECT_EQ(ctx.stage(Stage::kRender), 0);
}

TEST(RequestContextTest, StageNamesAreStable) {
  EXPECT_STREQ(to_string(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(to_string(Stage::kParse), "parse");
  EXPECT_STREQ(to_string(Stage::kCacheProbe), "cache_probe");
  EXPECT_STREQ(to_string(Stage::kSolve), "solve");
  EXPECT_STREQ(to_string(Stage::kRender), "render");
}

TEST(RequestContextTest, UntracedContextSuppressesSpans) {
  EnabledGuard guard(true);
  SpanRecorder::global().clear();
  RequestContext ctx;
  ctx.traced = false;
  {
    RequestScope scope(&ctx);
    ObsSpan span("suppressed");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(SpanRecorder::global().size(), 0u);
  ctx.traced = true;
  {
    RequestScope scope(&ctx);
    ObsSpan span("recorded");
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(SpanRecorder::global().size(), 1u);
  SpanRecorder::global().clear();
}

}  // namespace
}  // namespace ermes::obs
