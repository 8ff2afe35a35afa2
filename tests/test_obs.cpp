// Unit tests for the observability layer: metric semantics, lock-free
// multi-threaded accumulation, percentile estimation, snapshot isolation,
// registry scoping, and the Chrome trace-event exporter (parsed back with
// the shared minimal JSON reader and checked by the trace validator).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rshc/obs/obs.hpp"
#include "rshc/obs/report.hpp"
#include "support/json_mini.hpp"
#include "support/trace_validator.hpp"

namespace {

using namespace rshc;
using testsupport::JsonParser;
using testsupport::JsonValue;

/// Every obs test starts from a clean global registry/tracer and restores
/// the default switches (metrics on, tracing off) afterwards — the
/// singletons are process-wide and other suites share them.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_tracing(false);
    obs::Registry::global().reset();
    obs::Tracer::global().clear();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::set_enabled(true);
    obs::Tracer::global().set_ring_capacity(65536);
    obs::Tracer::global().clear();
  }
};

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  auto& c = obs::Registry::global().counter("t.counter");
  EXPECT_EQ(c.total(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.total(), 42);
  // Same name returns the same metric.
  EXPECT_EQ(&obs::Registry::global().counter("t.counter"), &c);
  c.reset();
  EXPECT_EQ(c.total(), 0);
}

TEST_F(ObsTest, GaugeIsLastWriteWins) {
  auto& g = obs::Registry::global().gauge("t.gauge");
  g.set(3.5);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(ObsTest, TimeHistStatisticsAndBins) {
  auto& h = obs::Registry::global().timer("t.hist");
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 0.0);  // empty
  h.record_ns(1000);
  h.record_ns(3000);
  h.record_ns(500);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 4500e-9);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 500e-9);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 3000e-9);

  // Bin i covers [2^i, 2^(i+1)) ns.
  EXPECT_EQ(obs::TimeHist::bin_index(0), 0u);
  EXPECT_EQ(obs::TimeHist::bin_index(1), 0u);
  EXPECT_EQ(obs::TimeHist::bin_index(1023), 9u);
  EXPECT_EQ(obs::TimeHist::bin_index(1024), 10u);
  EXPECT_EQ(obs::TimeHist::bin_index(std::int64_t{1} << 62),
            obs::TimeHist::kNumBins - 1);  // clamped open-ended last bin
  const auto bins = h.bins();
  std::int64_t binned = 0;
  for (const auto b : bins) binned += b;
  EXPECT_EQ(binned, 3);
  EXPECT_EQ(bins[obs::TimeHist::bin_index(500)], 1);

  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.0);
}

TEST_F(ObsTest, NegativeDurationsClampToZero) {
  auto& h = obs::Registry::global().timer("t.hist.neg");
  h.record_ns(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 0.0);
}

TEST_F(ObsTest, MultiThreadedAccumulationIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  auto& c = obs::Registry::global().counter("t.mt.counter");
  auto& h = obs::Registry::global().timer("t.mt.hist");
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c, &h, t] {
        for (int i = 0; i < kPerThread; ++i) {
          c.add();
          h.record_ns(t + 1);  // per-thread distinct value
        }
      });
    }
  }
  EXPECT_EQ(c.total(), static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max_seconds(), kThreads * 1e-9);
}

TEST_F(ObsTest, SnapshotIsIsolatedFromLaterUpdates) {
  auto& c = obs::Registry::global().counter("t.snap.counter");
  c.add(7);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  c.add(100);  // must not retro-modify the snapshot
  const auto* e = snap.find("t.snap.counter");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, "counter");
  EXPECT_DOUBLE_EQ(e->value, 7.0);
  EXPECT_DOUBLE_EQ(snap.value_or("t.snap.counter"), 7.0);
  EXPECT_DOUBLE_EQ(snap.value_or("no.such.metric", -1.0), -1.0);
  EXPECT_EQ(snap.find("no.such.metric"), nullptr);
}

TEST_F(ObsTest, SnapshotSerializesSortedCsvAndJson) {
  obs::Registry::global().counter("t.ser.b").add(2);
  obs::Registry::global().counter("t.ser.a").add(1);
  obs::Registry::global().timer("t.ser.t").record_ns(1500);
  const obs::Snapshot snap = obs::Registry::global().snapshot();

  // Entries come back sorted by name.
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LE(snap.entries[i - 1].name, snap.entries[i].name);
  }

  const std::string csv = snap.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n') + 1),
            "name,kind,count,value,min,max,p50,p90,p99\n");
  EXPECT_NE(csv.find("t.ser.a,counter,0,1"), std::string::npos);
  EXPECT_NE(csv.find("t.ser.t,timer,1,"), std::string::npos);

  JsonParser parser(snap.to_json());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  const auto& metrics = root.at("metrics");
  ASSERT_EQ(metrics.kind, JsonValue::Kind::kArray);
  bool saw_timer = false;
  for (const auto& m : metrics.array) {
    if (m.at("name").string == "t.ser.t") {
      saw_timer = true;
      EXPECT_EQ(m.at("kind").string, "timer");
      EXPECT_DOUBLE_EQ(m.at("count").number, 1.0);
      EXPECT_EQ(m.at("bins").array.size(), obs::TimeHist::kNumBins);
      // A single sample collapses every percentile onto that sample.
      EXPECT_DOUBLE_EQ(m.at("p50").number, 1500e-9);
      EXPECT_DOUBLE_EQ(m.at("p90").number, 1500e-9);
      EXPECT_DOUBLE_EQ(m.at("p99").number, 1500e-9);
    }
  }
  EXPECT_TRUE(saw_timer);
}

TEST_F(ObsTest, JsonWritersEscapeEveryControlByte) {
  // Python's json.loads (tools/perf_report.py) rejects raw control bytes
  // inside strings, so both to_json writers must escape all of them.
  const std::string name = "t.esc\r\x01";
  obs::Registry::global().counter(name).add(1);
  obs::report::RunReport rep;
  obs::report::PhaseStats phase;
  phase.name = name;
  rep.phases.push_back(phase);
  rep.counters.emplace_back(name, 1.0);
  for (const std::string& json :
       {obs::Registry::global().snapshot().to_json(), rep.to_json()}) {
    for (const char c : json) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
    EXPECT_NE(json.find("t.esc\\r\\u0001"), std::string::npos) << json;
    JsonParser parser(json);
    (void)parser.parse();
    EXPECT_TRUE(parser.ok()) << parser.error();
  }

  // The trace exporter writes runtime strings too: a process name and an
  // interned counter name carrying a quote, a backslash and a control
  // byte must come out escaped and parse back.
  const std::string odd = "t.\"q\\b\x01";
  constexpr int kPid = 4242;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_process_name(kPid, odd);
  tracer.record_counter(odd, "test", 1.0, kPid);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string trace = os.str();
  for (const char c : trace) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << trace;
  }
  EXPECT_NE(trace.find("\"name\":\"t.\\\"q\\\\b\\u0001\""), std::string::npos)
      << trace;
  JsonParser parser(trace);
  (void)parser.parse();
  EXPECT_TRUE(parser.ok()) << parser.error();
}

// Span names and categories are emitted through the same escaping as
// runtime strings: literals carrying a quote, a backslash and control
// bytes still yield a trace that parses back.
TEST_F(ObsTest, ChromeTraceEscapesSpanNamesAndCategories) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.record_span("t.span\"q\\\x02", "c\"at\\\t", 7, 100, 200);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string trace = os.str();
  for (const char c : trace) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << trace;
  }
  EXPECT_NE(trace.find("\"name\":\"t.span\\\"q\\\\\\u0002\""),
            std::string::npos)
      << trace;
  JsonParser parser(trace);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  bool found = false;
  for (const JsonValue& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string != "X") continue;
    EXPECT_EQ(ev.at("cat").string, "c\"at\\\t");
    found = true;
  }
  EXPECT_TRUE(found) << trace;
}

// Tracks with no registered name get stable default labels: "rank <pid>"
// for the process and "tid <tid>" for each thread that recorded events.
TEST_F(ObsTest, ChromeTraceLabelsUnnamedTracks) {
  obs::Tracer& tracer = obs::Tracer::global();
  constexpr int kPid = 31337;
  tracer.record_counter("t.unnamed", "test", 2.0, kPid);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  JsonParser parser(os.str());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  std::string process_label;
  std::vector<std::string> thread_labels;
  double counter_tid = -1.0;
  for (const JsonValue& ev : root.at("traceEvents").array) {
    if (ev.at("pid").number != kPid) continue;
    if (ev.at("ph").string == "C") counter_tid = ev.at("tid").number;
    if (ev.at("ph").string != "M") continue;
    if (ev.at("name").string == "process_name") {
      process_label = ev.at("args").at("name").string;
    } else if (ev.at("name").string == "thread_name") {
      thread_labels.push_back(ev.at("args").at("name").string);
    }
  }
  EXPECT_EQ(process_label, "rank " + std::to_string(kPid));
  ASSERT_EQ(thread_labels.size(), 1U);
  ASSERT_GE(counter_tid, 0.0);
  EXPECT_EQ(thread_labels[0],
            "tid " + std::to_string(static_cast<int>(counter_tid)));
}

TEST_F(ObsTest, RuntimeDisableStopsAccumulationViaMacros) {
#if RSHC_OBS_ENABLED
  RSHC_OBS_COUNT("t.macro.counter", 1);
  obs::set_enabled(false);
  RSHC_OBS_COUNT("t.macro.counter", 1);  // gated off
  obs::set_enabled(true);
  RSHC_OBS_COUNT("t.macro.counter", 1);
  EXPECT_EQ(obs::Registry::global().counter("t.macro.counter").total(), 2);
#else
  RSHC_OBS_COUNT("t.macro.counter", 1);  // compiles to nothing
  EXPECT_EQ(obs::Registry::global().counter("t.macro.counter").total(), 0);
#endif
}

TEST_F(ObsTest, TracingRequiresMasterSwitch) {
  obs::set_tracing(true);
  EXPECT_TRUE(obs::tracing_active());
  obs::set_enabled(false);
  EXPECT_FALSE(obs::tracing_active());
  obs::set_enabled(true);
  obs::set_tracing(false);
  EXPECT_FALSE(obs::tracing_active());
}

TEST_F(ObsTest, TraceScopeRecordsNestedSpans) {
  obs::set_tracing(true);
  {
    obs::TraceScope outer("t.outer", "test", 1);
    {
      obs::TraceScope inner("t.inner", "test", 2);
    }
  }
  obs::set_tracing(false);
  const auto events = obs::Tracer::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by begin time: outer opens first, closes last.
  EXPECT_STREQ(events[0].name, "t.outer");
  EXPECT_STREQ(events[1].name, "t.inner");
  EXPECT_LE(events[0].t0_ns, events[1].t0_ns);
  EXPECT_GE(events[0].t1_ns, events[1].t1_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(events[0].id, 1);
}

TEST_F(ObsTest, ScopesArmedBeforeDisableStillComplete) {
  obs::set_tracing(true);
  {
    obs::TraceScope s("t.straddle", "test");
    obs::set_tracing(false);  // span was armed at construction
  }
  EXPECT_EQ(obs::Tracer::global().events().size(), 1u);
}

TEST_F(ObsTest, ChromeJsonIsWellFormedAndNested) {
  obs::set_tracing(true);
  {
    obs::TraceScope outer("t.json.outer", "test", 7);
    obs::TraceScope inner("t.json.inner", "test");
  }
  std::jthread([] {
    obs::TraceScope other("t.json.other_thread", "test");
  }).join();
  obs::set_tracing(false);

  std::ostringstream os;
  obs::Tracer::global().write_chrome_json(os);
  JsonParser parser(os.str());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();

  const auto& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);

  // The structural contract (metadata first, monotone ts, nesting, named
  // tracks) is checked wholesale by the shared validator.
  const auto problems = testsupport::validate_chrome_trace(root);
  EXPECT_TRUE(problems.empty()) << ::testing::PrintToString(problems);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  const JsonValue* other = nullptr;
  std::size_t spans = 0;
  std::size_t metas = 0;
  for (const auto& e : events.array) {
    if (e.at("ph").string == "M") {
      ++metas;
      continue;
    }
    ++spans;
    // Every span is a Chrome "complete" event with the required keys.
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("dur"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    EXPECT_EQ(e.at("cat").string, "test");
    EXPECT_GE(e.at("dur").number, 0.0);
    const std::string& name = e.at("name").string;
    if (name == "t.json.outer") outer = &e;
    if (name == "t.json.inner") inner = &e;
    if (name == "t.json.other_thread") other = &e;
  }
  EXPECT_EQ(spans, 3u);
  // One process_name (default pid 0) plus one thread_name per track.
  EXPECT_EQ(metas, 3u);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(other, nullptr);

  // Inner nests inside outer on the same track (ts in microseconds).
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  EXPECT_LE(outer->at("ts").number, inner->at("ts").number);
  EXPECT_GE(outer->at("ts").number + outer->at("dur").number,
            inner->at("ts").number + inner->at("dur").number);
  // The other thread gets its own track, and the id argument survives.
  EXPECT_NE(other->at("tid").number, outer->at("tid").number);
  EXPECT_DOUBLE_EQ(outer->at("args").at("id").number, 7.0);
}

TEST_F(ObsTest, RingOverwritesOldestAndCountsDrops) {
  obs::Tracer::global().set_ring_capacity(16);
  const std::uint64_t dropped_before = obs::Tracer::global().dropped();
  obs::set_tracing(true);
  for (int i = 0; i < 100; ++i) {
    obs::TraceScope s("t.ring", "test", i);
  }
  obs::set_tracing(false);
  const auto events = obs::Tracer::global().events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(obs::Tracer::global().dropped() - dropped_before, 84u);
  // The survivors are the newest 16 spans, still in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, static_cast<std::int64_t>(84 + i));
  }
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  {
    obs::TraceScope s("t.off", "test");  // tracing off in SetUp
  }
  EXPECT_TRUE(obs::Tracer::global().events().empty());
}

// --- percentiles -----------------------------------------------------------

TEST_F(ObsTest, PercentileFromBinsInterpolatesWithinBin) {
  std::vector<std::int64_t> bins(obs::TimeHist::kNumBins, 0);
  // Ten samples somewhere in bin 4 = [16, 32) ns.
  bins[4] = 10;
  const auto p = [&bins](double q, double min_s, double max_s) {
    return obs::TimeHist::percentile_from_bins(
        std::span<const std::int64_t>(bins), q, min_s, max_s);
  };
  // target = q*total ranks into the bin: lo + frac * (hi - lo).
  EXPECT_DOUBLE_EQ(p(0.5, 0.0, 1.0), 24e-9);   // frac 0.5 of [16, 32)
  EXPECT_DOUBLE_EQ(p(0.0, 0.0, 1.0), 16e-9);   // bin lower edge
  EXPECT_DOUBLE_EQ(p(1.0, 0.0, 30e-9), 30e-9);  // clamped to exact max

  // Split across two bins: 5 in [16,32), 5 in [32,64).
  bins[4] = 5;
  bins[5] = 5;
  EXPECT_DOUBLE_EQ(p(0.9, 0.0, 1.0), (32.0 + 0.8 * 32.0) * 1e-9);

  // Empty histogram reports 0 for every percentile.
  std::vector<std::int64_t> empty(obs::TimeHist::kNumBins, 0);
  EXPECT_DOUBLE_EQ(obs::TimeHist::percentile_from_bins(
                       std::span<const std::int64_t>(empty), 0.5, 0.0, 1.0),
                   0.0);
}

TEST_F(ObsTest, PercentilesCollapseOnPointMass) {
  // Every sample identical: the [min, max] clamp must make all three
  // percentiles exact, regardless of where the bin edges fall.
  auto& h = obs::Registry::global().timer("t.pct.point");
  for (int i = 0; i < 100; ++i) h.record_ns(1500);
  EXPECT_DOUBLE_EQ(h.percentile_seconds(0.50), 1500e-9);
  EXPECT_DOUBLE_EQ(h.percentile_seconds(0.90), 1500e-9);
  EXPECT_DOUBLE_EQ(h.percentile_seconds(0.99), 1500e-9);
}

TEST_F(ObsTest, PercentilesAreOrderedAndWithinLogBinTolerance) {
  auto& h = obs::Registry::global().timer("t.pct.uniform");
  for (int i = 1; i <= 1000; ++i) h.record_ns(i * 1000);  // 1..1000 us
  const double p50 = h.percentile_seconds(0.50);
  const double p90 = h.percentile_seconds(0.90);
  const double p99 = h.percentile_seconds(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, h.min_seconds());
  EXPECT_LE(p99, h.max_seconds());
  // Power-of-two bins bound the interpolation error by 2x either way.
  EXPECT_GE(p50, 0.5 * 500e-6);
  EXPECT_LE(p50, 2.0 * 500e-6);
  EXPECT_GE(p99, 0.5 * 990e-6);

  // The snapshot carries the same numbers.
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const auto* e = snap.find("t.pct.uniform");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->p50, p50);
  EXPECT_DOUBLE_EQ(e->p90, p90);
  EXPECT_DOUBLE_EQ(e->p99, p99);
}

// --- flow events and rank labels -------------------------------------------

TEST_F(ObsTest, FlowEventsPairAcrossThreads) {
  obs::set_tracing(true);
  std::uint64_t id = 0;
  {
    obs::TraceScope send("t.flow.send", "test");
    id = obs::flow_begin("t.flow", "test");
  }
  EXPECT_NE(id, 0u);
  std::jthread([id] {
    obs::set_thread_rank(1);
    obs::TraceScope recv("t.flow.recv", "test");
    obs::flow_end("t.flow", "test", id);
  }).join();
  obs::set_tracing(false);

  std::ostringstream os;
  obs::Tracer::global().write_chrome_json(os);
  JsonParser parser(os.str());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  const auto problems = testsupport::validate_chrome_trace(root);
  EXPECT_TRUE(problems.empty()) << ::testing::PrintToString(problems);

  const JsonValue* start = nullptr;
  const JsonValue* finish = nullptr;
  for (const auto& e : root.at("traceEvents").array) {
    if (e.at("ph").string == "s") start = &e;
    if (e.at("ph").string == "f") finish = &e;
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(finish, nullptr);
  EXPECT_DOUBLE_EQ(start->at("id").number, finish->at("id").number);
  EXPECT_EQ(finish->at("bp").string, "e");
  // The receiver ran under rank 1, so the arrow crosses process tracks.
  EXPECT_DOUBLE_EQ(start->at("pid").number, 0.0);
  EXPECT_DOUBLE_EQ(finish->at("pid").number, 1.0);
}

TEST_F(ObsTest, FlowBeginWhileDisabledReturnsZeroAndRecordsNothing) {
  const std::uint64_t id = obs::flow_begin("t.flow.off", "test");
  EXPECT_EQ(id, 0u);
  obs::flow_end("t.flow.off", "test", id);  // id 0 must be ignored
  EXPECT_TRUE(obs::Tracer::global().events().empty());
}

TEST_F(ObsTest, ThreadRankLabelsSpanPid) {
  obs::set_tracing(true);
  std::jthread([] {
    obs::set_thread_rank(3);
    obs::TraceScope s("t.rank", "test");
  }).join();
  obs::set_tracing(false);
  const auto events = obs::Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pid, 3);
}

// --- registry scoping ------------------------------------------------------

TEST_F(ObsTest, ScopedRegistryRoutesMacrosAndRestores) {
#if RSHC_OBS_ENABLED
  obs::Registry local;
  {
    obs::ScopedRegistry scope(local);
    EXPECT_EQ(obs::Registry::scoped(), &local);
    RSHC_OBS_COUNT("t.scoped.counter", 5);
    RSHC_OBS_GAUGE("t.scoped.gauge", 2.5);
    { RSHC_OBS_PHASE("t.scoped.phase", "test", -1); }
  }
  EXPECT_EQ(obs::Registry::scoped(), nullptr);
  RSHC_OBS_COUNT("t.scoped.counter", 2);  // back on the global path

  EXPECT_EQ(local.counter("t.scoped.counter").total(), 5);
  EXPECT_DOUBLE_EQ(local.gauge("t.scoped.gauge").value(), 2.5);
  EXPECT_EQ(local.timer("t.scoped.phase").count(), 1);
  EXPECT_EQ(obs::Registry::global().counter("t.scoped.counter").total(), 2);
  EXPECT_EQ(obs::Registry::global().timer("t.scoped.phase").count(), 0);
#else
  GTEST_SKIP() << "macros compiled out with RSHC_OBS=OFF";
#endif
}

TEST_F(ObsTest, ScopedRegistriesNest) {
  obs::Registry outer_reg;
  obs::Registry inner_reg;
  {
    obs::ScopedRegistry outer(outer_reg);
    {
      obs::ScopedRegistry inner(inner_reg);
      EXPECT_EQ(obs::Registry::scoped(), &inner_reg);
    }
    EXPECT_EQ(obs::Registry::scoped(), &outer_reg);
  }
  EXPECT_EQ(obs::Registry::scoped(), nullptr);
}

}  // namespace
