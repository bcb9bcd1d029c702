// Structured tracing and the flight recorder: deterministic span trees with
// seeded ids and an injected clock, ring wrap/overflow accounting, sampling,
// multi-threaded producers against a concurrent collector, the exporters
// (Chrome trace-event JSON, span JSONL, latency attribution), histogram
// exemplars, and the black-box dump paths (log/span/metric buffering,
// dump-on-refresh-rejection with a seeded fault plan, six-stage refresh
// span parentage).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "acquire/campaign.hpp"
#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "core/epoch.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "power/ground_truth.hpp"
#include "serve/refresh.hpp"
#include "sim/engine.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

#include "test_support.hpp"

namespace pwx {
namespace {

[[maybe_unused]] const auto* const kScratchCleanup =
    test::remove_scratch_at_exit("pwx_tracing_test");

// --------------------------------------------------------------- fixtures

/// Deterministic span clock: every call returns the next integer second.
struct TickClock {
  std::shared_ptr<double> t = std::make_shared<double>(0.0);
  std::function<double()> fn() {
    auto ticks = t;
    return [ticks] { return *ticks += 1.0; };
  }
};

/// RAII tracer session so a failing assertion cannot leak an active session
/// into the next test.
struct Session {
  explicit Session(obs::TracerConfig config) { obs::tracer().start(config); }
  ~Session() { obs::tracer().stop(); }
};

std::filesystem::path test_root() {
  static const std::filesystem::path root = test::scratch_path("pwx_tracing_test");
  std::filesystem::create_directories(root);
  return root;
}

/// Index drained records by span id for parentage assertions.
std::map<std::uint64_t, const obs::SpanRecord*> by_span(
    const std::vector<obs::SpanRecord>& records) {
  std::map<std::uint64_t, const obs::SpanRecord*> out;
  for (const obs::SpanRecord& r : records) {
    out.emplace(r.span_id, &r);
  }
  return out;
}

const obs::SpanRecord* find_span(const std::vector<obs::SpanRecord>& records,
                                 std::string_view name) {
  for (const obs::SpanRecord& r : records) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

std::string attr_value(const obs::SpanRecord& record, std::string_view key) {
  for (const obs::SpanAttr& attr : record.attrs) {
    if (attr.key == key) {
      return attr.value;
    }
  }
  return "";
}

// ------------------------------------------------------------ tracer core

TEST(Tracing, OffByDefaultAndFreeWhenOff) {
  ASSERT_FALSE(obs::tracing_active());
  EXPECT_EQ(obs::current_trace_id(), 0u);
  EXPECT_EQ(obs::current_span_id(), 0u);
  const auto untraced_scope = [] {
    PWX_SPAN("untraced.scope");
    obs::span_attr("ignored", std::uint64_t{1});
    EXPECT_EQ(obs::current_trace_id(), 0u);
    EXPECT_EQ(obs::current_span_id(), 0u);
  };
  untraced_scope();
  EXPECT_TRUE(obs::tracer().drain().empty());

  // Telemetry alone never turns tracing on.
  const bool telemetry_was_enabled = obs::enabled();
  obs::set_enabled(true);
  untraced_scope();
  obs::set_enabled(telemetry_was_enabled);
  EXPECT_FALSE(obs::tracing_active());
  EXPECT_TRUE(obs::tracer().drain().empty());
}

TEST(Tracing, SpanTreeHasIdsParentageAndInjectedTimestamps) {
  TickClock clock;
  obs::TracerConfig config;
  config.id_seed = 42;
  config.clock = clock.fn();
  Session session(config);

  {
    PWX_SPAN("root");
    {
      PWX_SPAN("child_a");
      { PWX_SPAN("grandchild"); }
    }
    { PWX_SPAN("child_b"); }
  }
  const std::vector<obs::SpanRecord> records = obs::tracer().drain();
  ASSERT_EQ(records.size(), 4u);  // completion (FIFO) order per thread

  const auto index = by_span(records);
  const obs::SpanRecord* root = find_span(records, "root");
  const obs::SpanRecord* child_a = find_span(records, "child_a");
  const obs::SpanRecord* child_b = find_span(records, "child_b");
  const obs::SpanRecord* grandchild = find_span(records, "grandchild");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child_a, nullptr);
  ASSERT_NE(child_b, nullptr);
  ASSERT_NE(grandchild, nullptr);

  // One trace, distinct span ids, correct parent linkage.
  EXPECT_NE(root->trace_id, 0u);
  EXPECT_EQ(root->parent_id, 0u);
  for (const obs::SpanRecord& r : records) {
    EXPECT_EQ(r.trace_id, root->trace_id);
  }
  EXPECT_EQ(index.size(), 4u);  // all span ids unique
  EXPECT_EQ(child_a->parent_id, root->span_id);
  EXPECT_EQ(child_b->parent_id, root->span_id);
  EXPECT_EQ(grandchild->parent_id, child_a->span_id);

  // The injected clock ticks once per span edge: root opens at 1, then
  // child_a at 2, grandchild at 3/4, child_a closes at 5, child_b 6/7,
  // root closes at 8.
  EXPECT_DOUBLE_EQ(root->start_s, 1.0);
  EXPECT_DOUBLE_EQ(child_a->start_s, 2.0);
  EXPECT_DOUBLE_EQ(grandchild->start_s, 3.0);
  EXPECT_DOUBLE_EQ(grandchild->end_s, 4.0);
  EXPECT_DOUBLE_EQ(child_a->end_s, 5.0);
  EXPECT_DOUBLE_EQ(child_b->start_s, 6.0);
  EXPECT_DOUBLE_EQ(child_b->end_s, 7.0);
  EXPECT_DOUBLE_EQ(root->end_s, 8.0);

  const obs::TracerStats stats = obs::tracer().stats();
  EXPECT_EQ(stats.traces_started, 1u);
  EXPECT_EQ(stats.traces_sampled, 1u);
  EXPECT_EQ(stats.spans_recorded, 4u);
  EXPECT_EQ(stats.spans_dropped, 0u);
}

TEST(Tracing, SameSeedSameClockIsByteIdenticalAcrossSessions) {
  const auto run_once = [] {
    TickClock clock;
    obs::TracerConfig config;
    config.id_seed = 7;
    config.clock = clock.fn();
    Session session(config);
    {
      PWX_SPAN("golden.root");
      obs::span_attr("k", std::uint64_t{9});
      { PWX_SPAN("golden.child"); }
    }
    return obs::tracer().drain();
  };
  const std::vector<obs::SpanRecord> a = run_once();
  const std::vector<obs::SpanRecord> b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trace_id, b[i].trace_id);
    EXPECT_EQ(a[i].span_id, b[i].span_id);
    EXPECT_EQ(a[i].parent_id, b[i].parent_id);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].start_s, b[i].start_s);
    EXPECT_DOUBLE_EQ(a[i].end_s, b[i].end_s);
    // Id streams from a different seed must diverge.
  }
  TickClock clock;
  obs::TracerConfig other;
  other.id_seed = 8;
  other.clock = clock.fn();
  Session session(other);
  { PWX_SPAN("golden.root"); }
  const std::vector<obs::SpanRecord> c = obs::tracer().drain();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NE(c[0].trace_id, a[0].trace_id);
}

TEST(Tracing, SamplingOneInNKeepsWholeSubtreesOnly) {
  obs::TracerConfig config;
  config.sample_every = 4;
  Session session(config);

  for (int i = 0; i < 8; ++i) {
    PWX_SPAN("sampled.root");
    { PWX_SPAN("sampled.child"); }
  }
  const std::vector<obs::SpanRecord> records = obs::tracer().drain();
  const obs::TracerStats stats = obs::tracer().stats();
  EXPECT_EQ(stats.traces_started, 8u);
  EXPECT_EQ(stats.traces_sampled, 2u);
  // A sampled trace is complete: root + child, nothing partial.
  ASSERT_EQ(records.size(), 4u);
  std::map<std::uint64_t, int> per_trace;
  for (const obs::SpanRecord& r : records) {
    per_trace[r.trace_id] += 1;
  }
  ASSERT_EQ(per_trace.size(), 2u);
  for (const auto& [trace, count] : per_trace) {
    EXPECT_EQ(count, 2);
  }
}

TEST(Tracing, FullRingDropsNewestAndCountsEveryLoss) {
  obs::TracerConfig config;
  config.ring_capacity = 8;
  Session session(config);

  for (int i = 0; i < 20; ++i) {
    PWX_SPAN(("wrap." + std::to_string(i)).c_str());
  }
  const std::vector<obs::SpanRecord> records = obs::tracer().drain();
  const obs::TracerStats stats = obs::tracer().stats();
  // Bounded ring, drop-newest: the first 8 completions survive, the 12
  // later ones are counted as dropped — overflow is never silent.
  ASSERT_EQ(records.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(records[i].name, "wrap." + std::to_string(i));
  }
  EXPECT_EQ(stats.spans_recorded, 8u);
  EXPECT_EQ(stats.spans_dropped, 12u);

  // Draining frees the ring for new spans.
  { PWX_SPAN("wrap.after"); }
  const std::vector<obs::SpanRecord> more = obs::tracer().drain();
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].name, "wrap.after");
}

TEST(Tracing, AttributesAttachToInnermostSpan) {
  Session session(obs::TracerConfig{});
  {
    PWX_SPAN("attr.root");
    obs::span_attr("where", "root");
    {
      PWX_SPAN("attr.child");
      obs::span_attr("text", "value");
      obs::span_attr("ratio", 0.25);
      obs::span_attr("count", std::uint64_t{12});
    }
  }
  const std::vector<obs::SpanRecord> records = obs::tracer().drain();
  const obs::SpanRecord* root = find_span(records, "attr.root");
  const obs::SpanRecord* child = find_span(records, "attr.child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(attr_value(*root, "where"), "root");
  EXPECT_EQ(attr_value(*child, "text"), "value");
  EXPECT_EQ(attr_value(*child, "count"), "12");
  EXPECT_NE(attr_value(*child, "ratio"), "");
  EXPECT_EQ(attr_value(*child, "where"), "");  // not inherited
}

TEST(Tracing, CurrentIdsTrackTheOpenSampledSpan) {
  Session session(obs::TracerConfig{});
  EXPECT_EQ(obs::current_trace_id(), 0u);
  {
    PWX_SPAN("ids.root");
    const std::uint64_t trace = obs::current_trace_id();
    const std::uint64_t outer = obs::current_span_id();
    EXPECT_NE(trace, 0u);
    EXPECT_NE(outer, 0u);
    {
      PWX_SPAN("ids.child");
      EXPECT_EQ(obs::current_trace_id(), trace);
      EXPECT_NE(obs::current_span_id(), outer);
    }
    EXPECT_EQ(obs::current_span_id(), outer);
  }
  EXPECT_EQ(obs::current_trace_id(), 0u);
  obs::tracer().drain();
}

TEST(Tracing, ConcurrentProducersAndCollectorLoseNothingUnaccounted) {
  constexpr int kThreads = 4;
  constexpr int kRoots = 400;
  obs::TracerConfig config;
  config.ring_capacity = 512;  // small enough that drops are plausible
  Session session(config);

  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&go, &done] {
      while (!go.load()) {
      }
      for (int i = 0; i < kRoots; ++i) {
        PWX_SPAN("mt.root");
        { PWX_SPAN("mt.child"); }
      }
      done.fetch_add(1);
    });
  }

  // Collector races the producers, then drains the remainder after join.
  std::vector<obs::SpanRecord> drained;
  go.store(true);
  while (done.load() < kThreads) {
    for (obs::SpanRecord& r : obs::tracer().drain()) {
      drained.push_back(std::move(r));
    }
  }
  for (std::thread& t : producers) {
    t.join();
  }
  for (obs::SpanRecord& r : obs::tracer().drain()) {
    drained.push_back(std::move(r));
  }

  const obs::TracerStats stats = obs::tracer().stats();
  const std::uint64_t produced =
      static_cast<std::uint64_t>(kThreads) * kRoots * 2;
  EXPECT_EQ(stats.traces_started, static_cast<std::uint64_t>(kThreads) * kRoots);
  // Every produced span is either drained or counted as dropped.
  EXPECT_EQ(drained.size(), stats.spans_recorded);
  EXPECT_EQ(stats.spans_recorded + stats.spans_dropped, produced);
  // Parent linkage survives concurrency: every child's parent is a root
  // span of the same trace.
  std::map<std::uint64_t, std::uint64_t> root_of_trace;
  for (const obs::SpanRecord& r : drained) {
    if (r.name == "mt.root") {
      root_of_trace[r.trace_id] = r.span_id;
    }
  }
  for (const obs::SpanRecord& r : drained) {
    if (r.name == "mt.child") {
      const auto it = root_of_trace.find(r.trace_id);
      if (it != root_of_trace.end()) {
        EXPECT_EQ(r.parent_id, it->second);
      }
    }
  }
}

// -------------------------------------------------------------- exporters

std::vector<obs::SpanRecord> handmade_forest() {
  obs::SpanRecord root;
  root.trace_id = 0xABCD;
  root.span_id = 0x1;
  root.parent_id = 0;
  root.name = "stage.parent";
  root.start_s = 10.0;
  root.end_s = 20.0;
  root.thread = 0;
  root.attrs.push_back({"rows", "128"});
  obs::SpanRecord child_a;
  child_a.trace_id = 0xABCD;
  child_a.span_id = 0x2;
  child_a.parent_id = 0x1;
  child_a.name = "stage.fit";
  child_a.start_s = 11.0;
  child_a.end_s = 14.0;
  child_a.thread = 0;
  obs::SpanRecord child_b;
  child_b.trace_id = 0xABCD;
  child_b.span_id = 0x3;
  child_b.parent_id = 0x1;
  child_b.name = "stage.validate";
  child_b.start_s = 14.0;
  child_b.end_s = 16.0;
  child_b.thread = 1;
  return {root, child_a, child_b};
}

TEST(TraceExport, ChromeTraceEventDocument) {
  const Json doc = obs::chrome_trace_json(handmade_forest());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const Json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);
  const Json& root = events[0];
  EXPECT_EQ(root.at("ph").as_string(), "X");
  EXPECT_EQ(root.at("cat").as_string(), "pwx");
  EXPECT_EQ(root.at("name").as_string(), "stage.parent");
  EXPECT_DOUBLE_EQ(root.at("ts").as_number(), 10.0 * 1e6);
  EXPECT_DOUBLE_EQ(root.at("dur").as_number(), 10.0 * 1e6);
  EXPECT_DOUBLE_EQ(root.at("pid").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(root.at("tid").as_number(), 0.0);
  const Json& args = root.at("args");
  EXPECT_EQ(args.at("trace_id").as_string(), obs::format_span_id(0xABCD));
  EXPECT_EQ(args.at("span_id").as_string(), obs::format_span_id(0x1));
  EXPECT_EQ(args.find("parent_id"), nullptr);  // roots carry no parent
  EXPECT_EQ(args.at("rows").as_string(), "128");
  EXPECT_EQ(events[1].at("args").at("parent_id").as_string(),
            obs::format_span_id(0x1));
  EXPECT_DOUBLE_EQ(events[2].at("tid").as_number(), 1.0);
}

TEST(TraceExport, SpanJsonlRoundTripsAndSkipsForeignEvents) {
  const std::vector<obs::SpanRecord> forest = handmade_forest();
  std::ostringstream stream;
  stream << "{\"event\":\"metrics\",\"seq\":0}\n";  // interleaved, skipped
  for (const obs::SpanRecord& r : forest) {
    stream << obs::span_to_jsonl_line(r) << "\n";
  }
  stream << "\n";  // blank lines are tolerated
  const std::vector<obs::SpanRecord> parsed =
      obs::parse_span_jsonl(stream.str());
  ASSERT_EQ(parsed.size(), forest.size());
  for (std::size_t i = 0; i < forest.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, forest[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, forest[i].span_id);
    EXPECT_EQ(parsed[i].parent_id, forest[i].parent_id);
    EXPECT_EQ(parsed[i].name, forest[i].name);
    EXPECT_DOUBLE_EQ(parsed[i].start_s, forest[i].start_s);
    EXPECT_DOUBLE_EQ(parsed[i].duration_s(), forest[i].duration_s());
    EXPECT_EQ(parsed[i].thread, forest[i].thread);
    ASSERT_EQ(parsed[i].attrs.size(), forest[i].attrs.size());
    for (std::size_t k = 0; k < forest[i].attrs.size(); ++k) {
      EXPECT_EQ(parsed[i].attrs[k].key, forest[i].attrs[k].key);
      EXPECT_EQ(parsed[i].attrs[k].value, forest[i].attrs[k].value);
    }
  }
}

TEST(TraceExport, ParseRejectsMalformedLineWithItsNumber) {
  const std::string good =
      "{\"event\":\"span\",\"trace\":\"1\",\"span\":\"2\",\"name\":\"x\","
      "\"start_s\":0,\"dur_s\":1,\"thread\":0}\n";
  const auto span_line = [](const std::string& fields) {
    return "{\"event\":\"span\",\"trace\":\"1\",\"span\":\"3\"," + fields + "}\n";
  };
  for (const std::string& bad_line : {
           std::string("not json\n"),
           std::string(100000, '[') + "\n",
           span_line("\"name\":\"x\",\"start_s\":0,\"dur_s\":1,\"thread\":1e300"),
           span_line("\"name\":5,\"start_s\":0,\"dur_s\":1"),
           span_line("\"start_s\":0,\"dur_s\":1"),
           span_line("\"name\":\"x\",\"start_s\":\"0\",\"dur_s\":1"),
           span_line("\"name\":\"x\",\"start_s\":1e999,\"dur_s\":1"),
           span_line("\"name\":\"x\",\"start_s\":0,\"dur_s\":-3"),
           span_line("\"name\":\"x\",\"start_s\":1e308,\"dur_s\":1e308"),
           span_line("\"name\":\"x\",\"start_s\":0,\"dur_s\":1,\"parent\":\"-1\""),
           span_line("\"name\":\"x\",\"start_s\":0,\"dur_s\":1,\"attrs\":{\"k\":1}"),
       }) {
    try {
      obs::parse_span_jsonl(good + bad_line);
      FAIL() << "expected IoError for " << bad_line;
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceExport, AttributionSubtractsDirectChildrenFromSelfTime) {
  const std::vector<obs::SpanAttribution> rows =
      obs::attribute_latency(handmade_forest());
  ASSERT_EQ(rows.size(), 3u);
  // parent: 10s total, 5s in children -> 5s self; children are all self.
  // Sorted by self descending: parent(5) first, fit(3), validate(2).
  EXPECT_EQ(rows[0].name, "stage.parent");
  EXPECT_DOUBLE_EQ(rows[0].total_s, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].self_s, 5.0);
  EXPECT_DOUBLE_EQ(rows[0].max_s, 10.0);
  EXPECT_EQ(rows[0].calls, 1u);
  EXPECT_EQ(rows[1].name, "stage.fit");
  EXPECT_DOUBLE_EQ(rows[1].self_s, 3.0);
  EXPECT_EQ(rows[2].name, "stage.validate");
  EXPECT_DOUBLE_EQ(rows[2].self_s, 2.0);

  std::ostringstream table;
  obs::print_attribution_table(rows, table);
  EXPECT_NE(table.str().find("stage.parent"), std::string::npos);
  EXPECT_NE(table.str().find("self"), std::string::npos);
}

TEST(TraceExport, AttributionRejectsOverflowingSums) {
  // Every duration is finite, so the parser accepts each line; only their
  // sums overflow. The error must name the span whose sum did.
  const auto line = [](const std::string& span, const std::string& parent,
                       const std::string& name, const std::string& dur) {
    const std::string parent_field =
        parent.empty() ? "" : "\"parent\":\"" + parent + "\",";
    return "{\"event\":\"span\",\"trace\":\"1\",\"span\":\"" + span + "\"," +
           parent_field + "\"name\":\"" + name + "\",\"start_s\":0,\"dur_s\":" + dur +
           "}\n";
  };
  const auto error_of = [](const std::string& jsonl) -> std::string {
    const std::vector<obs::SpanRecord> records = obs::parse_span_jsonl(jsonl);
    try {
      obs::attribute_latency(records);
    } catch (const Error& e) {
      return e.what();
    }
    ADD_FAILURE() << "attribution accepted " << jsonl;
    return {};
  };

  // Two 1e308 s roots of one name: the per-name total overflows.
  const std::string roots = line("1", "", "x", "1e308") + line("2", "", "x", "1e308");
  EXPECT_NE(error_of(roots).find("span 'x'"), std::string::npos) << error_of(roots);
  // The same two spans under a parent listed first fail at the parent,
  // whose children's durations overflow before the second child is read.
  const std::string nested = line("1", "", "p", "1e308") + line("2", "1", "x", "1e308") +
                             line("3", "1", "x", "1e308");
  EXPECT_NE(error_of(nested).find("span 'p'"), std::string::npos) << error_of(nested);
  // Finite per-name totals whose self times overflow together: the error
  // names the span at which the table's self-time sum overflows.
  const std::string split = line("1", "", "a", "1.5e308") + line("2", "", "b", "0.5e308");
  EXPECT_NE(error_of(split).find("span 'b'"), std::string::npos) << error_of(split);
}

// -------------------------------------------------------------- exemplars

TEST(Tracing, HistogramExemplarLinksBucketToTrace) {
  obs::set_enabled(true);
  obs::Histogram& hist = obs::registry().histogram(
      "test.tracing.exemplar_seconds", {0.1, 1.0, 10.0},
      "tracing exemplar test histogram");
  hist.reset();

  hist.observe(0.5);  // tracing off: no exemplar
  {
    Session session(obs::TracerConfig{});
    PWX_SPAN("exemplar.root");
    hist.observe(5.0);
    obs::tracer().drain();
  }

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::MetricValue* found = snap.find("test.tracing.exemplar_seconds");
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->histogram.exemplars.size(), 1u);
  EXPECT_NE(found->histogram.exemplars[0].trace_id, 0u);
  EXPECT_DOUBLE_EQ(found->histogram.exemplars[0].value, 5.0);
  EXPECT_EQ(found->histogram.exemplars[0].bucket, 2u);  // 5.0 <= bound 10.0
  hist.reset();
  obs::set_enabled(false);
}

// -------------------------------------------------------- flight recorder

TEST(Flight, BuffersSpansLogsAndMetricDeltasAndDumpsOnTrigger) {
  const std::string dump =
      (test_root() / "flight_basic.jsonl").string();
  obs::FlightConfig config;
  config.capacity = 64;
  config.dump_path = dump;
  obs::flight().arm(config);

  // Arming alone (no Tracer session) must record spans via the tap.
  { PWX_SPAN("flight.only_span"); }
  PWX_LOG_WARN("flight test warning");

  obs::MetricsSnapshot before;
  obs::MetricValue counter;
  counter.name = "flight.test_counter";
  counter.kind = obs::MetricKind::Counter;
  counter.counter = 3;
  before.values.push_back(counter);
  obs::flight().note_metrics(before);
  counter.counter = 10;
  obs::MetricsSnapshot after;
  after.values.push_back(counter);
  obs::flight().note_metrics(after);  // delta line: +7

  const std::string written = obs::flight().trigger("unit_test");
  EXPECT_EQ(written, dump);
  EXPECT_EQ(obs::flight().dumps(), 1u);
  obs::flight().disarm();
  ASSERT_FALSE(obs::flight().armed());
  { PWX_SPAN("flight.after_disarm"); }  // must not crash or record

  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"event\":\"flight_dump\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("flight.only_span"), std::string::npos);
  EXPECT_NE(text.find("flight test warning"), std::string::npos);
  EXPECT_NE(text.find("flight.test_counter"), std::string::npos);
  // The dump tail carries a full metrics snapshot.
  EXPECT_NE(text.find("\"event\":\"metrics\""), std::string::npos);
}

TEST(Flight, RingRotatesOldestOutAndCountsDrops) {
  obs::FlightConfig config;
  config.capacity = 4;
  config.dump_path = (test_root() / "flight_rotate.jsonl").string();
  obs::flight().arm(config);
  for (int i = 0; i < 10; ++i) {
    PWX_SPAN(("rotate." + std::to_string(i)).c_str());
  }
  const std::vector<std::string> recent = obs::flight().recent();
  ASSERT_EQ(recent.size(), 4u);
  // FIFO of the *most recent* events: 6..9 (drop-oldest, unlike the tracer
  // ring — the black box must always hold the latest history).
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(recent[i].find("rotate." + std::to_string(6 + i)),
              std::string::npos)
        << recent[i];
  }
  const std::string written = obs::flight().trigger("rotate");
  obs::flight().disarm();
  std::ifstream in(written);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"dropped\":6"), std::string::npos);
}

TEST(Flight, RepeatDumpsGetSuffixesAndStopAtTheCap) {
  obs::FlightConfig config;
  config.dump_path = (test_root() / "flight_cap.jsonl").string();
  config.max_dumps = 2;
  obs::flight().arm(config);
  EXPECT_EQ(obs::flight().trigger("first"), config.dump_path);
  EXPECT_EQ(obs::flight().trigger("second"), config.dump_path + ".1");
  EXPECT_EQ(obs::flight().trigger("third"), "");  // cap reached
  EXPECT_EQ(obs::flight().dumps(), 2u);
  obs::flight().disarm();
  EXPECT_EQ(obs::flight().trigger("disarmed"), "");
}

// --------------------------------------------- refresh pipeline integration
//
// A miniature regime-shift fixture (same shape as serve_test): incumbent
// trained on the baseline engine, refresh corpus recorded from a drifted
// one, so refresh_model publishes — and a seeded fault plan makes it reject.

const std::vector<pmc::Preset> kGroup{pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS,
                                      pmc::Preset::PRF_DM, pmc::Preset::BR_MSP};

sim::Engine drifted_engine() {
  power::EnergyTable energies =
      power::GroundTruthPower::haswell_ep().energies();
  energies.per_cycle_nj *= 1.6;
  energies.per_uop_nj *= 1.6;
  energies.per_dram_access_nj *= 1.4;
  power::StaticParameters statics =
      power::GroundTruthPower::haswell_ep().statics();
  statics.uncore_static_watts += 12.0;
  return sim::Engine(cpu::haswell_ep_2690v3(), cpu::haswell_ep_dvfs(),
                     power::GroundTruthPower(energies, statics,
                                             cpu::ThermalModel{}),
                     power::SensorSpec{}, 0x5eed);
}

std::vector<std::string> write_corpus(const sim::Engine& engine,
                                      const std::filesystem::path& dir,
                                      std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  std::uint64_t run_seed = seed;
  for (const char* name : {"compute", "md", "memory_read"}) {
    const auto workload = workloads::find_workload(name);
    for (const double frequency_ghz : {1.5, 2.0, 2.4}) {
      for (const std::size_t threads : {8u, 24u}) {
        sim::RunConfig rc;
        rc.frequency_ghz = frequency_ghz;
        rc.threads = threads;
        rc.interval_s = 0.25;
        rc.duration_scale = 0.1;
        rc.seed = ++run_seed;
        const trace::Trace t =
            trace::build_standard_trace(engine.run(*workload, rc), kGroup);
        paths.push_back(
            (dir / ("run" + std::to_string(paths.size()) + ".otf2l")).string());
        trace::write_trace_file(t, paths.back());
      }
    }
  }
  return paths;
}

const std::vector<std::string>& baseline_corpus() {
  static const std::vector<std::string> paths = write_corpus(
      sim::Engine::haswell_ep(), test_root() / "baseline", 100);
  return paths;
}

const std::vector<std::string>& drifted_corpus() {
  static const std::vector<std::string> paths =
      write_corpus(drifted_engine(), test_root() / "drifted", 200);
  return paths;
}

core::PowerModel train_on_corpus(const std::vector<std::string>& paths) {
  const acquire::Dataset dataset = acquire::ingest_trace_files(paths);
  core::SelectionOptions selection;
  selection.count = 3;
  const core::SelectionResult selected =
      core::select_events(dataset, dataset.common_presets(), selection);
  core::FeatureSpec spec;
  spec.events = selected.selected();
  return core::train_model(dataset, spec);
}

serve::RefreshConfig drifted_refresh_config() {
  serve::RefreshConfig config;
  config.trace_paths = drifted_corpus();
  config.event_count = 3;
  config.max_holdout_mape_pct = 15.0;
  config.max_mape_regression_pct = 1.0;
  return config;
}

std::uint64_t stage_histogram_count(const obs::MetricsSnapshot& snap,
                                    const std::string& stage) {
  const obs::MetricValue* value =
      snap.find("serve.refresh.stage_seconds." + stage);
  return value == nullptr ? 0 : value->histogram.count;
}

TEST(RefreshTracing, PublishedRefreshShowsAllSixStagesUnderOneRoot) {
  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::registry().snapshot();

  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));
  obs::TracerConfig config;
  config.ring_capacity = 4096;
  Session session(config);
  const serve::RefreshReport report =
      serve::refresh_model(epoch, drifted_refresh_config());
  const std::vector<obs::SpanRecord> records = obs::tracer().drain();

  ASSERT_EQ(report.status, serve::RefreshStatus::Published) << report.detail;
  EXPECT_EQ(report.stage, serve::RefreshStage::Publish);

  const obs::SpanRecord* root = find_span(records, "serve.refresh_model");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(attr_value(*root, "status"), "published");
  EXPECT_EQ(attr_value(*root, "stage"), "publish");

  // All six stages, every one a direct child of the refresh root.
  for (const char* stage : {"refresh.ingest", "refresh.select", "refresh.fit",
                            "refresh.plausibility", "refresh.validation",
                            "refresh.publish"}) {
    const obs::SpanRecord* span = find_span(records, stage);
    ASSERT_NE(span, nullptr) << stage;
    EXPECT_EQ(span->trace_id, root->trace_id) << stage;
    EXPECT_EQ(span->parent_id, root->span_id) << stage;
  }
  EXPECT_NE(attr_value(*find_span(records, "refresh.ingest"), "rows"), "");
  // The publish stage wraps the epoch swap, so the epoch.publish span nests
  // beneath it.
  const obs::SpanRecord* publish = find_span(records, "refresh.publish");
  const obs::SpanRecord* epoch_publish = find_span(records, "epoch.publish");
  ASSERT_NE(epoch_publish, nullptr);
  EXPECT_EQ(epoch_publish->parent_id, publish->span_id);

  // Satellite: every stage timed one observation into its histogram.
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  for (const char* stage : {"ingest", "select", "fit", "plausibility",
                            "validation", "publish"}) {
    EXPECT_EQ(stage_histogram_count(after, stage),
              stage_histogram_count(before, stage) + 1)
        << stage;
  }
}

TEST(RefreshTracing, RejectionReportsBreachedStageAndDumpsFlight) {
  obs::set_enabled(true);
  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));
  const fault::FaultInjector injector(fault::FaultPlan::single(
      fault::FaultKind::TruncatedCandidate, 1.0, 0xFA17));
  serve::RefreshConfig config = drifted_refresh_config();
  config.injector = &injector;

  obs::FlightConfig flight_config;
  flight_config.capacity = 256;
  flight_config.dump_path = (test_root() / "flight_refresh.jsonl").string();
  obs::flight().arm(flight_config);

  const serve::RefreshReport report = serve::refresh_model(epoch, config);
  const std::uint64_t dumps = obs::flight().dumps();
  obs::flight().disarm();

  ASSERT_EQ(report.status, serve::RefreshStatus::RejectedImplausible)
      << report.detail;
  // The report names the breached stage...
  EXPECT_EQ(report.stage, serve::RefreshStage::Plausibility);
  ASSERT_EQ(dumps, 1u);

  // ...and the flight dump holds the faulting spans: the plausibility stage
  // and its enclosing refresh root, both closed before the trigger fired.
  std::ifstream in(flight_config.dump_path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"reason\":\"refresh_rejected_implausible\""),
            std::string::npos);
  EXPECT_NE(text.find("refresh.plausibility"), std::string::npos);
  EXPECT_NE(text.find("serve.refresh_model"), std::string::npos);
  EXPECT_EQ(text.find("refresh.validation"), std::string::npos);  // never ran
  EXPECT_EQ(epoch.generation(), 1u);  // rejection rolled back
}

TEST(RefreshTracing, FailedRefreshNamesTheStageThatThrew) {
  obs::set_enabled(true);
  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));

  // An empty corpus fails before the first stage even starts.
  serve::RefreshConfig empty;
  const serve::RefreshReport no_stage = serve::refresh_model(epoch, empty);
  EXPECT_EQ(no_stage.status, serve::RefreshStatus::Failed);
  EXPECT_EQ(no_stage.stage, serve::RefreshStage::None);

  // A corpus that throws mid-ingest names the ingest stage as the breach.
  serve::RefreshConfig config;
  config.trace_paths = {(test_root() / "missing.otf2l").string()};
  const serve::RefreshReport report = serve::refresh_model(epoch, config);
  EXPECT_EQ(report.status, serve::RefreshStatus::Failed);
  EXPECT_EQ(report.stage, serve::RefreshStage::Ingest);
}

}  // namespace
}  // namespace pwx
