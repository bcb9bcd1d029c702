// Tests for the obs telemetry subsystem: metric registry semantics and
// concurrency, histogram bucket/quantile math, exporter goldens, the
// telemetry sink cadence, and the end-to-end contract that a seeded fault
// campaign surfaces its damage in the exported metrics and its spans.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "acquire/campaign.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"
#include "core/robust_source.hpp"
#include "fault/fault.hpp"
#include "host/faulty_source.hpp"
#include "host/sim_source.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "workloads/registry.hpp"

namespace pwx {
namespace {

// Telemetry is process-global; every test runs enabled and leaves the
// registry zeroed and disabled so suites stay order-independent.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::registry().reset_values();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::registry().reset_values();
  }
};

// ---------------------------------------------------------------- registry

TEST_F(ObsTest, DisabledOperationsAreNoOps) {
  obs::set_enabled(false);
  obs::MetricRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  obs::Histogram& h = reg.histogram("h", {1.0});
  c.add(5);
  g.set(3.0);
  h.observe(0.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(ObsTest, HandlesAreStableAndGetOrCreate) {
  obs::MetricRegistry reg;
  obs::Counter& a = reg.counter("x", "first help wins");
  obs::Counter& b = reg.counter("x", "ignored");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("x"), nullptr);
  EXPECT_EQ(snap.find("x")->counter, 5u);
  EXPECT_EQ(snap.find("x")->help, "first help wins");
}

TEST_F(ObsTest, SnapshotFilteredKeepsPrefixAndOrder) {
  obs::MetricRegistry reg;
  reg.counter("serve.refresh_attempts").add_unguarded(2);
  reg.counter("serve.drift_windows").add_unguarded(7);
  reg.gauge("serve.generation").set_unguarded(3.0);
  reg.counter("campaign.runs").add_unguarded(1);
  reg.counter("serving").add_unguarded(9);  // prefix must match "serve."

  const obs::MetricsSnapshot filtered = reg.snapshot().filtered("serve.");
  ASSERT_EQ(filtered.values.size(), 3u);
  // Name-sorted order is preserved from the full snapshot.
  EXPECT_EQ(filtered.values[0].name, "serve.drift_windows");
  EXPECT_EQ(filtered.values[1].name, "serve.generation");
  EXPECT_EQ(filtered.values[2].name, "serve.refresh_attempts");
  EXPECT_EQ(filtered.find("campaign.runs"), nullptr);
  EXPECT_EQ(filtered.find("serving"), nullptr);
  EXPECT_EQ(filtered.find("serve.drift_windows")->counter, 7u);
  EXPECT_DOUBLE_EQ(filtered.find("serve.generation")->gauge, 3.0);

  // The empty prefix is the identity; an unmatched prefix is empty.
  EXPECT_EQ(reg.snapshot().filtered("").values.size(), reg.snapshot().values.size());
  EXPECT_TRUE(reg.snapshot().filtered("nope.").values.empty());
}

TEST_F(ObsTest, KindConflictThrows) {
  obs::MetricRegistry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), InvalidArgument);
  EXPECT_THROW(reg.histogram("metric"), InvalidArgument);
  EXPECT_THROW(reg.counter(""), InvalidArgument);
}

TEST_F(ObsTest, SnapshotIsNameSortedRegardlessOfRegistrationOrder) {
  obs::MetricRegistry reg;
  reg.counter("zebra").add(1);
  reg.gauge("alpha").set(2.0);
  reg.counter("mango").add(3);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.values.size(), 3u);
  EXPECT_EQ(snap.values[0].name, "alpha");
  EXPECT_EQ(snap.values[1].name, "mango");
  EXPECT_EQ(snap.values[2].name, "zebra");
}

TEST_F(ObsTest, ResetValuesKeepsRegistrations) {
  obs::MetricRegistry reg;
  obs::Counter& c = reg.counter("c");
  c.add(7);
  reg.reset_values();
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);  // same handle still live
}

TEST_F(ObsTest, ConcurrentUpdatesLoseNothing) {
  obs::MetricRegistry reg;
  obs::Counter& c = reg.counter("hits");
  obs::Histogram& h = reg.histogram("latency", {0.5});
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        h.observe(t % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.counts[0], static_cast<std::uint64_t>(kThreads / 2) * kIters);
  EXPECT_EQ(snap.counts[1], static_cast<std::uint64_t>(kThreads / 2) * kIters);
  EXPECT_NEAR(snap.sum, kThreads / 2 * kIters * (0.25 + 0.75), 1e-6);
}

TEST_F(ObsTest, ConcurrentRegistrationReturnsOneHandlePerName) {
  obs::MetricRegistry reg;
  constexpr int kThreads = 8;
  std::vector<obs::Counter*> handles(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] { handles[t] = &reg.counter("shared"); });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[t], handles[0]);
  }
  EXPECT_EQ(reg.size(), 1u);
}

TEST_F(ObsTest, RejectedHistogramRegistrationLeavesNoEntry) {
  // The instrument is built before its entry is inserted, so a registration
  // that throws leaves nothing a snapshot could dereference.
  obs::MetricRegistry reg;
  EXPECT_THROW(reg.histogram("bad", {2.0, 1.0}), InvalidArgument);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().values.empty());
  EXPECT_EQ(reg.histogram("bad", {1.0, 2.0}).snapshot().counts.size(), 3u);
}

// --------------------------------------------------------------- histogram

TEST_F(ObsTest, HistogramBucketBoundsAreInclusive) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(1.0);   // le=1 (inclusive upper bound)
  h.observe(1.5);   // le=2
  h.observe(2.0);   // le=2
  h.observe(10.0);  // +Inf
  h.observe(std::numeric_limits<double>::quiet_NaN());  // dropped
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 14.5);
}

TEST_F(ObsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), InvalidArgument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(obs::Histogram({std::numeric_limits<double>::infinity()}),
               InvalidArgument);
}

TEST_F(ObsTest, QuantileInterpolatesWithinBuckets) {
  obs::Histogram h({0.5, 1.0, 10.0});
  h.observe(0.25);
  h.observe(0.5);
  h.observe(0.75);
  h.observe(16.0);
  const obs::HistogramSnapshot snap = h.snapshot();
  // rank = q*4; linear from the bucket's lower bound (0 for the first).
  EXPECT_DOUBLE_EQ(snap.quantile(0.25), 0.25);
  EXPECT_DOUBLE_EQ(snap.quantile(0.50), 0.5);
  EXPECT_DOUBLE_EQ(snap.quantile(0.75), 1.0);
  // The +Inf bucket collapses to the largest finite bound.
  EXPECT_DOUBLE_EQ(snap.quantile(0.95), 10.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 10.0);
}

TEST_F(ObsTest, QuantileOfEmptyHistogramIsZero) {
  const obs::Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
}

TEST_F(ObsTest, DefaultTimeBoundsAreAscending) {
  const std::vector<double> bounds = obs::Histogram::default_time_bounds();
  ASSERT_GE(bounds.size(), 12u);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_GE(bounds.back(), 100.0);
}

// ------------------------------------------------------------------ timers

TEST_F(ObsTest, ScopedTimerObservesOncePerScope) {
  obs::Histogram h({1e9});  // everything lands in the first bucket
  {
    const obs::ScopedTimer timer(h);
  }
  EXPECT_EQ(h.snapshot().count, 1u);
  obs::set_enabled(false);
  {
    const obs::ScopedTimer timer(h);
  }
  EXPECT_EQ(h.snapshot().count, 1u);
}

// --------------------------------------------------------------- exporters

obs::MetricRegistry& golden_registry(obs::MetricRegistry& reg) {
  reg.counter("campaign.runs", "runs attempted").add(42);
  reg.gauge("estimator.health", "health state").set(1.0);
  obs::Histogram& h = reg.histogram("run_seconds", {0.5, 1.0, 10.0}, "run wall time");
  h.observe(0.25);
  h.observe(0.5);
  h.observe(0.75);
  h.observe(16.0);
  return reg;
}

TEST_F(ObsTest, PrometheusNameMapping) {
  EXPECT_EQ(obs::prometheus_name("campaign.fault.drop_sample"),
            "pwx_campaign_fault_drop_sample");
  EXPECT_EQ(obs::prometheus_name("fleet.node.n-1.staleness_s"),
            "pwx_fleet_node_n_1_staleness_s");
}

TEST_F(ObsTest, PrometheusGolden) {
  obs::MetricRegistry reg;
  const std::string text = obs::to_prometheus(golden_registry(reg).snapshot());
  EXPECT_EQ(text,
            "# HELP pwx_campaign_runs_total runs attempted\n"
            "# TYPE pwx_campaign_runs_total counter\n"
            "pwx_campaign_runs_total 42\n"
            "# HELP pwx_estimator_health health state\n"
            "# TYPE pwx_estimator_health gauge\n"
            "pwx_estimator_health 1\n"
            "# HELP pwx_run_seconds run wall time\n"
            "# TYPE pwx_run_seconds histogram\n"
            "pwx_run_seconds_bucket{le=\"0.5\"} 2\n"
            "pwx_run_seconds_bucket{le=\"1\"} 3\n"
            "pwx_run_seconds_bucket{le=\"10\"} 3\n"
            "pwx_run_seconds_bucket{le=\"+Inf\"} 4\n"
            "pwx_run_seconds_sum 17.5\n"
            "pwx_run_seconds_count 4\n");
}

TEST_F(ObsTest, JsonlGolden) {
  obs::MetricRegistry reg;
  const std::string line = obs::to_jsonl_line(golden_registry(reg).snapshot(), 7);
  EXPECT_EQ(line,
            "{\"counters\":{\"campaign.runs\":42},"
            "\"event\":\"metrics\","
            "\"gauges\":{\"estimator.health\":1},"
            "\"histograms\":{\"run_seconds\":{"
            "\"buckets\":[{\"count\":2,\"le\":0.5},{\"count\":3,\"le\":1},"
            "{\"count\":4,\"le\":\"+Inf\"}],"
            "\"count\":4,\"p50\":0.5,\"p95\":10,\"p99\":10,\"sum\":17.5}},"
            "\"seq\":7}");
}

TEST_F(ObsTest, ExportsAreDeterministicAcrossRegistrationOrder) {
  obs::MetricRegistry forward;
  forward.counter("a.count").add(3);
  forward.gauge("b.level").set(2.5);
  obs::MetricRegistry backward;
  backward.gauge("b.level").set(2.5);
  backward.counter("a.count").add(3);
  EXPECT_EQ(obs::to_prometheus(forward.snapshot()),
            obs::to_prometheus(backward.snapshot()));
  EXPECT_EQ(obs::to_jsonl_line(forward.snapshot(), 0),
            obs::to_jsonl_line(backward.snapshot(), 0));
}

TEST_F(ObsTest, TableExportRenders) {
  obs::MetricRegistry reg;
  golden_registry(reg);
  std::ostringstream table;
  obs::print_table(reg.snapshot(), table);
  EXPECT_NE(table.str().find("campaign.runs"), std::string::npos);
  EXPECT_NE(table.str().find("histogram"), std::string::npos);
}

// -------------------------------------------------------------------- sink

TEST_F(ObsTest, TelemetrySinkRespectsInterval) {
  obs::MetricRegistry reg;
  reg.counter("ticks").add(1);
  std::ostringstream out;
  obs::TelemetrySinkConfig config;
  config.interval_s = 1.0;
  obs::TelemetrySink sink(out, config, &reg);
  EXPECT_TRUE(sink.maybe_flush(10.0));   // first call always flushes
  EXPECT_FALSE(sink.maybe_flush(10.5));  // within the interval
  EXPECT_FALSE(sink.maybe_flush(10.9));
  EXPECT_TRUE(sink.maybe_flush(11.0));
  EXPECT_EQ(sink.flushes(), 2u);

  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t seq = 0;
  while (std::getline(lines, line)) {
    const Json parsed = Json::parse(line);
    EXPECT_EQ(parsed.at("event").as_string(), "metrics");
    EXPECT_DOUBLE_EQ(parsed.at("seq").as_number(), static_cast<double>(seq));
    EXPECT_DOUBLE_EQ(parsed.at("counters").at("ticks").as_number(), 1.0);
    seq += 1;
  }
  EXPECT_EQ(seq, 2u);
}

TEST_F(ObsTest, TelemetrySinkPrometheusFormat) {
  obs::MetricRegistry reg;
  reg.counter("ticks").add(3);
  std::ostringstream out;
  obs::TelemetrySinkConfig config;
  config.format = obs::ExportFormat::Prometheus;
  obs::TelemetrySink sink(out, config, &reg);
  sink.flush(0.0);
  EXPECT_NE(out.str().find("pwx_ticks_total 3"), std::string::npos);
}

// ------------------------------------------------- pipeline instrumentation

/// RAII tracer session, so a failing assertion cannot leave tracing on for
/// the next test.
struct TracerSession {
  TracerSession() { obs::tracer().start(); }
  ~TracerSession() { obs::tracer().stop(); }
  TracerSession(const TracerSession&) = delete;
  TracerSession& operator=(const TracerSession&) = delete;
};

acquire::Dataset tiny_dataset() {
  Rng rng(11);
  acquire::Dataset ds;
  for (int i = 0; i < 48; ++i) {
    acquire::DataRow row;
    row.workload = "w" + std::to_string(i % 6);
    row.phase = row.workload;
    row.suite = workloads::Suite::Roco2;
    row.frequency_ghz = 1.2 + 0.4 * static_cast<double>(i % 4);
    row.threads = 1 + (i % 24);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double e1 = rng.uniform(0.1, 2.0);
    row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    row.avg_power_watts = 25.0 * e1 * v2f + 6.0 * v2f + 10.0 * row.avg_voltage + 5.0;
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  return ds;
}

core::PowerModel tiny_model() {
  core::FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM};
  return core::train_model(tiny_dataset(), spec);
}

core::CounterSample tiny_sample() {
  core::CounterSample sample;
  sample.elapsed_s = 1.0;
  sample.frequency_ghz = 2.0;
  sample.voltage = 0.9;
  sample.counts[pmc::Preset::PRF_DM] = 1.0e9;
  return sample;
}

std::uint64_t global_counter(std::string_view name) {
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::MetricValue* value = snap.find(name);
  return value != nullptr ? value->counter : 0;
}

double global_gauge(std::string_view name) {
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::MetricValue* value = snap.find(name);
  return value != nullptr ? value->gauge : -1.0;
}

TEST_F(ObsTest, GuardedEstimatorCountsClampsAndTransitions) {
  core::OnlineEstimator estimator(tiny_model());
  // 100 events per cycle: a raw estimate near 4 kW, above kMaxWatts, so
  // every valid estimate clamps.
  core::CounterSample hot = tiny_sample();
  hot.counts[pmc::Preset::PRF_DM] = 2.0e11;

  EXPECT_EQ(estimator.estimate_guarded(hot), core::kMaxWatts);  // Ok -> Ok, clamped
  core::CounterSample bad = tiny_sample();
  bad.elapsed_s = -1.0;
  estimator.estimate_guarded(bad);            // Ok -> Degraded
  estimator.estimate_guarded(bad);            // Degraded -> Degraded
  estimator.estimate_guarded(hot);            // Degraded -> Ok, clamped

  EXPECT_EQ(global_counter("estimator.estimates"), 4u);
  EXPECT_EQ(global_counter("estimator.invalid_samples"), 2u);
  EXPECT_EQ(global_counter("estimator.clamped"), 2u);
  EXPECT_EQ(global_counter("estimator.health_transitions"), 2u);
  EXPECT_DOUBLE_EQ(global_gauge("estimator.health"),
                   static_cast<double>(core::HealthState::Ok));
}

TEST_F(ObsTest, RobustSourceMetricsMirrorItsStats) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  const auto workload = workloads::find_workload("compute");
  ASSERT_TRUE(workload.has_value());
  sim::RunConfig rc;
  rc.threads = 4;
  rc.interval_s = 0.25;
  rc.seed = 77;
  host::SimulatedCounterSource sim_source(engine, *workload, rc);
  host::FaultyCounterSource chaos(
      sim_source, fault::FaultPlan::escalating(0xBEEF, 1.5));
  core::RobustCounterSource robust(chaos);
  robust.start({pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS});
  while (robust.read().has_value()) {
  }

  const core::RobustSourceStats& stats = robust.stats();
  EXPECT_EQ(global_counter("robust_source.reads"), stats.reads);
  EXPECT_EQ(global_counter("robust_source.read_errors"), stats.read_errors);
  EXPECT_EQ(global_counter("robust_source.invalid_samples"), stats.invalid_samples);
  EXPECT_EQ(global_counter("robust_source.overflow_corrections"),
            stats.overflow_corrections);
  EXPECT_EQ(global_counter("robust_source.held_samples"), stats.held_samples);
  EXPECT_EQ(global_counter("robust_source.start_retries"), stats.start_retries);
  // The chaos plan must actually have exercised the hardening path.
  EXPECT_GT(stats.read_errors + stats.invalid_samples + stats.overflow_corrections,
            0u);
  EXPECT_DOUBLE_EQ(global_gauge("robust_source.health"),
                   static_cast<double>(robust.health()));
}

TEST_F(ObsTest, SeededFaultCampaignSurfacesInMetrics) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  acquire::CampaignConfig config = acquire::standard_campaign_config({2.4});
  config.workloads = {workloads::roco2_suite()[2], workloads::roco2_suite()[3]};
  config.scalable_thread_counts = {4};
  config.max_attempts = 4;
  const fault::FaultPlan plan = fault::FaultPlan::escalating(0xC7A05, 0.4);
  config.fault_plan = &plan;

  // Trace the campaign too; the session ends even if the campaign throws.
  const acquire::Dataset dataset = [&] {
    const TracerSession session;
    return acquire::run_campaign(engine, config);
  }();
  const acquire::DataQuality& quality = dataset.quality();

  EXPECT_EQ(global_counter("campaign.campaigns"), 1u);
  EXPECT_EQ(global_counter("campaign.configurations"), quality.configurations_total);
  EXPECT_EQ(global_counter("campaign.configurations_quarantined"),
            quality.configurations_quarantined);
  EXPECT_EQ(global_counter("campaign.runs_attempted"), quality.runs_attempted);
  EXPECT_EQ(global_counter("campaign.runs_rejected"), quality.runs_rejected);
  EXPECT_EQ(global_counter("campaign.runs_retried"), quality.runs_retried);
  EXPECT_EQ(global_counter("campaign.rows_produced"), quality.sanitize.rows_checked);
  EXPECT_EQ(global_counter("campaign.rows_dropped"), quality.sanitize.rows_dropped);
  // The seeded plan must actually have hurt: retries happened and were counted.
  EXPECT_GT(quality.runs_retried, 0u);
  for (const auto& [kind, count] : quality.fault_counts) {
    EXPECT_EQ(global_counter("campaign.fault." + kind), count)
        << "fault kind " << kind;
  }
  // Per-run timing flowed into the histogram, one observation per attempt.
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::MetricValue* runs = snap.find("campaign.run_seconds");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->histogram.count, quality.runs_attempted);

  // One sim.run span per attempt, retries included, each under the span of
  // the configuration it belongs to.
  const std::vector<obs::SpanRecord> records = obs::tracer().drain();
  EXPECT_EQ(obs::tracer().stats().spans_dropped, 0u);
  std::map<std::uint64_t, std::string_view> names;
  for (const obs::SpanRecord& record : records) {
    names.emplace(record.span_id, record.name);
  }
  std::uint64_t sim_runs = 0;
  for (const obs::SpanRecord& record : records) {
    if (record.name == "sim.run") {
      sim_runs += 1;
      EXPECT_EQ(names[record.parent_id], "campaign.configuration");
    }
  }
  EXPECT_EQ(sim_runs, quality.runs_attempted);
}

TEST_F(ObsTest, FleetSnapshotPublishesGauges) {
  core::FleetEstimator fleet(tiny_model(), 0.0, /*staleness_horizon_s=*/5.0);
  test::ingest_one(fleet, fleet.intern("n1"), tiny_sample(), 0.0);
  test::ingest_one(fleet, fleet.intern("n2"), tiny_sample(), 8.0);
  fleet.snapshot(10.0);  // n1 is stale (10 > 0+5), n2 reporting

  EXPECT_DOUBLE_EQ(global_gauge("fleet.nodes_reporting"), 1.0);
  EXPECT_DOUBLE_EQ(global_gauge("fleet.nodes_stale"), 1.0);
  EXPECT_DOUBLE_EQ(global_gauge("fleet.nodes_failed"), 0.0);
  EXPECT_DOUBLE_EQ(global_gauge("fleet.node.n1.staleness_s"), 10.0);
  EXPECT_DOUBLE_EQ(global_gauge("fleet.node.n2.staleness_s"), 2.0);
  EXPECT_GT(global_gauge("fleet.total_watts"), 0.0);
}

}  // namespace
}  // namespace pwx
