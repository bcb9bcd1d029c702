// Tests for the OTF2-lite trace layer: records, the columnar event store,
// serialization (the v4 format, pinned byte for byte by a golden), metric
// plugins, phase-profile post-processing, and batch campaign ingestion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <tuple>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "trace/columns.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "trace/profile_campaign.hpp"
#include "trace/serialize.hpp"
#include "trace/trace.hpp"
#include "workloads/registry.hpp"

#include "test_support.hpp"

namespace pwx::trace {
namespace {

[[maybe_unused]] const auto* const kScratchCleanup =
    test::remove_scratch_at_exit("pwx_trace_campaign_test");

Trace make_small_trace() {
  Trace t;
  t.set_attribute("workload", "unit");
  t.set_attribute("frequency_ghz", 2.4);
  t.set_attribute("threads", 4.0);
  const auto power = t.define_metric({"power", "W", MetricMode::AsyncAverage});
  const auto volt = t.define_metric({"core_voltage", "V", MetricMode::AsyncInstant});
  const auto ctr =
      t.define_metric({"PAPI_TOT_CYC", "events", MetricMode::CounterIncrement});
  t.append(RegionEnter{0, "phase_a"});
  t.append(MetricEvent{1000000000, power, 100.0});
  t.append(MetricEvent{1000000000, volt, 0.9});
  t.append(MetricEvent{1000000000, ctr, 5.0e9});
  t.append(MetricEvent{2000000000, power, 110.0});
  t.append(MetricEvent{2000000000, volt, 0.9});
  t.append(MetricEvent{2000000000, ctr, 5.2e9});
  t.append(RegionExit{2000000000, "phase_a"});
  return t;
}

// ---------------------------------------------------------------- trace core

TEST(Trace, MetricDefinitionAndLookup) {
  Trace t;
  const auto idx = t.define_metric({"power", "W", MetricMode::AsyncAverage});
  EXPECT_EQ(t.metric_index("power"), idx);
  EXPECT_TRUE(t.has_metric("power"));
  EXPECT_FALSE(t.has_metric("nope"));
  EXPECT_THROW(t.metric_index("nope"), InvalidArgument);
}

TEST(Trace, DuplicateMetricNameRejected) {
  Trace t;
  t.define_metric({"power", "W", MetricMode::AsyncAverage});
  EXPECT_THROW(t.define_metric({"power", "W", MetricMode::AsyncAverage}),
               InvalidArgument);
}

TEST(Trace, ChronologicalOrderEnforced) {
  Trace t;
  t.append(RegionEnter{100, "x"});
  EXPECT_THROW(t.append(RegionExit{50, "x"}), InvalidArgument);
}

TEST(Trace, MetricEventMustReferenceDefinedMetric) {
  Trace t;
  EXPECT_THROW(t.append(MetricEvent{0, 3, 1.0}), InvalidArgument);
}

TEST(Trace, AttributeConversions) {
  Trace t;
  t.set_attribute("threads", 24.0);
  t.set_attribute("name", "compute");
  EXPECT_DOUBLE_EQ(t.attribute_as_double("threads"), 24.0);
  EXPECT_EQ(t.attribute("name"), "compute");
  EXPECT_THROW(t.attribute("missing"), InvalidArgument);
  EXPECT_THROW(t.attribute_as_double("name"), InvalidArgument);
}

// ---------------------------------------------------------------- serialization

TEST(Serialize, RoundTripPreservesEverything) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  const Trace loaded = read_trace(buffer);

  EXPECT_EQ(loaded.attributes(), original.attributes());
  ASSERT_EQ(loaded.metrics().size(), original.metrics().size());
  for (std::size_t i = 0; i < loaded.metrics().size(); ++i) {
    EXPECT_EQ(loaded.metrics()[i].name, original.metrics()[i].name);
    EXPECT_EQ(loaded.metrics()[i].unit, original.metrics()[i].unit);
    EXPECT_EQ(loaded.metrics()[i].mode, original.metrics()[i].mode);
  }
  const EventColumns& got = loaded.columns();
  const EventColumns& want = original.columns();
  EXPECT_EQ(got.times, want.times);
  EXPECT_EQ(got.kinds, want.kinds);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.regions.names(), want.regions.names());
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "pwx_trace_test.otf2l";
  const Trace original = make_small_trace();
  write_trace_file(original, path);
  const Trace loaded = read_trace_file(path);
  EXPECT_EQ(loaded.columns().size(), original.columns().size());
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOTATRACE-----";
  EXPECT_THROW(read_trace(buffer), IoError);
}

TEST(Serialize, TruncatedStreamRejected) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(read_trace(truncated), IoError);
}

TEST(Serialize, CorruptedEventKindRejected) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string data = buffer.str();
  // The kinds column is the last column of the event section: 8 one-byte
  // kinds, no padding, then the 8-byte checksum footer. Overwrite the final
  // event's kind with garbage.
  data[data.size() - 9] = 99;
  std::stringstream corrupted(data);
  EXPECT_THROW(read_trace(corrupted), IoError);
}

TEST(Serialize, ChecksumCatchesPayloadBitFlip) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string data = buffer.str();
  // Flip one bit inside the values column (the 8 events' f64 payloads sit
  // in [size-112, size-48)) — structurally valid, so only the checksum can
  // catch it.
  data[data.size() - 60] ^= 0x01;
  std::stringstream corrupted(data);
  try {
    read_trace(corrupted);
    FAIL() << "a flipped payload bit must not parse";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos);
  }
}

TEST(Serialize, IoErrorCarriesByteOffsetAndRecordIndex) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() - 12);  // cut into the final event
  std::stringstream truncated(data);
  try {
    read_trace(truncated);
    FAIL() << "truncated trace must not parse";
  } catch (const IoError& e) {
    EXPECT_GE(e.byte_offset(), 0);
    EXPECT_GE(e.record_index(), 0);
    EXPECT_EQ(e.code(), ErrorCode::Corruption);
  }
}

// Every truncation and every bit flip must surface as a typed IoError —
// read_trace may never return a silently partial Trace.
TEST(Serialize, CorruptionSweepAlwaysFailsTyped) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.1;
  rc.seed = 7;
  const auto workload = workloads::find_workload("md");
  const auto run = engine.run(*workload, rc);
  const Trace original = build_standard_trace(run, {pmc::Preset::TOT_CYC});
  std::stringstream buffer;
  write_trace(original, buffer);
  const std::string data = buffer.str();
  ASSERT_GT(data.size(), 128u);

  for (std::size_t cut = 0; cut < data.size(); cut += 64) {
    std::string truncated = data.substr(0, cut);
    std::stringstream in(truncated);
    EXPECT_THROW(read_trace(in), IoError) << "truncation at byte " << cut;
  }
  for (std::size_t pos = 0; pos < data.size(); pos += 64) {
    std::string flipped = data;
    flipped[pos] ^= 0x10;
    std::stringstream in(flipped);
    EXPECT_THROW(read_trace(in), IoError) << "bit flip at byte " << pos;
  }
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path/file.otf2l"), IoError);
}

// ---------------------------------------------------------------- plugins

sim::RunResult quick_run(const char* workload_name = "compute") {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.1;
  rc.seed = 3;
  const auto workload = workloads::find_workload(workload_name);
  return engine.run(*workload, rc);
}

TEST(Plugins, StandardTraceHasPowerVoltageAndCounters) {
  const auto run = quick_run();
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_CYC, pmc::Preset::PRF_DM});
  EXPECT_TRUE(t.has_metric("power"));
  EXPECT_TRUE(t.has_metric("core_voltage"));
  EXPECT_TRUE(t.has_metric("PAPI_TOT_CYC"));
  EXPECT_TRUE(t.has_metric("PAPI_PRF_DM"));
  EXPECT_FALSE(t.has_metric("PAPI_TLB_IM"));
  EXPECT_EQ(t.attribute("workload"), "compute");
  EXPECT_NEAR(t.attribute_as_double("frequency_ghz"), 2.4, 1e-9);
}

TEST(Plugins, EventCountMatchesIntervalsAndMetrics) {
  const auto run = quick_run();
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_CYC});
  // Per interval: power + voltage + 1 counter = 3 metric events; plus one
  // region enter and exit.
  EXPECT_EQ(t.columns().size(), run.intervals.size() * 3 + 2);
}

TEST(Plugins, ApapiMetricNameUsesPapiPrefix) {
  EXPECT_EQ(ApapiPlugin::metric_name(pmc::Preset::BR_MSP), "PAPI_BR_MSP");
}

TEST(Plugins, ApapiRejectsEmptyEventSet) {
  EXPECT_THROW(ApapiPlugin({}), InvalidArgument);
}

TEST(Plugins, MultiPhaseRunProducesMultipleRegions) {
  const auto run = quick_run("md");
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_CYC});
  const auto& kinds = t.columns().kinds;
  const auto enters =
      std::count(kinds.begin(), kinds.end(), static_cast<std::uint8_t>(EventKind::Enter));
  EXPECT_EQ(enters, 2);  // md has two phases
}

// ---------------------------------------------------------------- phase profiles

TEST(PhaseProfile, AveragesAreTimeWeighted) {
  const Trace t = make_small_trace();
  const auto profiles = build_phase_profiles(t);
  ASSERT_EQ(profiles.size(), 1u);
  const PhaseProfile& p = profiles[0];
  EXPECT_EQ(p.workload, "unit");
  EXPECT_EQ(p.phase, "phase_a");
  EXPECT_DOUBLE_EQ(p.elapsed_s, 2.0);
  EXPECT_NEAR(p.avg_power_watts, 105.0, 1e-9);  // equal-length intervals
  EXPECT_NEAR(p.avg_voltage, 0.9, 1e-12);
  EXPECT_NEAR(p.rate(pmc::Preset::TOT_CYC), (5.0e9 + 5.2e9) / 2.0, 1.0);
  EXPECT_NEAR(p.rate_per_cycle(pmc::Preset::TOT_CYC), 5.1e9 / 2.4e9, 1e-6);
}

TEST(PhaseProfile, FromSimulatedRunMatchesIntervalAverages) {
  const auto run = quick_run();
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_INS});
  const auto profiles = build_phase_profiles(t);
  ASSERT_EQ(profiles.size(), 1u);
  double mean_p = 0;
  for (const auto& iv : run.intervals) {
    mean_p += iv.measured_power_watts;
  }
  mean_p /= static_cast<double>(run.intervals.size());
  EXPECT_NEAR(profiles[0].avg_power_watts, mean_p, 1e-6);
  EXPECT_EQ(profiles[0].threads, run.config.threads);
}

TEST(PhaseProfile, MissingCounterThrows) {
  const Trace t = make_small_trace();
  const auto profiles = build_phase_profiles(t);
  EXPECT_THROW(profiles[0].rate(pmc::Preset::PRF_DM), InvalidArgument);
  EXPECT_FALSE(profiles[0].has(pmc::Preset::PRF_DM));
  EXPECT_TRUE(profiles[0].has(pmc::Preset::TOT_CYC));
}

TEST(PhaseProfile, MultiPhaseTraceYieldsRowPerPhase) {
  const auto run = quick_run("md");
  const Trace t = build_standard_trace(run, {pmc::Preset::TOT_CYC});
  const auto profiles = build_phase_profiles(t);
  EXPECT_EQ(profiles.size(), 2u);
}

TEST(PhaseProfile, MergeAveragesPowerAndUnionsCounters) {
  PhaseProfile a;
  a.workload = "w";
  a.phase = "p";
  a.frequency_ghz = 2.4;
  a.threads = 4;
  a.elapsed_s = 1.0;
  a.avg_power_watts = 100.0;
  a.avg_voltage = 0.9;
  a.counter_rates[pmc::Preset::TOT_CYC] = 1e9;

  PhaseProfile b = a;
  b.elapsed_s = 3.0;
  b.avg_power_watts = 120.0;
  b.counter_rates.clear();
  b.counter_rates[pmc::Preset::PRF_DM] = 5e6;

  const PhaseProfile merged = merge_profiles({a, b});
  EXPECT_DOUBLE_EQ(merged.elapsed_s, 4.0);
  EXPECT_NEAR(merged.avg_power_watts, (100.0 * 1 + 120.0 * 3) / 4.0, 1e-9);
  // Counters recorded in only one run carry through with their own weight.
  EXPECT_DOUBLE_EQ(merged.rate(pmc::Preset::TOT_CYC), 1e9);
  EXPECT_DOUBLE_EQ(merged.rate(pmc::Preset::PRF_DM), 5e6);
  EXPECT_EQ(merged.runs_merged, 2u);
}

TEST(PhaseProfile, MergeRejectsMismatchedKeys) {
  PhaseProfile a;
  a.workload = "w";
  a.phase = "p";
  a.frequency_ghz = 2.4;
  a.threads = 4;
  a.elapsed_s = 1.0;
  PhaseProfile b = a;
  b.threads = 8;
  EXPECT_THROW(merge_profiles({a, b}), InvalidArgument);
  b = a;
  b.phase = "q";
  EXPECT_THROW(merge_profiles({a, b}), InvalidArgument);
}

TEST(PhaseProfile, MergeOfSingleProfileIsIdentity) {
  PhaseProfile a;
  a.workload = "w";
  a.phase = "p";
  a.frequency_ghz = 2.0;
  a.threads = 2;
  a.elapsed_s = 1.0;
  a.avg_power_watts = 50.0;
  const PhaseProfile merged = merge_profiles({a});
  EXPECT_DOUBLE_EQ(merged.avg_power_watts, 50.0);
  EXPECT_EQ(merged.runs_merged, 1u);
}

TEST(PhaseProfile, RepeatedRegionInstancesArePooled) {
  Trace t;
  t.set_attribute("workload", "w");
  t.set_attribute("frequency_ghz", 2.0);
  t.set_attribute("threads", 1.0);
  const auto power = t.define_metric({"power", "W", MetricMode::AsyncAverage});
  t.append(RegionEnter{0, "a"});
  t.append(MetricEvent{1000000000, power, 10.0});
  t.append(RegionExit{1000000000, "a"});
  t.append(RegionEnter{1000000000, "b"});
  t.append(MetricEvent{2000000000, power, 20.0});
  t.append(RegionExit{2000000000, "b"});
  t.append(RegionEnter{2000000000, "a"});
  t.append(MetricEvent{3000000000, power, 30.0});
  t.append(RegionExit{3000000000, "a"});
  const auto profiles = build_phase_profiles(t);
  ASSERT_EQ(profiles.size(), 2u);
  // Profiles sorted by name: "a" then "b".
  EXPECT_DOUBLE_EQ(profiles[0].elapsed_s, 2.0);
  EXPECT_NEAR(profiles[0].avg_power_watts, 20.0, 1e-9);  // (10+30)/2
  EXPECT_DOUBLE_EQ(profiles[1].elapsed_s, 1.0);
}

TEST(PhaseProfile, UnbalancedRegionsRejected) {
  Trace t;
  t.set_attribute("workload", "w");
  t.set_attribute("frequency_ghz", 2.0);
  t.set_attribute("threads", 1.0);
  t.append(RegionEnter{0, "a"});
  EXPECT_THROW(build_phase_profiles(t), InvalidArgument);
}

// ---------------------------------------------------------------- columnar store

/// One appended event as the test remembers it, independent of the store.
struct AppendedEvent {
  EventKind kind;
  std::uint64_t time_ns;
  std::string region;       ///< Enter/Exit only
  std::uint32_t metric = 0;  ///< Metric only
  double value = 0.0;        ///< Metric only
};

/// Appends `count` random (but chronological and well-formed) events to `t`
/// and returns the same events as plain records.
std::vector<AppendedEvent> append_random_events(Trace& t, std::size_t count,
                                                std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  std::uniform_int_distribution<std::uint64_t> dt_dist(0, 1000000);
  std::uniform_real_distribution<double> value_dist(-1e9, 1e9);
  const char* regions[] = {"alpha", "beta", "gamma"};
  const std::uint32_t metrics[] = {t.define_metric({"m0", "W", MetricMode::AsyncAverage}),
                                   t.define_metric({"m1", "V", MetricMode::AsyncInstant})};
  std::vector<AppendedEvent> reference;
  std::uint64_t time = 0;
  for (std::size_t i = 0; i < count; ++i) {
    time += dt_dist(rng);
    switch (kind_dist(rng)) {
      case 0:
        t.append(RegionEnter{time, regions[i % 3]});
        reference.push_back({EventKind::Enter, time, regions[i % 3]});
        break;
      case 1:
        t.append(RegionExit{time, regions[i % 3]});
        reference.push_back({EventKind::Exit, time, regions[i % 3]});
        break;
      default: {
        const MetricEvent e{time, metrics[i % 2], value_dist(rng)};
        t.append(e);
        reference.push_back({EventKind::Metric, time, "", e.metric, e.value});
        break;
      }
    }
  }
  return reference;
}

void expect_events_equal(const Trace& t, const std::vector<AppendedEvent>& reference) {
  const EventColumns& columns = t.columns();
  ASSERT_EQ(columns.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const AppendedEvent& expected = reference[i];
    ASSERT_EQ(columns.kinds[i], static_cast<std::uint8_t>(expected.kind)) << "event " << i;
    EXPECT_EQ(columns.times[i], expected.time_ns);
    if (expected.kind == EventKind::Metric) {
      EXPECT_EQ(columns.ids[i], expected.metric);
      EXPECT_EQ(columns.values[i], expected.value);
    } else {
      EXPECT_EQ(columns.regions.at(columns.ids[i]), expected.region);
      EXPECT_EQ(columns.values[i], 0.0);
    }
  }
}

TEST(Columns, ViewMatchesAppendedVariantsOnRandomTraces) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    Trace t;
    const auto reference = append_random_events(t, 500, seed);
    expect_events_equal(t, reference);
  }
}

TEST(Columns, EquivalenceSurvivesSerializationRoundTrip) {
  Trace t;
  t.set_attribute("workload", "rand");
  const auto reference = append_random_events(t, 300, 99);
  std::stringstream buffer;
  write_trace(t, buffer);
  const Trace loaded = read_trace(buffer);
  expect_events_equal(loaded, reference);
}

TEST(Columns, StringTableInternsAndLooksUp) {
  StringTable table;
  EXPECT_EQ(table.intern("a"), 0u);
  EXPECT_EQ(table.intern("b"), 1u);
  EXPECT_EQ(table.intern("a"), 0u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.at(1), "b");
  EXPECT_EQ(table.find("b"), std::optional<std::uint32_t>(1u));
  EXPECT_FALSE(table.find("c").has_value());
  EXPECT_THROW(table.at(2), InvalidArgument);
}

TEST(Columns, AdoptColumnsValidatesInvariants) {
  {  // chronology
    EventColumns c;
    c.push_enter(100, c.regions.intern("a"));
    c.push_exit(50, 0);
    Trace t;
    EXPECT_THROW(t.adopt_columns(std::move(c)), InvalidArgument);
  }
  {  // undefined metric id
    EventColumns c;
    c.push_metric(0, 7, 1.0);
    Trace t;
    EXPECT_THROW(t.adopt_columns(std::move(c)), InvalidArgument);
  }
  {  // unknown kind byte
    EventColumns c;
    c.push_enter(0, c.regions.intern("a"));
    c.kinds[0] = 42;
    Trace t;
    EXPECT_THROW(t.adopt_columns(std::move(c)), InvalidArgument);
  }
}

// ---------------------------------------------------------------- golden v4

// Golden v4 bytes of make_small_trace(). Guards two contracts at once: the
// reader parses these exact bytes, and the writer reproduces them — so any
// change to the on-disk layout, padding, column order or checksum fails
// here first.
const unsigned char kGoldenV4[] = {
    0x4f, 0x54, 0x46, 0x32, 0x4c, 0x54, 0x76, 0x34, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x58, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x48, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xb0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x0d, 0x00, 0x00, 0x00, 0x66, 0x72, 0x65, 0x71, 0x75, 0x65, 0x6e, 0x63,
    0x79, 0x5f, 0x67, 0x68, 0x7a, 0x0b, 0x00, 0x00, 0x00, 0x32, 0x2e, 0x34,
    0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x07, 0x00, 0x00, 0x00,
    0x74, 0x68, 0x72, 0x65, 0x61, 0x64, 0x73, 0x0b, 0x00, 0x00, 0x00, 0x34,
    0x2e, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x08, 0x00,
    0x00, 0x00, 0x77, 0x6f, 0x72, 0x6b, 0x6c, 0x6f, 0x61, 0x64, 0x04, 0x00,
    0x00, 0x00, 0x75, 0x6e, 0x69, 0x74, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x70, 0x6f, 0x77, 0x65,
    0x72, 0x01, 0x00, 0x00, 0x00, 0x57, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x63,
    0x6f, 0x72, 0x65, 0x5f, 0x76, 0x6f, 0x6c, 0x74, 0x61, 0x67, 0x65, 0x01,
    0x00, 0x00, 0x00, 0x56, 0x01, 0x0c, 0x00, 0x00, 0x00, 0x50, 0x41, 0x50,
    0x49, 0x5f, 0x54, 0x4f, 0x54, 0x5f, 0x43, 0x59, 0x43, 0x06, 0x00, 0x00,
    0x00, 0x65, 0x76, 0x65, 0x6e, 0x74, 0x73, 0x02, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x70, 0x68, 0x61, 0x73,
    0x65, 0x5f, 0x61, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xca, 0x9a, 0x3b,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xca, 0x9a, 0x3b, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xca, 0x9a, 0x3b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x94, 0x35, 0x77,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x94, 0x35, 0x77, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x94, 0x35, 0x77, 0x00, 0x00, 0x00, 0x00, 0x00, 0x94, 0x35, 0x77,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x59, 0x40, 0xcd, 0xcc, 0xcc, 0xcc,
    0xcc, 0xcc, 0xec, 0x3f, 0x00, 0x00, 0x00, 0x20, 0x5f, 0xa0, 0xf2, 0x41,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x5b, 0x40, 0xcd, 0xcc, 0xcc, 0xcc,
    0xcc, 0xcc, 0xec, 0x3f, 0x00, 0x00, 0x00, 0x40, 0x1b, 0x5f, 0xf3, 0x41,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x03, 0x03, 0x03, 0x03, 0x03, 0x03, 0x02,
    0x12, 0xc7, 0x11, 0x6b, 0x86, 0x2e, 0x38, 0x64};

TEST(Serialize, GoldenV4BytesStayReadable) {
  const std::string data(reinterpret_cast<const char*>(kGoldenV4), sizeof kGoldenV4);
  std::stringstream in(data);
  const Trace loaded = read_trace(in);
  const Trace expected = make_small_trace();
  EXPECT_EQ(loaded.attributes(), expected.attributes());
  ASSERT_EQ(loaded.metrics().size(), 3u);
  EXPECT_EQ(loaded.metrics()[2].name, "PAPI_TOT_CYC");
  EXPECT_EQ(loaded.columns().times, expected.columns().times);
  EXPECT_EQ(loaded.columns().kinds, expected.columns().kinds);
  EXPECT_EQ(loaded.columns().ids, expected.columns().ids);
  EXPECT_EQ(loaded.columns().values, expected.columns().values);
  const auto profiles = build_phase_profiles(loaded);
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_NEAR(profiles[0].avg_power_watts, 105.0, 1e-9);
}

TEST(Serialize, WriterReproducesGoldenV4Bytes) {
  std::ostringstream os;
  write_trace(make_small_trace(), os);
  const std::string produced = os.str();
  ASSERT_EQ(produced.size(), sizeof kGoldenV4);
  EXPECT_EQ(produced,
            std::string(reinterpret_cast<const char*>(kGoldenV4), sizeof kGoldenV4));
}

TEST(Serialize, RoundTripIsBitIdentical) {
  const auto run = quick_run("md");
  const Trace original = build_standard_trace(run, {pmc::Preset::TOT_CYC,
                                                    pmc::Preset::PRF_DM});
  std::stringstream first;
  write_trace(original, first);
  std::stringstream in(first.str());
  const Trace loaded = read_trace(in);
  std::stringstream second;
  write_trace(loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

// Every truncation of a trace must carry a usable diagnosis: a byte offset
// always, and — when the cut lands inside the bulk event arrays — a
// non-negative record index (the first event that could not be recovered).
TEST(Serialize, TruncationSweepKeepsOffsetContract) {
  const Trace original = make_small_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  const std::string data = buffer.str();

  // The event section holds 8 events; its arrays occupy the last
  // 8*(8+1+4+8) bytes of the body before the checksum footer.
  const std::size_t arrays_begin = data.size() - 8 - 8 * 21;
  for (std::size_t cut = 9; cut < data.size(); cut += 7) {
    std::stringstream in(data.substr(0, cut));
    try {
      read_trace(in);
      FAIL() << "truncation at byte " << cut << " must not parse";
    } catch (const IoError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Corruption) << "cut " << cut;
      EXPECT_GE(e.byte_offset(), 0) << "cut " << cut;
      if (cut >= arrays_begin + 8) {
        EXPECT_GE(e.record_index(), 0) << "cut " << cut;
      }
    }
  }
}

// ---------------------------------------------------------------- profile campaign

/// Scratch directory for the campaign fixture (pid-keyed, removed at exit).
std::filesystem::path campaign_fixture_dir() {
  return test::scratch_path("pwx_trace_campaign_test");
}

/// A small multiplexed campaign fixture: two event groups per workload, so
/// batch ingestion has real cross-run merging to do.
const std::vector<std::string>& campaign_fixture_files() {
  static const std::vector<std::string> paths = [] {
    const sim::Engine engine = sim::Engine::haswell_ep();
    const char* names[] = {"md", "md", "compute", "compute", "matmul", "matmul"};
    const std::vector<pmc::Preset> groups[2] = {
        {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS},
        {pmc::Preset::PRF_DM, pmc::Preset::BR_MSP}};
    const auto dir = campaign_fixture_dir();
    std::filesystem::create_directories(dir);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < 6; ++i) {
      sim::RunConfig rc;
      rc.interval_s = 0.25;
      rc.duration_scale = 0.1;
      rc.seed = 40 + i;
      const auto workload = workloads::find_workload(names[i]);
      const Trace t =
          build_standard_trace(engine.run(*workload, rc), groups[i % 2]);
      const std::string path = (dir / ("t" + std::to_string(i) + ".otf2l")).string();
      write_trace_file(t, path);
      out.push_back(path);
    }
    return out;
  }();
  return paths;
}

/// The plain serial loop ProfileCampaign must match bit for bit.
std::vector<PhaseProfile> serial_reference(const std::vector<std::string>& paths) {
  std::vector<std::vector<PhaseProfile>> groups;
  std::vector<PhaseProfile> keys;
  for (const std::string& path : paths) {
    for (PhaseProfile& p : build_phase_profiles(read_trace_file(path))) {
      std::size_t slot = keys.size();
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (keys[k].workload == p.workload && keys[k].phase == p.phase &&
            keys[k].frequency_ghz == p.frequency_ghz && keys[k].threads == p.threads) {
          slot = k;
          break;
        }
      }
      if (slot == keys.size()) {
        keys.push_back(p);
        groups.emplace_back();
      }
      groups[slot].push_back(std::move(p));
    }
  }
  std::vector<PhaseProfile> out;
  for (const auto& group : groups) {
    out.push_back(merge_profiles(group));
  }
  return out;
}

void expect_profiles_identical(const std::vector<PhaseProfile>& actual,
                               const std::vector<PhaseProfile>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].workload, expected[i].workload);
    EXPECT_EQ(actual[i].phase, expected[i].phase);
    EXPECT_EQ(actual[i].frequency_ghz, expected[i].frequency_ghz);
    EXPECT_EQ(actual[i].threads, expected[i].threads);
    EXPECT_EQ(actual[i].start_s, expected[i].start_s);
    EXPECT_EQ(actual[i].end_s, expected[i].end_s);
    EXPECT_EQ(actual[i].elapsed_s, expected[i].elapsed_s);
    EXPECT_EQ(actual[i].avg_power_watts, expected[i].avg_power_watts);
    EXPECT_EQ(actual[i].avg_voltage, expected[i].avg_voltage);
    EXPECT_EQ(actual[i].runs_merged, expected[i].runs_merged);
    EXPECT_EQ(actual[i].counter_rates, expected[i].counter_rates);  // exact doubles
  }
}

class ProfileCampaignEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ProfileCampaignEquivalence, BatchBitIdenticalToSerialLoop) {
  const auto [threads, parallel] = GetParam();
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
  const auto& paths = campaign_fixture_files();
  ProfileCampaignOptions options;
  options.parallel = parallel;
  const auto batch = profile_trace_files(paths, options);
  const auto expected = serial_reference(paths);
  EXPECT_GT(batch.size(), 0u);
  expect_profiles_identical(batch, expected);
#ifdef _OPENMP
  omp_set_num_threads(0);  // restore the runtime default
#endif
}

INSTANTIATE_TEST_SUITE_P(ThreadAndParallelSweep, ProfileCampaignEquivalence,
                         ::testing::Combine(::testing::Values(1, 4, 16),
                                            ::testing::Bool()));

TEST(ProfileCampaign, MergesMultiplexedGroupsAcrossRuns) {
  const auto profiles = profile_trace_files(campaign_fixture_files());
  // 3 workloads; md has two phases -> 4 merged rows, each covering 2 runs
  // and carrying all four multiplexed counters.
  ASSERT_EQ(profiles.size(), 4u);
  for (const PhaseProfile& p : profiles) {
    EXPECT_EQ(p.runs_merged, 2u);
    EXPECT_TRUE(p.has(pmc::Preset::TOT_CYC));
    EXPECT_TRUE(p.has(pmc::Preset::PRF_DM));
  }
}

TEST(ProfileCampaign, NoMergeKeepsPerRunRows) {
  ProfileCampaignOptions options;
  options.merge = false;
  const auto profiles = profile_trace_files(campaign_fixture_files(), options);
  // md twice (2 phases each) + compute twice + matmul twice = 8 rows.
  EXPECT_EQ(profiles.size(), 8u);
  for (const PhaseProfile& p : profiles) {
    EXPECT_EQ(p.runs_merged, 1u);
  }
}

TEST(ProfileCampaign, ErrorCarriesOffendingPath) {
  auto paths = campaign_fixture_files();
  paths.insert(paths.begin() + 1, "/nonexistent/missing.otf2l");
  try {
    profile_trace_files(paths);
    FAIL() << "missing file must throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("missing.otf2l"), std::string::npos);
  }
}

TEST(ProfileCampaign, CorruptFileSurfacesTypedError) {
  auto paths = campaign_fixture_files();
  // Write a corrupted copy of the first trace and splice it in.
  std::ifstream in(paths[0], std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string data = ss.str();
  data[data.size() / 2] ^= 0x04;
  const auto bad = campaign_fixture_dir() / "bad.otf2l";
  {
    std::ofstream out(bad, std::ios::binary);
    out << data;
  }
  paths.push_back(bad.string());
  try {
    profile_trace_files(paths);
    FAIL() << "corrupt file must throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corruption);
    EXPECT_NE(std::string(e.what()).find("bad.otf2l"), std::string::npos);
  }
}

}  // namespace
}  // namespace pwx::trace
