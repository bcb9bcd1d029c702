// Tests for dataset assembly and acquisition campaigns.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "acquire/campaign.hpp"
#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "pmc/scheduler.hpp"
#include "sim/engine.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

#include "test_support.hpp"

namespace pwx::acquire {
namespace {

[[maybe_unused]] const auto* const kScratchCleanup =
    test::remove_scratch_at_exit("pwx_acquire_ingest_test");

DataRow make_row(const std::string& workload, workloads::Suite suite, double f,
                 std::size_t threads, double power) {
  DataRow row;
  row.workload = workload;
  row.phase = "main";
  row.suite = suite;
  row.frequency_ghz = f;
  row.threads = threads;
  row.avg_power_watts = power;
  row.avg_voltage = 0.9;
  row.elapsed_s = 1.0;
  row.counter_rates[pmc::Preset::TOT_CYC] = f * 1e9 * threads;
  row.counter_rates[pmc::Preset::PRF_DM] = 1e7 * threads;
  return row;
}

Dataset small_dataset() {
  Dataset ds;
  ds.append(make_row("compute", workloads::Suite::Roco2, 2.4, 4, 100));
  ds.append(make_row("compute", workloads::Suite::Roco2, 1.2, 4, 70));
  ds.append(make_row("md", workloads::Suite::SpecOmp, 2.4, 24, 170));
  ds.append(make_row("swim", workloads::Suite::SpecOmp, 2.4, 24, 130));
  return ds;
}

// ---------------------------------------------------------------- dataset

TEST(Dataset, RatePerCycleNormalizesByFrequency) {
  const DataRow row = make_row("x", workloads::Suite::Roco2, 2.0, 8, 100);
  EXPECT_NEAR(row.rate_per_cycle(pmc::Preset::TOT_CYC), 8.0, 1e-12);
  EXPECT_NEAR(row.rate_per_cycle(pmc::Preset::PRF_DM), 8e7 / 2e9, 1e-15);
}

TEST(Dataset, RateOfMissingCounterThrows) {
  const DataRow row = make_row("x", workloads::Suite::Roco2, 2.0, 8, 100);
  EXPECT_THROW(row.rate_per_cycle(pmc::Preset::BR_MSP), InvalidArgument);
  EXPECT_FALSE(row.has(pmc::Preset::BR_MSP));
}

TEST(Dataset, FiltersBySuite) {
  const Dataset ds = small_dataset();
  EXPECT_EQ(ds.filter_suite(workloads::Suite::Roco2).size(), 2u);
  EXPECT_EQ(ds.filter_suite(workloads::Suite::SpecOmp).size(), 2u);
}

TEST(Dataset, FiltersByFrequency) {
  const Dataset ds = small_dataset();
  EXPECT_EQ(ds.filter_frequency(2.4).size(), 3u);
  EXPECT_EQ(ds.filter_frequency(1.2).size(), 1u);
  EXPECT_EQ(ds.filter_frequency(3.0).size(), 0u);
}

TEST(Dataset, FiltersByWorkloadNames) {
  const Dataset ds = small_dataset();
  EXPECT_EQ(ds.filter_workloads({"compute"}).size(), 2u);
  EXPECT_EQ(ds.exclude_workloads({"compute"}).size(), 2u);
  EXPECT_EQ(ds.filter_workloads({"md", "swim"}).size(), 2u);
}

TEST(Dataset, SelectRowsPreservesOrderAndValidates) {
  const Dataset ds = small_dataset();
  const Dataset sub = ds.select_rows({3, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.rows()[0].workload, "swim");
  EXPECT_EQ(sub.rows()[1].workload, "compute");
  EXPECT_THROW(ds.select_rows({9}), InvalidArgument);
}

TEST(Dataset, WorkloadNamesAndGroups) {
  const Dataset ds = small_dataset();
  const auto names = ds.workload_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "compute");
  const auto groups = ds.workload_groups();
  EXPECT_EQ(groups[0], groups[1]);  // both compute rows share the group
  EXPECT_NE(groups[0], groups[2]);
}

TEST(Dataset, EventRateMatrixShapeAndValues) {
  const Dataset ds = small_dataset();
  const la::Matrix x = ds.event_rate_matrix({pmc::Preset::TOT_CYC, pmc::Preset::PRF_DM});
  EXPECT_EQ(x.rows(), 4u);
  EXPECT_EQ(x.cols(), 2u);
  EXPECT_NEAR(x(0, 0), 4.0, 1e-12);  // compute @ 2.4 GHz, 4 threads
}

TEST(Dataset, PowerVoltageFrequencyVectors) {
  const Dataset ds = small_dataset();
  EXPECT_EQ(ds.power().size(), 4u);
  EXPECT_DOUBLE_EQ(ds.power()[2], 170.0);
  EXPECT_DOUBLE_EQ(ds.voltage()[0], 0.9);
  EXPECT_DOUBLE_EQ(ds.frequency_ghz()[1], 1.2);
}

TEST(Dataset, CommonPresetsIntersection) {
  Dataset ds = small_dataset();
  DataRow extra = make_row("nab", workloads::Suite::SpecOmp, 2.4, 24, 140);
  extra.counter_rates.erase(pmc::Preset::PRF_DM);
  ds.append(extra);
  const auto common = ds.common_presets();
  EXPECT_EQ(common.size(), 1u);
  EXPECT_EQ(common[0], pmc::Preset::TOT_CYC);
}

// ---------------------------------------------------------------- campaign

TEST(Campaign, MergesAllRequestedCountersAcrossRuns) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  CampaignConfig cfg = standard_campaign_config({2.4});
  cfg.workloads = {workloads::roco2_suite()[2]};  // compute
  cfg.scalable_thread_counts = {4};
  const Dataset ds = run_campaign(engine, cfg);
  ASSERT_EQ(ds.size(), 1u);
  const DataRow& row = ds.rows()[0];
  EXPECT_EQ(row.counter_rates.size(), 54u);
  // One run per event group.
  EXPECT_EQ(row.runs_merged, pmc::runs_required(cfg.events, cfg.budget));
}

TEST(Campaign, RowKeysMatchConfiguration) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  CampaignConfig cfg = standard_campaign_config({1.6, 2.4});
  cfg.workloads = {workloads::roco2_suite()[2]};
  cfg.scalable_thread_counts = {2, 8};
  const Dataset ds = run_campaign(engine, cfg);
  EXPECT_EQ(ds.size(), 4u);  // 2 freqs x 2 thread counts
  std::set<std::pair<double, std::size_t>> keys;
  for (const DataRow& row : ds.rows()) {
    keys.insert({row.frequency_ghz, row.threads});
    EXPECT_EQ(row.workload, "compute");
    EXPECT_GT(row.avg_power_watts, 30.0);
    EXPECT_GT(row.avg_voltage, 0.5);
  }
  EXPECT_EQ(keys.size(), 4u);
}

TEST(Campaign, SpecWorkloadsIgnoreThreadSweep) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  CampaignConfig cfg = standard_campaign_config({2.4});
  cfg.workloads = {workloads::spec_omp2012_suite()[1]};  // bwaves, single phase
  cfg.scalable_thread_counts = {1, 2, 4};
  const Dataset ds = run_campaign(engine, cfg);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.rows()[0].threads, 24u);
}

TEST(Campaign, MultiPhaseWorkloadYieldsRowPerPhase) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  CampaignConfig cfg = standard_campaign_config({2.4});
  cfg.workloads = {*workloads::find_workload("md")};
  const Dataset ds = run_campaign(engine, cfg);
  EXPECT_EQ(ds.size(), 2u);  // force + neighbour phases
  EXPECT_EQ(ds.rows()[0].workload, "md");
  EXPECT_NE(ds.rows()[0].phase, ds.rows()[1].phase);
}

TEST(Campaign, DeterministicForSameSeed) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  CampaignConfig cfg = standard_campaign_config({2.4});
  cfg.workloads = {workloads::roco2_suite()[1]};
  cfg.scalable_thread_counts = {8};
  const Dataset a = run_campaign(engine, cfg);
  const Dataset b = run_campaign(engine, cfg);
  EXPECT_DOUBLE_EQ(a.rows()[0].avg_power_watts, b.rows()[0].avg_power_watts);
  EXPECT_EQ(a.rows()[0].counter_rates, b.rows()[0].counter_rates);
}

TEST(Campaign, SeedChangesMeasurementNoise) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  CampaignConfig cfg = standard_campaign_config({2.4});
  cfg.workloads = {workloads::roco2_suite()[1]};
  cfg.scalable_thread_counts = {8};
  const Dataset a = run_campaign(engine, cfg);
  cfg.seed = 999;
  const Dataset b = run_campaign(engine, cfg);
  EXPECT_NE(a.rows()[0].avg_power_watts, b.rows()[0].avg_power_watts);
  // But only by noise, not systematically.
  EXPECT_NEAR(a.rows()[0].avg_power_watts / b.rows()[0].avg_power_watts, 1.0, 0.05);
}

TEST(Campaign, RejectsEmptyConfigs) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  CampaignConfig cfg;
  EXPECT_THROW(run_campaign(engine, cfg), InvalidArgument);
  cfg = standard_campaign_config({});
  cfg.workloads = workloads::roco2_suite();
  EXPECT_THROW(run_campaign(engine, cfg), InvalidArgument);
}

TEST(Campaign, StandardDatasetsAreCachedAndConsistent) {
  const Dataset& a = standard_selection_dataset();
  const Dataset& b = standard_selection_dataset();
  EXPECT_EQ(&a, &b);  // same object: acquired once
  EXPECT_GT(a.size(), 50u);
  // All rows at the selection frequency.
  for (const DataRow& row : a.rows()) {
    EXPECT_DOUBLE_EQ(row.frequency_ghz, 2.4);
  }
  const Dataset& train = standard_training_dataset();
  std::set<double> freqs;
  for (const DataRow& row : train.rows()) {
    freqs.insert(row.frequency_ghz);
  }
  EXPECT_EQ(freqs.size(), 5u);  // the paper's five DVFS states
}

TEST(Campaign, IngestTraceFilesMergesMultiplexedRuns) {
  // Two runs of the same configuration, each recording a different event
  // group — the multiplexed-acquisition layout ingest_trace_files reduces.
  const sim::Engine engine = sim::Engine::haswell_ep();
  const auto dir = test::scratch_path("pwx_acquire_ingest_test");
  std::filesystem::create_directories(dir);
  const std::vector<pmc::Preset> groups[2] = {
      {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS},
      {pmc::Preset::PRF_DM, pmc::Preset::BR_MSP}};
  std::vector<std::string> paths;
  for (int i = 0; i < 2; ++i) {
    sim::RunConfig rc;
    rc.interval_s = 0.25;
    rc.duration_scale = 0.1;
    rc.seed = 11 + i;
    const auto workload = workloads::find_workload("compute");
    const trace::Trace t =
        trace::build_standard_trace(engine.run(*workload, rc), groups[i]);
    paths.push_back((dir / ("run" + std::to_string(i) + ".otf2l")).string());
    trace::write_trace_file(t, paths.back());
  }

  const Dataset ds = ingest_trace_files(paths);
  ASSERT_EQ(ds.size(), 1u);
  const DataRow& row = ds.rows()[0];
  EXPECT_EQ(row.workload, "compute");
  EXPECT_EQ(row.suite, workloads::Suite::Roco2);  // registry lookup
  EXPECT_EQ(row.runs_merged, 2u);
  EXPECT_TRUE(row.has(pmc::Preset::TOT_CYC));
  EXPECT_TRUE(row.has(pmc::Preset::TOT_INS));
  EXPECT_TRUE(row.has(pmc::Preset::PRF_DM));
  EXPECT_TRUE(row.has(pmc::Preset::BR_MSP));
  EXPECT_GT(row.avg_power_watts, 0.0);
  EXPECT_TRUE(ds.quality().clean());
  EXPECT_EQ(ds.quality().sanitize.rows_checked, 1u);
}

TEST(Campaign, IngestTraceFilesOfEmptyPathListIsEmpty) {
  const Dataset ds = ingest_trace_files({});
  EXPECT_TRUE(ds.empty());
  EXPECT_TRUE(ds.quality().clean());
}

}  // namespace
}  // namespace pwx::acquire
