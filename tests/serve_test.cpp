// Self-healing serving: windowed drift detection, the guarded retrain
// pipeline with its gates and fault hooks, and the supervisor's end-to-end
// drift -> retrain -> validate -> hot-swap -> recover loop on a simulated
// power-regime shift.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "acquire/campaign.hpp"
#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "core/epoch.hpp"
#include "core/estimator.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "power/ground_truth.hpp"
#include "serve/drift.hpp"
#include "serve/refresh.hpp"
#include "serve/supervisor.hpp"
#include "sim/engine.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

#include "test_support.hpp"

namespace pwx::serve {
namespace {

[[maybe_unused]] const auto* const kScratchCleanup =
    test::remove_scratch_at_exit("pwx_serve_test");

// ------------------------------------------------------------ drift monitor

TEST(DriftMonitor, HealthyStreamNeverTriggers) {
  DriftConfig config;
  config.window_size = 8;
  config.trigger_windows = 2;
  DriftMonitor monitor(config);
  for (int i = 0; i < 100; ++i) {
    monitor.observe(100.0 + 0.5 * (i % 3), 100.0);
  }
  EXPECT_FALSE(monitor.retrain_due());
  EXPECT_EQ(monitor.windows_breached(), 0u);
  EXPECT_EQ(monitor.windows_closed(), 12u);
}

TEST(DriftMonitor, WindowStatsAreExact) {
  DriftConfig config;
  config.window_size = 4;
  config.max_mape_pct = 9.0;
  DriftMonitor monitor(config);
  monitor.observe(110.0, 100.0);  // +10%
  monitor.observe(90.0, 100.0);   // -10%
  monitor.observe(120.0, 100.0);  // +20%
  const auto window = monitor.observe(100.0, 100.0);  // 0%
  ASSERT_TRUE(window.has_value());
  EXPECT_NEAR(window->mape_pct, 10.0, 1e-12);
  EXPECT_NEAR(window->bias_watts, 5.0, 1e-12);  // (+10-10+20+0)/4
  EXPECT_EQ(window->residuals, 4u);
  EXPECT_TRUE(window->breached);  // MAPE 10% > 9% threshold
}

TEST(DriftMonitor, TriggerNeedsConsecutiveBreaches) {
  DriftConfig config;
  config.window_size = 4;
  config.max_mape_pct = 5.0;
  config.trigger_windows = 3;
  DriftMonitor monitor(config);

  const auto feed_window = [&](double error_pct) {
    for (std::size_t i = 0; i < config.window_size; ++i) {
      monitor.observe(100.0 * (1.0 + error_pct / 100.0), 100.0);
    }
  };

  // Two breaching windows, then a healthy one: the streak resets — one (or
  // even two) bad windows never flap the retrain pipeline.
  feed_window(20.0);
  feed_window(20.0);
  EXPECT_FALSE(monitor.retrain_due());
  EXPECT_EQ(monitor.consecutive_breaches(), 2u);
  feed_window(0.0);
  EXPECT_EQ(monitor.consecutive_breaches(), 0u);
  EXPECT_FALSE(monitor.retrain_due());

  // Three consecutive breaches raise the trigger.
  feed_window(20.0);
  feed_window(20.0);
  EXPECT_FALSE(monitor.retrain_due());
  feed_window(20.0);
  EXPECT_TRUE(monitor.retrain_due());
  EXPECT_EQ(monitor.triggers_raised(), 1u);
}

TEST(DriftMonitor, AcknowledgeStartsRearmGracePeriod) {
  DriftConfig config;
  config.window_size = 2;
  config.max_mape_pct = 5.0;
  config.trigger_windows = 2;
  config.rearm_windows = 2;
  DriftMonitor monitor(config);

  const auto feed_window = [&](double error_pct) {
    for (std::size_t i = 0; i < config.window_size; ++i) {
      monitor.observe(100.0 * (1.0 + error_pct / 100.0), 100.0);
    }
  };

  feed_window(20.0);
  feed_window(20.0);
  ASSERT_TRUE(monitor.retrain_due());
  monitor.acknowledge();
  EXPECT_FALSE(monitor.retrain_due());
  EXPECT_EQ(monitor.rearm_remaining(), 2u);

  // Breaches during rearm must not re-trigger (the fresh model's grace
  // period) and must not reset the countdown.
  feed_window(20.0);
  feed_window(20.0);
  EXPECT_FALSE(monitor.retrain_due());
  EXPECT_EQ(monitor.rearm_remaining(), 2u);

  // Two healthy windows complete the rearm; breaches count again.
  feed_window(0.0);
  feed_window(0.0);
  EXPECT_EQ(monitor.rearm_remaining(), 0u);
  feed_window(20.0);
  feed_window(20.0);
  EXPECT_TRUE(monitor.retrain_due());
  EXPECT_EQ(monitor.triggers_raised(), 2u);
}

TEST(DriftMonitor, InvalidFractionBreachesWithoutReferencePower) {
  DriftConfig config;
  config.window_size = 8;
  config.trigger_windows = 1;
  DriftMonitor monitor(config);

  // Half the guarded-path observations are invalid; close the health-only
  // window explicitly.
  for (int i = 0; i < 8; ++i) {
    monitor.observe_health(/*invalid=*/i % 2 == 0, /*clamped=*/false);
  }
  const auto window = monitor.close_window();
  ASSERT_TRUE(window.has_value());
  EXPECT_NEAR(window->invalid_fraction, 0.5, 1e-12);
  EXPECT_TRUE(window->breached);
  EXPECT_TRUE(monitor.retrain_due());
}

TEST(DriftMonitor, NonFiniteObservationsCountAsInvalid) {
  DriftConfig config;
  config.window_size = 4;
  config.trigger_windows = 1;
  DriftMonitor monitor(config);
  monitor.observe(std::nan(""), 100.0);
  monitor.observe(100.0, 0.0);  // reference too small for a relative error
  monitor.observe(100.0, 100.0);
  const auto window = monitor.observe(100.0, 100.0);
  ASSERT_TRUE(window.has_value());
  EXPECT_GT(window->invalid_fraction, 0.2);
  EXPECT_TRUE(window->breached);
}

// --------------------------------------------------------- corpus fixtures

const std::vector<pmc::Preset> kGroup{pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS,
                                      pmc::Preset::PRF_DM, pmc::Preset::BR_MSP};

/// A simulated power-regime shift: same counters, noticeably more power
/// (higher switching energy + extra uncore static draw), as a DVFS/firmware
/// change would produce. The incumbent model keeps seeing familiar samples
/// but its estimates run low — exactly the drift the monitor must catch.
sim::Engine drifted_engine(std::uint64_t machine_seed = 0x5eed) {
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
                     power::SensorSpec{}, machine_seed);
}

/// Record a small calibration corpus for `engine` into `dir`; one trace per
/// (workload, frequency, threads) configuration, all of kGroup in one group.
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

std::filesystem::path corpus_root() { return test::scratch_path("pwx_serve_test"); }

/// Baseline-corpus paths (created once per process).
const std::vector<std::string>& baseline_corpus() {
  static const std::vector<std::string> paths =
      write_corpus(sim::Engine::haswell_ep(), corpus_root() / "baseline", 100);
  return paths;
}

/// Drifted-regime corpus paths (created once per process).
const std::vector<std::string>& drifted_corpus() {
  static const std::vector<std::string> paths =
      write_corpus(drifted_engine(), corpus_root() / "drifted", 200);
  return paths;
}

/// Train a model on a recorded corpus (selection + fit, as refresh does).
core::PowerModel train_on_corpus(const std::vector<std::string>& paths,
                                 std::size_t event_count = 3) {
  const acquire::Dataset dataset = acquire::ingest_trace_files(paths);
  core::SelectionOptions selection;
  selection.count = event_count;
  const core::SelectionResult selected =
      core::select_events(dataset, dataset.common_presets(), selection);
  core::FeatureSpec spec;
  spec.events = selected.selected();
  return core::train_model(dataset, spec);
}

RefreshConfig drifted_refresh_config() {
  RefreshConfig config;
  config.trace_paths = drifted_corpus();
  config.event_count = 3;
  config.max_holdout_mape_pct = 15.0;
  config.max_mape_regression_pct = 1.0;
  return config;
}

// ------------------------------------------------------------ split_holdout

TEST(SplitHoldout, DeterministicDisjointAndComplete) {
  const acquire::Dataset dataset = acquire::ingest_trace_files(baseline_corpus());
  ASSERT_GE(dataset.size(), 8u);
  const acquire::HoldoutSplit a =
      acquire::split_holdout(dataset, 0.25, 0xBEEF);
  const acquire::HoldoutSplit b =
      acquire::split_holdout(dataset, 0.25, 0xBEEF);
  EXPECT_EQ(a.train.size() + a.holdout.size(), dataset.size());
  EXPECT_FALSE(a.train.empty());
  EXPECT_FALSE(a.holdout.empty());
  // Same seed -> identical split; different seed -> (almost surely) different.
  ASSERT_EQ(a.holdout.size(), b.holdout.size());
  for (std::size_t i = 0; i < a.holdout.size(); ++i) {
    EXPECT_EQ(a.holdout.rows()[i].workload, b.holdout.rows()[i].workload);
    EXPECT_DOUBLE_EQ(a.holdout.rows()[i].avg_power_watts,
                     b.holdout.rows()[i].avg_power_watts);
  }
  EXPECT_THROW(acquire::split_holdout(dataset, 0.0, 1), Error);
  EXPECT_THROW(acquire::split_holdout(dataset, 1.0, 1), Error);
}

// ------------------------------------------------------------ refresh_model

TEST(RefreshModel, PublishesValidatedCandidateAfterRegimeShift) {
  // Incumbent trained on the baseline regime; corpus from the drifted one.
  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));
  const RefreshReport report = refresh_model(epoch, drifted_refresh_config());
  EXPECT_EQ(report.status, RefreshStatus::Published)
      << report.detail;
  EXPECT_EQ(report.incumbent_generation, 1u);
  EXPECT_EQ(report.published_generation, 2u);
  EXPECT_EQ(epoch.generation(), 2u);
  EXPECT_EQ(report.selected_events.size(), 3u);
  // On the drifted holdout the retrained candidate must beat the stale
  // incumbent decisively.
  EXPECT_LT(report.candidate_holdout_mape_pct,
            report.incumbent_holdout_mape_pct);
  EXPECT_LT(report.candidate_holdout_mape_pct, 15.0);
}

TEST(RefreshModel, ValidationCeilingRejectsAndRollsBack) {
  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));
  RefreshConfig config = drifted_refresh_config();
  config.max_holdout_mape_pct = 1e-6;  // nothing can pass this ceiling
  const RefreshReport report = refresh_model(epoch, config);
  EXPECT_EQ(report.status, RefreshStatus::RejectedValidation);
  // Rollback = the epoch was never touched.
  EXPECT_EQ(epoch.generation(), 1u);
  EXPECT_EQ(report.published_generation, 0u);
}

TEST(RefreshModel, EmptyCorpusFailsCleanly) {
  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));
  RefreshConfig config;
  const RefreshReport report = refresh_model(epoch, config);
  EXPECT_EQ(report.status, RefreshStatus::Failed);
  EXPECT_EQ(epoch.generation(), 1u);
}

TEST(RefreshModel, TruncatedCandidateFaultIsCaughtByPlausibilityGate) {
  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));
  const fault::FaultInjector injector(fault::FaultPlan::single(
      fault::FaultKind::TruncatedCandidate, 1.0, 0xFA17));
  RefreshConfig config = drifted_refresh_config();
  config.injector = &injector;
  const RefreshReport report = refresh_model(epoch, config);
  EXPECT_EQ(report.status, RefreshStatus::RejectedImplausible)
      << report.detail;
  EXPECT_EQ(epoch.generation(), 1u);
}

TEST(RefreshModel, ValidationTimeoutFaultRejectsWithoutPublishing) {
  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));
  const fault::FaultInjector injector(fault::FaultPlan::single(
      fault::FaultKind::ValidationTimeout, 1.0, 0xFA17));
  RefreshConfig config = drifted_refresh_config();
  config.injector = &injector;
  const RefreshReport report = refresh_model(epoch, config);
  EXPECT_EQ(report.status, RefreshStatus::RejectedTimeout);
  EXPECT_EQ(epoch.generation(), 1u);
}

TEST(RefreshModel, StaleLayoutPublishFaultIsRejectedByGenerationGuard) {
  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus()));
  epoch.publish(train_on_corpus(baseline_corpus()));  // generation 2
  const fault::FaultInjector injector(fault::FaultPlan::single(
      fault::FaultKind::StaleLayoutPublish, 1.0, 0xFA17));
  RefreshConfig config = drifted_refresh_config();
  config.injector = &injector;
  const RefreshReport report = refresh_model(epoch, config);
  EXPECT_EQ(report.status, RefreshStatus::RejectedStale);
  EXPECT_EQ(epoch.generation(), 2u);  // the good publication survives
}

// ------------------------------------------------- end-to-end self-healing

/// Serve every corpus row through the epoch-bound estimator and feed the
/// supervisor; returns the refresh report if one ran and the mean absolute
/// percent error over the pass.
struct ServePass {
  std::optional<RefreshReport> report;
  double mape_pct = 0.0;
};

ServePass serve_rows(Supervisor& supervisor, core::OnlineEstimator& estimator,
                     const acquire::Dataset& rows, std::size_t repeats) {
  ServePass pass;
  double abs_pct_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const acquire::DataRow& row : rows.rows()) {
      core::CounterSample sample;
      sample.elapsed_s = row.elapsed_s;
      sample.frequency_ghz = row.frequency_ghz;
      sample.voltage = row.avg_voltage;
      for (const auto& [preset, rate] : row.counter_rates) {
        sample.counts[preset] = rate * row.elapsed_s;
      }
      const double estimate = estimator.estimate_guarded(sample);
      abs_pct_sum += std::fabs(estimate - row.avg_power_watts) /
                     row.avg_power_watts;
      ++n;
      auto report = supervisor.observe(estimate, row.avg_power_watts);
      if (report && !pass.report) {
        pass.report = std::move(report);
      }
    }
  }
  pass.mape_pct = 100.0 * abs_pct_sum / static_cast<double>(n);
  return pass;
}

TEST(Supervisor, DriftTriggersRetrainHotSwapAndRecovery) {
  obs::set_enabled(true);
  obs::registry().reset_values();

  // The incumbent was trained before the regime shift; serving now sees the
  // drifted machine's samples and reference power.
  auto epoch =
      std::make_shared<core::LayoutEpoch>(train_on_corpus(baseline_corpus()));
  core::OnlineEstimator estimator(epoch);

  const acquire::Dataset drifted_rows =
      acquire::ingest_trace_files(drifted_corpus());
  ASSERT_GE(drifted_rows.size(), 8u);

  SupervisorConfig config;
  config.drift.window_size = drifted_rows.size();
  config.drift.max_mape_pct = 8.0;
  config.drift.trigger_windows = 2;
  config.drift.rearm_windows = 1;
  config.refresh = drifted_refresh_config();
  Supervisor supervisor(epoch, config);

  // Pass 1: the stale incumbent serves the drifted regime. Windowed MAPE
  // breaches, the trigger fires after two windows, the supervisor retrains
  // from the drifted corpus, the candidate passes the gate and is published.
  const ServePass degraded = serve_rows(supervisor, estimator, drifted_rows, 3);
  ASSERT_TRUE(degraded.report.has_value());
  EXPECT_EQ(degraded.report->status, RefreshStatus::Published)
      << degraded.report->detail;
  EXPECT_GT(degraded.mape_pct, config.drift.max_mape_pct);
  EXPECT_EQ(supervisor.refreshes_published(), 1u);
  EXPECT_EQ(epoch->generation(), 2u);

  // Pass 2: the estimator has hot-swapped to the retrained model; accuracy
  // recovers well below the drift threshold and no further retrain runs.
  const ServePass recovered = serve_rows(supervisor, estimator, drifted_rows, 3);
  EXPECT_EQ(estimator.generation(), 2u);
  EXPECT_LT(recovered.mape_pct, config.drift.max_mape_pct);
  EXPECT_LT(recovered.mape_pct, degraded.mape_pct / 2.0);
  EXPECT_FALSE(recovered.report.has_value());
  EXPECT_EQ(supervisor.refreshes_published(), 1u);

  // The whole lifecycle is witnessed by the serve.* counters.
  const obs::MetricsSnapshot serve_metrics =
      obs::registry().snapshot().filtered("serve.");
  ASSERT_NE(serve_metrics.find("serve.drift_triggers"), nullptr);
  EXPECT_GE(serve_metrics.find("serve.drift_triggers")->counter, 1u);
  ASSERT_NE(serve_metrics.find("serve.refresh_published"), nullptr);
  EXPECT_GE(serve_metrics.find("serve.refresh_published")->counter, 1u);
  ASSERT_NE(serve_metrics.find("serve.generation"), nullptr);
  EXPECT_DOUBLE_EQ(serve_metrics.find("serve.generation")->gauge, 2.0);
  // filtered() keeps only the prefix.
  for (const obs::MetricValue& value : serve_metrics.values) {
    EXPECT_EQ(value.name.rfind("serve.", 0), 0u) << value.name;
  }
  obs::set_enabled(false);
}

TEST(Supervisor, SabotagedCandidateIsRejectedWithoutDisturbingServing) {
  auto epoch =
      std::make_shared<core::LayoutEpoch>(train_on_corpus(baseline_corpus()));
  core::OnlineEstimator estimator(epoch);
  const acquire::Dataset drifted_rows =
      acquire::ingest_trace_files(drifted_corpus());

  // Every refresh attempt produces a truncated (sabotaged) candidate.
  const fault::FaultInjector injector(fault::FaultPlan::single(
      fault::FaultKind::TruncatedCandidate, 1.0, 0xBAD));
  SupervisorConfig config;
  config.drift.window_size = drifted_rows.size();
  config.drift.max_mape_pct = 8.0;
  config.drift.trigger_windows = 2;
  config.drift.rearm_windows = 1;
  config.refresh = drifted_refresh_config();
  config.refresh.injector = &injector;
  config.max_consecutive_rejects = 2;
  Supervisor supervisor(epoch, config);

  const ServePass pass = serve_rows(supervisor, estimator, drifted_rows, 12);
  ASSERT_TRUE(pass.report.has_value());
  EXPECT_EQ(pass.report->status, RefreshStatus::RejectedImplausible);
  // Serving was never disturbed: the incumbent generation still serves and
  // every estimate stayed finite.
  EXPECT_EQ(epoch->generation(), 1u);
  EXPECT_EQ(estimator.generation(), 1u);
  EXPECT_EQ(supervisor.refreshes_published(), 0u);
  EXPECT_GE(supervisor.refreshes_run(), 1u);
  // The reject backoff caps retrain attempts even though drift persists.
  EXPECT_LE(supervisor.refreshes_run(), config.max_consecutive_rejects);
  EXPECT_EQ(supervisor.consecutive_rejects(), supervisor.refreshes_run());
  for (const RefreshReport& report : supervisor.history()) {
    EXPECT_NE(report.status, RefreshStatus::Published);
  }
}

TEST(Supervisor, RefreshNowPublishesOnOperatorOverride) {
  auto epoch =
      std::make_shared<core::LayoutEpoch>(train_on_corpus(baseline_corpus()));
  SupervisorConfig config;
  config.refresh = drifted_refresh_config();
  Supervisor supervisor(epoch, config);
  const RefreshReport report = supervisor.refresh_now();
  EXPECT_EQ(report.status, RefreshStatus::Published) << report.detail;
  EXPECT_EQ(epoch->generation(), 2u);
  EXPECT_EQ(supervisor.refreshes_published(), 1u);
}

}  // namespace
}  // namespace pwx::serve
