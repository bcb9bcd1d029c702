// Tests for the fault-injection subsystem and every hardened consumer:
// deterministic injector decisions, the counter-source decorators, campaign
// retry/quarantine, dataset sanitization, and estimator degradation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "acquire/campaign.hpp"
#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/model.hpp"
#include "core/robust_source.hpp"
#include "fault/fault.hpp"
#include "fault/inject.hpp"
#include "host/faulty_source.hpp"
#include "host/sim_source.hpp"
#include "sim/engine.hpp"
#include "workloads/registry.hpp"

namespace pwx {
namespace {

using core::CounterSample;
using core::HealthState;
using fault::FaultKind;
using fault::FaultPlan;

// ---------------------------------------------------------------- injector

TEST(FaultInjector, SameKeySameDecision) {
  const FaultPlan plan = FaultPlan::single(FaultKind::DropSample, 0.5, 42);
  const fault::FaultInjector a(plan);
  const fault::FaultInjector b(plan);
  for (std::uint64_t i = 0; i < 512; ++i) {
    EXPECT_EQ(a.fires(FaultKind::DropSample, "site", i),
              b.fires(FaultKind::DropSample, "site", i));
    EXPECT_DOUBLE_EQ(a.draw(FaultKind::DropSample, "site", i),
                     b.draw(FaultKind::DropSample, "site", i));
  }
}

TEST(FaultInjector, ProbabilityEndpoints) {
  const fault::FaultInjector never(FaultPlan::single(FaultKind::NanDelta, 0.0, 7));
  const fault::FaultInjector always(FaultPlan::single(FaultKind::NanDelta, 1.0, 7));
  for (std::uint64_t i = 0; i < 256; ++i) {
    EXPECT_FALSE(never.fires(FaultKind::NanDelta, "s", i));
    EXPECT_TRUE(always.fires(FaultKind::NanDelta, "s", i));
  }
}

TEST(FaultInjector, FiringRateTracksProbability) {
  const fault::FaultInjector inj(FaultPlan::single(FaultKind::DropSample, 0.3, 11));
  std::size_t fired = 0;
  const std::size_t n = 20000;
  for (std::uint64_t i = 0; i < n; ++i) {
    fired += inj.fires(FaultKind::DropSample, "rate", i);
  }
  EXPECT_NEAR(static_cast<double>(fired) / static_cast<double>(n), 0.3, 0.02);
}

TEST(FaultInjector, SitesDrawIndependentSchedules) {
  const fault::FaultInjector inj(FaultPlan::single(FaultKind::DropSample, 0.5, 3));
  bool any_diff = false;
  for (std::uint64_t i = 0; i < 64 && !any_diff; ++i) {
    any_diff = inj.fires(FaultKind::DropSample, "alpha", i) !=
               inj.fires(FaultKind::DropSample, "beta", i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjector, UnarmedKindNeverFires) {
  const fault::FaultInjector inj(FaultPlan::single(FaultKind::DropSample, 1.0, 4));
  EXPECT_FALSE(inj.fires(FaultKind::PowerSpike, "s", 0));
  EXPECT_DOUBLE_EQ(inj.plan().armed_probability(FaultKind::PowerSpike), 0.0);
}

// ---------------------------------------------------------------- run faults

sim::RunResult small_run(std::uint64_t seed = 5) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.1;
  rc.seed = seed;
  return engine.run(*workloads::find_workload("compute"), rc);
}

TEST(RunFaults, ApplyIsDeterministic) {
  const fault::FaultInjector inj(FaultPlan::escalating(77, 5.0));
  sim::RunResult a = small_run();
  sim::RunResult b = small_run();
  const auto ra = fault::apply_run_faults(inj, "same-site", a);
  const auto rb = fault::apply_run_faults(inj, "same-site", b);
  EXPECT_EQ(ra.injected, rb.injected);
  EXPECT_EQ(ra.flagged, rb.flagged);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].measured_power_watts, b.intervals[i].measured_power_watts);
    EXPECT_EQ(std::memcmp(&a.intervals[i].counts, &b.intervals[i].counts,
                          sizeof a.intervals[i].counts),
              0);
  }
}

TEST(RunFaults, TruncateRunIsFlaggedAndShortens) {
  const fault::FaultInjector inj(FaultPlan::single(FaultKind::TruncateRun, 1.0, 2));
  sim::RunResult run = small_run();
  const std::size_t before = run.intervals.size();
  const auto report = fault::apply_run_faults(inj, "s", run);
  EXPECT_TRUE(report.flagged);
  EXPECT_LT(run.intervals.size(), before);
  EXPECT_GE(report.injected.count("truncate_run"), 1u);
}

TEST(RunFaults, CorruptSerializedAlwaysFlags) {
  const fault::FaultInjector inj(FaultPlan::single(FaultKind::CorruptTraceByte, 1.0, 6));
  std::string bytes(512, 'x');
  const std::string original = bytes;
  const auto report = fault::corrupt_serialized(inj, "s", bytes);
  EXPECT_TRUE(report.flagged);
  EXPECT_NE(bytes, original);
}

// ---------------------------------------------------------------- test doubles

CounterSample good_sample(double cycles = 1.0e9) {
  CounterSample sample;
  sample.elapsed_s = 0.25;
  sample.frequency_ghz = 2.4;
  sample.voltage = 0.9;
  sample.counts[pmc::Preset::TOT_CYC] = cycles;
  return sample;
}

/// Replays a fixed sample script, then throws on every further read.
class ScriptedSource final : public core::CounterSource {
public:
  explicit ScriptedSource(std::vector<CounterSample> samples)
      : samples_(std::move(samples)) {}

  std::vector<pmc::Preset> available_events() const override {
    return {pmc::Preset::TOT_CYC};
  }
  void start(const std::vector<pmc::Preset>&) override {}
  std::optional<CounterSample> read() override {
    if (index_ < samples_.size()) {
      return samples_[index_++];
    }
    throw Error("scripted source exhausted", ErrorCode::Unavailable);
  }

private:
  std::vector<CounterSample> samples_;
  std::size_t index_ = 0;
};

/// Fails start() a fixed number of times, then delegates.
class FlakyStartSource final : public core::CounterSource {
public:
  FlakyStartSource(core::CounterSource& inner, std::size_t failures)
      : inner_(inner), failures_left_(failures) {}

  std::vector<pmc::Preset> available_events() const override {
    return inner_.available_events();
  }
  void start(const std::vector<pmc::Preset>& events) override {
    if (failures_left_ > 0) {
      failures_left_ -= 1;
      throw Error("PMU busy", ErrorCode::Unavailable);
    }
    inner_.start(events);
  }
  std::optional<CounterSample> read() override { return inner_.read(); }

private:
  core::CounterSource& inner_;
  std::size_t failures_left_;
};

// ---------------------------------------------------------------- robust source

TEST(RobustSource, CorrectsCounterOverflow) {
  const double wrap = 281474976710656.0;  // 2^48
  CounterSample wrapped = good_sample(5.0e8 - wrap);
  ScriptedSource inner({wrapped});
  core::RobustCounterSource robust(inner);
  robust.start({pmc::Preset::TOT_CYC});
  const auto sample = robust.read();
  ASSERT_TRUE(sample.has_value());
  EXPECT_NEAR(sample->counts.at(pmc::Preset::TOT_CYC), 5.0e8, 1.0);
  EXPECT_EQ(robust.stats().overflow_corrections, 1u);
  EXPECT_EQ(robust.health(), HealthState::Ok);
}

TEST(RobustSource, DiscardsInvalidSamplesAndRecovers) {
  CounterSample nan_sample = good_sample();
  nan_sample.counts[pmc::Preset::TOT_CYC] = std::numeric_limits<double>::quiet_NaN();
  ScriptedSource inner(
      {good_sample(), nan_sample, good_sample(), good_sample(), good_sample()});
  core::RobustCounterSource robust(inner);
  robust.start({pmc::Preset::TOT_CYC});

  ASSERT_TRUE(robust.read().has_value());
  EXPECT_EQ(robust.health(), HealthState::Ok);
  // The NaN sample is discarded and the next good one delivered in the same
  // call; health degrades until a clean streak restores it.
  ASSERT_TRUE(robust.read().has_value());
  EXPECT_EQ(robust.health(), HealthState::Degraded);
  EXPECT_EQ(robust.stats().invalid_samples, 1u);
  ASSERT_TRUE(robust.read().has_value());
  EXPECT_EQ(robust.health(), HealthState::Degraded);
  ASSERT_TRUE(robust.read().has_value());
  EXPECT_EQ(robust.health(), HealthState::Ok);  // kRecoverStreak = 3
}

TEST(RobustSource, HoldsLastGoodThenFails) {
  ScriptedSource inner({good_sample()});
  core::RobustCounterSource robust(inner);
  robust.start({pmc::Preset::TOT_CYC});

  const auto first = robust.read();
  ASSERT_TRUE(first.has_value());
  // Every underlying read now throws: the retry budget exhausts, the last
  // good sample is re-served once, then the source reports FAILED.
  const auto held = robust.read();
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->counts.at(pmc::Preset::TOT_CYC),
            first->counts.at(pmc::Preset::TOT_CYC));
  EXPECT_EQ(robust.health(), HealthState::Degraded);
  EXPECT_EQ(robust.stats().held_samples, 1u);

  EXPECT_FALSE(robust.read().has_value());
  EXPECT_EQ(robust.health(), HealthState::Failed);
  EXPECT_FALSE(robust.read().has_value());  // FAILED is terminal
}

TEST(RobustSource, FailsImmediatelyWithoutAnyGoodSample) {
  ScriptedSource inner({});
  core::RobustCounterSource robust(inner);
  robust.start({pmc::Preset::TOT_CYC});
  EXPECT_FALSE(robust.read().has_value());
  EXPECT_EQ(robust.health(), HealthState::Failed);
}

TEST(RobustSource, RetriesTransientStartFailure) {
  ScriptedSource inner({good_sample()});
  FlakyStartSource flaky(inner, 2);
  core::RobustCounterSource robust(flaky);
  robust.start({pmc::Preset::TOT_CYC});  // succeeds on the third attempt
  EXPECT_EQ(robust.stats().start_retries, 2u);
  EXPECT_EQ(robust.health(), HealthState::Ok);
  EXPECT_TRUE(robust.read().has_value());
}

TEST(RobustSource, StartGivesUpAfterBudgetWithContext) {
  ScriptedSource inner({});
  FlakyStartSource flaky(inner, 100);
  core::RobustCounterSource robust(flaky);
  try {
    robust.start({pmc::Preset::TOT_CYC});
    FAIL() << "start must rethrow after the attempt budget";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Unavailable);  // context keeps the code
    EXPECT_NE(std::string(e.what()).find("after 4 attempts"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("PMU busy"), std::string::npos);
  }
  EXPECT_EQ(robust.health(), HealthState::Failed);
}

TEST(RobustSource, FaultySourceStreamStaysStructurallyValid) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.2;
  rc.seed = 13;
  host::SimulatedCounterSource sim_source(engine, *workloads::find_workload("compute"),
                                          rc);
  // This plan fails the first start attempt only, within kStartAttempts.
  host::FaultyCounterSource chaos(sim_source, FaultPlan::escalating(21, 3.0));
  core::RobustCounterSource robust(chaos);
  robust.start({pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS});
  std::size_t delivered = 0;
  while (const auto sample = robust.read()) {
    delivered += 1;
    EXPECT_TRUE(std::isfinite(sample->voltage));
    EXPECT_GT(sample->voltage, 0.0);
    EXPECT_GT(sample->elapsed_s, 0.0);
    for (const auto& [preset, count] : sample->counts) {
      EXPECT_TRUE(std::isfinite(count)) << pmc::preset_name(preset);
      EXPECT_GE(count, 0.0) << pmc::preset_name(preset);
    }
  }
  EXPECT_GT(delivered, 0u);
}

// ---------------------------------------------------------------- estimator

/// Synthetic dataset whose power is exactly Eq.1-representable (mirrors the
/// core_test helper).
acquire::Dataset exact_dataset(std::size_t n = 48) {
  Rng rng(9);
  acquire::Dataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    acquire::DataRow row;
    row.workload = "w" + std::to_string(i % 5);
    row.phase = "main";
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.threads = 1 + (i % 24);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double e1 = rng.uniform(0.1, 2.0);
    const double e2 = rng.uniform(0.0, 5.0);
    row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
    row.counter_rates[pmc::Preset::TOT_CYC] = e2 * row.frequency_ghz * 1e9;
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    row.avg_power_watts =
        20.0 * e1 * v2f + 5.0 * e2 * v2f + 8.0 * v2f + 12.0 * row.avg_voltage + 6.0;
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  return ds;
}

core::PowerModel exact_model() {
  core::FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  return core::train_model(exact_dataset(), spec);
}

CounterSample model_sample() {
  CounterSample sample;
  sample.elapsed_s = 1.0;
  sample.frequency_ghz = 2.4;
  sample.voltage = 0.9;
  sample.counts[pmc::Preset::PRF_DM] = 1.0e9;
  sample.counts[pmc::Preset::TOT_CYC] = 4.0e9;
  return sample;
}

TEST(EstimatorGuarded, MatchesStrictPathOnValidSamples) {
  core::OnlineEstimator strict(exact_model());
  core::OnlineEstimator guarded(exact_model());
  const CounterSample sample = model_sample();
  EXPECT_DOUBLE_EQ(guarded.estimate_guarded(sample), strict.estimate(sample));
  EXPECT_EQ(guarded.health(), HealthState::Ok);
}

TEST(EstimatorGuarded, HoldsLastGoodOnInvalidAndDegrades) {
  core::OnlineEstimator estimator(exact_model());
  const double good = estimator.estimate_guarded(model_sample());

  CounterSample bad = model_sample();
  bad.elapsed_s = 0.0;
  EXPECT_DOUBLE_EQ(estimator.estimate_guarded(bad), good);
  EXPECT_EQ(estimator.health(), HealthState::Degraded);
  EXPECT_EQ(estimator.consecutive_invalid(), 1u);

  // A valid sample restores health immediately.
  EXPECT_DOUBLE_EQ(estimator.estimate_guarded(model_sample()), good);
  EXPECT_EQ(estimator.health(), HealthState::Ok);
  EXPECT_EQ(estimator.consecutive_invalid(), 0u);
}

TEST(EstimatorGuarded, FailsAfterStalenessBound) {
  core::OnlineEstimator estimator(exact_model());
  estimator.estimate_guarded(model_sample());
  CounterSample bad = model_sample();
  bad.voltage = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < core::kMaxConsecutiveInvalid; ++i) {
    estimator.estimate_guarded(bad);
    EXPECT_EQ(estimator.health(), HealthState::Degraded);
  }
  estimator.estimate_guarded(bad);
  EXPECT_EQ(estimator.health(), HealthState::Failed);
}

TEST(EstimatorGuarded, NeverEmitsInvalidPower) {
  core::OnlineEstimator estimator(exact_model());
  std::vector<CounterSample> hostile;
  hostile.push_back(model_sample());
  CounterSample s = model_sample();
  s.elapsed_s = 0.0;
  hostile.push_back(s);
  s = model_sample();
  s.voltage = -1.0;
  hostile.push_back(s);
  s = model_sample();
  s.counts[pmc::Preset::PRF_DM] = std::numeric_limits<double>::infinity();
  hostile.push_back(s);
  s = model_sample();
  s.counts.erase(pmc::Preset::TOT_CYC);
  hostile.push_back(s);
  s = model_sample();
  s.counts[pmc::Preset::TOT_CYC] = -5.0;
  hostile.push_back(s);
  s = model_sample();
  s.frequency_ghz = std::numeric_limits<double>::quiet_NaN();
  hostile.push_back(s);

  for (int round = 0; round < 3; ++round) {
    for (const CounterSample& sample : hostile) {
      const double watts = estimator.estimate_guarded(sample);
      EXPECT_TRUE(std::isfinite(watts));
      EXPECT_GE(watts, core::kMinWatts);
      EXPECT_LE(watts, core::kMaxWatts);
    }
  }
}

TEST(EstimatorGuarded, FaultInjectedStreamNeverYieldsInvalidEstimate) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.2;
  rc.seed = 31;
  host::SimulatedCounterSource sim_source(
      engine, *workloads::find_workload("memory_read"), rc);
  // Aggressive sensor/counter fault rates so a short run is guaranteed to
  // contain samples the estimator must reject.
  FaultPlan plan;
  plan.seed = 55;
  plan.specs.push_back({FaultKind::PowerDropout, 0.3, 1.0});
  plan.specs.push_back({FaultKind::NanDelta, 0.2, 1.0});
  plan.specs.push_back({FaultKind::ReadFailure, 0.1, 1.0});
  plan.specs.push_back({FaultKind::StartFailure, 0.3, 1.0});
  host::FaultyCounterSource chaos(sim_source, plan);
  core::OnlineEstimator estimator(exact_model());
  bool degraded_seen = false;
  for (std::size_t attempt = 0; attempt < 64; ++attempt) {
    try {
      chaos.start(estimator.required_events());
      break;
    } catch (const Error&) {
    }
  }
  for (;;) {
    std::optional<CounterSample> sample;
    try {
      sample = chaos.read();
    } catch (const Error&) {
      continue;  // injected read failure; the stream goes on
    }
    if (!sample.has_value()) {
      break;
    }
    const double watts = estimator.estimate_guarded(*sample);
    EXPECT_TRUE(std::isfinite(watts));
    EXPECT_GE(watts, 0.0);
    EXPECT_LE(watts, core::kMaxWatts);
    degraded_seen = degraded_seen || estimator.health() != HealthState::Ok;
  }
  // The escalated plan injects NaN/negative deltas, so the estimator must
  // have reported a degraded health transition at some point.
  EXPECT_TRUE(degraded_seen);
}

// ---------------------------------------------------------------- sanitization

TEST(Sanitize, DropsPoisonedRowsAndCounts) {
  acquire::Dataset ds = exact_dataset(4);
  acquire::DataRow bad_power = ds.rows()[0];
  bad_power.avg_power_watts = std::numeric_limits<double>::quiet_NaN();
  ds.append(bad_power);
  acquire::DataRow huge_power = ds.rows()[1];
  huge_power.avg_power_watts = 1.0e6;
  ds.append(huge_power);
  acquire::DataRow bad_voltage = ds.rows()[2];
  bad_voltage.avg_voltage = 0.0;
  ds.append(bad_voltage);
  acquire::DataRow bad_elapsed = ds.rows()[3];
  bad_elapsed.elapsed_s = -1.0;
  ds.append(bad_elapsed);
  acquire::DataRow bad_rate = ds.rows()[0];
  bad_rate.counter_rates[pmc::Preset::TOT_CYC] = -2.0;
  ds.append(bad_rate);

  const auto report = acquire::sanitize_dataset(ds);
  EXPECT_EQ(ds.size(), 4u);
  EXPECT_EQ(report.rows_checked, 9u);
  EXPECT_EQ(report.rows_dropped, 5u);
  EXPECT_EQ(report.nonfinite_power, 1u);
  EXPECT_EQ(report.implausible_power, 1u);
  EXPECT_EQ(report.invalid_voltage, 1u);
  EXPECT_EQ(report.invalid_elapsed, 1u);
  EXPECT_EQ(report.invalid_rate, 1u);
  EXPECT_FALSE(report.clean());
}

TEST(Sanitize, CleanDatasetUntouched) {
  acquire::Dataset ds = exact_dataset(6);
  const auto report = acquire::sanitize_dataset(ds);
  EXPECT_EQ(ds.size(), 6u);
  EXPECT_EQ(report.rows_dropped, 0u);
  EXPECT_TRUE(report.clean());
}

// ---------------------------------------------------------------- campaign

acquire::CampaignConfig tiny_campaign() {
  acquire::CampaignConfig config;
  config.workloads = {*workloads::find_workload("compute")};
  config.frequencies_ghz = {2.4};
  config.scalable_thread_counts = {2};
  config.fixed_thread_count = 2;
  config.events = {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS};
  config.interval_s = 0.25;
  config.duration_scale = 0.1;
  config.seed = 77;
  return config;
}

TEST(CampaignFaults, CleanCampaignReportsClean) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  const acquire::Dataset ds = acquire::run_campaign(engine, tiny_campaign());
  EXPECT_FALSE(ds.empty());
  EXPECT_TRUE(ds.quality().clean());
  EXPECT_EQ(ds.quality().runs_retried, 0u);
  EXPECT_EQ(ds.quality().configurations_quarantined, 0u);
  EXPECT_GT(ds.quality().runs_attempted, 0u);
}

TEST(CampaignFaults, RetryPolicyQuarantinesPersistentFailure) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  acquire::CampaignConfig config = tiny_campaign();
  const FaultPlan plan = FaultPlan::single(FaultKind::TruncateRun, 1.0, 5);
  config.fault_plan = &plan;
  const acquire::Dataset ds = acquire::run_campaign(engine, config);
  EXPECT_TRUE(ds.empty());
  EXPECT_EQ(ds.quality().configurations_quarantined, ds.quality().configurations_total);
  EXPECT_GT(ds.quality().runs_retried, 0u);
  EXPECT_GT(ds.quality().runs_rejected, 0u);
  EXPECT_GE(ds.quality().fault_counts.at("truncate_run"), 1u);
  EXPECT_FALSE(ds.quality().clean());
}

TEST(CampaignFaults, SkipPolicyDoesNotRetry) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  acquire::CampaignConfig config = tiny_campaign();
  config.max_attempts = 1;
  const FaultPlan plan = FaultPlan::single(FaultKind::TruncateRun, 1.0, 5);
  config.fault_plan = &plan;
  const acquire::Dataset ds = acquire::run_campaign(engine, config);
  EXPECT_TRUE(ds.empty());
  EXPECT_EQ(ds.quality().runs_retried, 0u);
  EXPECT_EQ(ds.quality().configurations_quarantined, ds.quality().configurations_total);
}

TEST(CampaignFaults, TraceCorruptionIsCaughtAndQuarantined) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  acquire::CampaignConfig config = tiny_campaign();
  config.max_attempts = 1;
  const FaultPlan plan = FaultPlan::single(FaultKind::CorruptTraceByte, 1.0, 3);
  config.fault_plan = &plan;
  const acquire::Dataset ds = acquire::run_campaign(engine, config);
  EXPECT_TRUE(ds.empty());
  EXPECT_GE(ds.quality().fault_counts.at("corrupt_trace_byte"), 1u);
}

TEST(CampaignFaults, FaultyCampaignIsDeterministic) {
  const sim::Engine engine = sim::Engine::haswell_ep();
  acquire::CampaignConfig config = tiny_campaign();
  config.max_attempts = 4;
  const FaultPlan plan = FaultPlan::escalating(99, 2.0);
  config.fault_plan = &plan;
  const acquire::Dataset a = acquire::run_campaign(engine, config);
  const acquire::Dataset b = acquire::run_campaign(engine, config);
  EXPECT_EQ(a.quality().runs_attempted, b.quality().runs_attempted);
  EXPECT_EQ(a.quality().runs_rejected, b.quality().runs_rejected);
  EXPECT_EQ(a.quality().fault_counts, b.quality().fault_counts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.rows()[i].avg_power_watts, b.rows()[i].avg_power_watts);
    EXPECT_EQ(a.rows()[i].counter_rates, b.rows()[i].counter_rates);
  }
}

TEST(CampaignFaults, FaultFreeCampaignMatchesNoPlanCampaign) {
  // An all-zero-probability plan must leave the dataset bit-identical to a
  // campaign with no plan at all (first-attempt seeds are unchanged).
  const sim::Engine engine = sim::Engine::haswell_ep();
  acquire::CampaignConfig without = tiny_campaign();
  acquire::CampaignConfig with = tiny_campaign();
  const FaultPlan plan = FaultPlan::single(FaultKind::TruncateRun, 0.0, 1);
  with.fault_plan = &plan;
  const acquire::Dataset a = acquire::run_campaign(engine, without);
  const acquire::Dataset b = acquire::run_campaign(engine, with);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.rows()[i].avg_power_watts, b.rows()[i].avg_power_watts);
    EXPECT_EQ(a.rows()[i].counter_rates, b.rows()[i].counter_rates);
  }
}

// ---------------------------------------------------------------- error codes

TEST(ErrorContext, WithContextPreservesCodeAndChains) {
  const Error base("disk on fire", ErrorCode::Unavailable);
  const Error wrapped = base.with_context("reading counters").with_context("node-7");
  EXPECT_EQ(wrapped.code(), ErrorCode::Unavailable);
  EXPECT_STREQ(wrapped.what(), "node-7: reading counters: disk on fire");
}

TEST(ErrorContext, IoErrorKeepsOffsetsThroughContext) {
  const IoError base("bad byte", 1234, 7);
  const IoError wrapped = base.with_context("trace file");
  EXPECT_EQ(wrapped.byte_offset(), 1234);
  EXPECT_EQ(wrapped.record_index(), 7);
  EXPECT_EQ(wrapped.code(), ErrorCode::Corruption);
}

TEST(ErrorContext, CodeNamesAreStable) {
  EXPECT_EQ(error_code_name(ErrorCode::Timeout), "timeout");
  EXPECT_EQ(error_code_name(ErrorCode::DataQuality), "data_quality");
  EXPECT_EQ(error_code_name(ErrorCode::Unknown), "unknown");
}

}  // namespace
}  // namespace pwx
