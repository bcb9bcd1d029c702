// Chaos bench — the acquisition + modeling pipeline under injected faults.
//
// Runs the paper's standard 2.4 GHz acquisition campaign under a seeded
// escalating FaultPlan (every fault kind armed: dropped/duplicated samples,
// stuck/wrapped/NaN counters, dying runs, corrupted trace bytes, power
// sensor dropouts and spikes) with the Retry failure policy, and checks the
// robustness contract end to end:
//
//  1. the campaign completes and reports what happened (DataQuality),
//  2. the same seed produces a byte-identical dataset on a second run,
//  3. a model trained on the faulty acquisition stays within 2 MAPE
//     percentage points of the clean baseline under 10-fold CV,
//  4. a guarded online estimator driven by a fault-injected counter source
//     never emits a non-finite or out-of-range estimate.
//
// Exits non-zero when any contract is violated.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "acquire/campaign.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/epoch.hpp"
#include "core/estimator.hpp"
#include "core/health.hpp"
#include "core/selection.hpp"
#include "core/validate.hpp"
#include "fault/fault.hpp"
#include "host/faulty_source.hpp"
#include "host/sim_source.hpp"
#include "power/ground_truth.hpp"
#include "repro_common.hpp"
#include "serve/refresh.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace pwx;

int violations = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  [ok]   %s\n", what.c_str());
  } else {
    std::printf("  [FAIL] %s\n", what.c_str());
    violations += 1;
  }
}

bool datasets_identical(const acquire::Dataset& a, const acquire::Dataset& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const acquire::DataRow& ra = a.rows()[i];
    const acquire::DataRow& rb = b.rows()[i];
    if (ra.workload != rb.workload || ra.phase != rb.phase ||
        ra.frequency_ghz != rb.frequency_ghz || ra.threads != rb.threads ||
        ra.avg_power_watts != rb.avg_power_watts ||
        ra.avg_voltage != rb.avg_voltage || ra.elapsed_s != rb.elapsed_s ||
        ra.runs_merged != rb.runs_merged || ra.counter_rates != rb.counter_rates) {
      return false;
    }
  }
  return true;
}

/// Record a small calibration corpus for `engine`: one trace per
/// (workload, frequency, threads) configuration, the standard four-counter
/// group in each.
std::vector<std::string> write_refresh_corpus(const sim::Engine& engine,
                                              const std::filesystem::path& dir,
                                              std::uint64_t seed) {
  const std::vector<pmc::Preset> group{pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS,
                                       pmc::Preset::PRF_DM, pmc::Preset::BR_MSP};
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
            trace::build_standard_trace(engine.run(*workload, rc), group);
        paths.push_back(
            (dir / ("run" + std::to_string(paths.size()) + ".otf2l")).string());
        trace::write_trace_file(t, paths.back());
      }
    }
  }
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

}  // namespace

int main() {
  bench::print_header(
      "Robustness: standard campaign + estimation under injected faults",
      "a counter-based pipeline must survive the failure modes of real "
      "instrumentation (glitching reads, dying runs, corrupt traces, sensor "
      "dropouts) without silently degrading the model");

  const sim::Engine engine = sim::Engine::haswell_ep();

  std::printf("clean baseline: standard selection campaign @ 2.4 GHz\n");
  const acquire::Dataset& clean = acquire::standard_selection_dataset();
  std::printf("  %zu rows, quality: %s\n\n", clean.size(),
              clean.quality().clean() ? "clean" : "NOT clean");

  // The same campaign, now under an escalating fault schedule with the
  // default Retry policy (re-execute flagged runs with derived seeds,
  // quarantine configurations that keep failing).
  // Intensity 0.1: a standard run spans dozens of sampling intervals, so the
  // per-opportunity probabilities compound into a meaningful per-run fault
  // rate without flagging essentially every run.
  acquire::CampaignConfig config = acquire::standard_campaign_config({2.4});
  config.max_attempts = 4;
  const fault::FaultPlan plan = fault::FaultPlan::escalating(0xC7A05, 0.1);
  config.fault_plan = &plan;

  std::printf("faulty campaign: escalating plan, seed 0x%llX, policy=retry\n",
              static_cast<unsigned long long>(plan.seed));
  const acquire::Dataset faulty = acquire::run_campaign(engine, config);
  const acquire::Dataset faulty_again = acquire::run_campaign(engine, config);

  std::printf("\n%s\n", faulty.quality().report().c_str());
  std::printf("machine-readable: %s\n\n", faulty.quality().to_json().dump(-1).c_str());

  std::size_t distinct_kinds = 0;
  for (const auto& [name, count] : faulty.quality().fault_counts) {
    distinct_kinds += count > 0 ? 1 : 0;
  }

  std::printf("contract checks:\n");
  check(!faulty.empty(), "faulty campaign produced data");
  check(!faulty.quality().clean(),
        "fault injection was actually exercised (quality not clean)");
  check(distinct_kinds >= 6, "at least 6 distinct fault kinds injected (got " +
                                 std::to_string(distinct_kinds) + ")");
  check(datasets_identical(faulty, faulty_again),
        "same seed reproduces a byte-identical dataset");
  check(faulty.quality().fault_counts == faulty_again.quality().fault_counts,
        "same seed reproduces an identical fault schedule");

  // Model accuracy: the retry/quarantine/sanitize chain must keep the
  // usable rows clean enough that cross-validated accuracy stays close to
  // the fault-free baseline.
  core::SelectionOptions options;
  options.count = 6;
  options.max_mean_vif = 8.0;
  const core::SelectionResult selection =
      core::select_events(clean, pmc::haswell_ep_available_events(), options);
  core::FeatureSpec spec;
  spec.events = selection.selected();

  const core::CvSummary cv_clean =
      core::k_fold_cross_validation(clean, spec, 10, bench::kCvSeed);
  const core::CvSummary cv_faulty =
      core::k_fold_cross_validation(faulty, spec, 10, bench::kCvSeed);
  const double mape_delta = std::abs(cv_faulty.mean.mape - cv_clean.mean.mape);
  std::printf("\n10-fold CV, paper 6-counter spec:\n");
  std::printf("  clean  : R2 %s  MAPE %s%%\n",
              format_double(cv_clean.mean.r_squared, 4).c_str(),
              format_double(cv_clean.mean.mape, 2).c_str());
  std::printf("  faulty : R2 %s  MAPE %s%%  (delta %s pp)\n",
              format_double(cv_faulty.mean.r_squared, 4).c_str(),
              format_double(cv_faulty.mean.mape, 2).c_str(),
              format_double(mape_delta, 2).c_str());
  check(mape_delta <= 2.0, "faulty-acquisition CV MAPE within 2 pp of clean");

  // Online estimation under fire: a guarded estimator over a fault-injected
  // counter source must never emit NaN/Inf or a negative/out-of-range watt
  // value, and must surface degradation through health().
  std::printf("\nonline estimation under injected counter faults:\n");
  const core::PowerModel model = core::train_model(clean, spec);
  core::OnlineEstimator estimator(model);
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.seed = 0xE57;
  host::SimulatedCounterSource sim_source(engine, *workloads::find_workload("compute"),
                                          rc);
  host::FaultyCounterSource chaos(sim_source, fault::FaultPlan::escalating(0xE57, 4.0));
  for (std::size_t attempt = 0; attempt < 64; ++attempt) {
    try {
      chaos.start(estimator.required_events());
      break;
    } catch (const pwx::Error&) {
    }
  }
  std::size_t samples = 0;
  std::size_t degraded = 0;
  bool all_valid = true;
  for (;;) {
    std::optional<core::CounterSample> sample;
    try {
      sample = chaos.read();
    } catch (const pwx::Error&) {
      continue;  // injected transient read failure
    }
    if (!sample.has_value()) {
      break;
    }
    const double watts = estimator.estimate_guarded(*sample);
    samples += 1;
    all_valid = all_valid && std::isfinite(watts) && watts >= 0.0 &&
                watts <= core::kMaxWatts;
    degraded += estimator.health() != core::HealthState::Ok ? 1 : 0;
  }
  std::printf("  %zu samples, %zu with degraded health, %zu injected faults\n",
              samples, degraded, chaos.injected().size());
  check(samples > 0, "estimator processed the faulty stream");
  check(all_valid, "every estimate finite and within [0, max_watts]");
  check(degraded > 0, "estimator surfaced DEGRADED/FAILED health under faults");

  // Model refresh under fire: each refresh-path fault kind, forced at
  // p=1.0, must be caught by the intended gate and leave the serving epoch
  // on its incumbent publication (rollback = nothing happened); a clean
  // refresh from a shifted-regime corpus must still publish.
  std::printf("\nmodel refresh under injected faults:\n");
  const std::filesystem::path corpus_root =
      std::filesystem::temp_directory_path() /
      ("pwx_robustness_refresh_" + std::to_string(::getpid()));
  const std::vector<std::string> baseline_corpus =
      write_refresh_corpus(engine, corpus_root / "baseline", 100);
  // The drifted regime: higher switching energy + extra uncore static draw,
  // as a firmware/DVFS change would produce.
  power::EnergyTable energies = power::GroundTruthPower::haswell_ep().energies();
  energies.per_cycle_nj *= 1.6;
  energies.per_uop_nj *= 1.6;
  energies.per_dram_access_nj *= 1.4;
  power::StaticParameters statics = power::GroundTruthPower::haswell_ep().statics();
  statics.uncore_static_watts += 12.0;
  const sim::Engine drifted(cpu::haswell_ep_2690v3(), cpu::haswell_ep_dvfs(),
                            power::GroundTruthPower(energies, statics,
                                                    cpu::ThermalModel{}),
                            power::SensorSpec{}, 0x5eed);
  const std::vector<std::string> drifted_corpus =
      write_refresh_corpus(drifted, corpus_root / "drifted", 200);

  const struct {
    fault::FaultKind kind;
    serve::RefreshStatus expected;
  } refresh_faults[] = {
      {fault::FaultKind::TruncatedCandidate,
       serve::RefreshStatus::RejectedImplausible},
      {fault::FaultKind::ValidationTimeout,
       serve::RefreshStatus::RejectedTimeout},
      {fault::FaultKind::StaleLayoutPublish,
       serve::RefreshStatus::RejectedStale},
  };
  for (const auto& rf : refresh_faults) {
    core::LayoutEpoch epoch(train_on_corpus(baseline_corpus));
    const fault::FaultInjector injector(
        fault::FaultPlan::single(rf.kind, 1.0, 0xFA17));
    serve::RefreshConfig refresh_config;
    refresh_config.trace_paths = drifted_corpus;
    refresh_config.event_count = 3;
    refresh_config.injector = &injector;
    const serve::RefreshReport report =
        serve::refresh_model(epoch, refresh_config);
    std::printf("  %s -> %s (%s)\n",
                std::string(fault::fault_kind_name(rf.kind)).c_str(),
                std::string(serve::refresh_status_name(report.status)).c_str(),
                report.detail.c_str());
    check(report.status == rf.expected,
          std::string(fault::fault_kind_name(rf.kind)) +
              " caught by the intended refresh gate");
    check(epoch.generation() == 1,
          std::string(fault::fault_kind_name(rf.kind)) +
              " rollback left the epoch on generation 1");
  }

  core::LayoutEpoch epoch(train_on_corpus(baseline_corpus));
  serve::RefreshConfig clean_refresh;
  clean_refresh.trace_paths = drifted_corpus;
  clean_refresh.event_count = 3;
  const serve::RefreshReport published =
      serve::refresh_model(epoch, clean_refresh);
  std::printf("  clean refresh -> %s (candidate MAPE %s%%, incumbent %s%%)\n",
              std::string(serve::refresh_status_name(published.status)).c_str(),
              format_double(published.candidate_holdout_mape_pct, 2).c_str(),
              format_double(published.incumbent_holdout_mape_pct, 2).c_str());
  check(published.published() && epoch.generation() == 2,
        "fault-free refresh from the drifted corpus published generation 2");
  check(published.candidate_holdout_mape_pct <
            published.incumbent_holdout_mape_pct,
        "retrained candidate beats the stale incumbent on the drifted holdout");
  std::filesystem::remove_all(corpus_root);

  if (violations > 0) {
    std::printf("\n%d robustness contract violation(s)\n", violations);
    return 1;
  }
  std::printf("\nall robustness contracts hold\n");
  return 0;
}
