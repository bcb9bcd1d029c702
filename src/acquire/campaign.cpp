#include "acquire/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "cpu/dvfs.hpp"
#include "fault/fault.hpp"
#include "fault/inject.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "trace/profile_campaign.hpp"
#include "trace/serialize.hpp"

namespace pwx::acquire {

namespace {

/// Per-run wall-time distribution; observed inside the parallel loop, so the
/// handle is resolved once here rather than per call.
obs::Histogram& run_seconds_histogram() {
  static obs::Histogram& h = obs::registry().histogram(
      "campaign.run_seconds", {}, "wall time of one event-group run");
  return h;
}

/// One (workload, frequency, threads) acquisition unit.
struct Configuration {
  const workloads::Workload* workload = nullptr;
  double frequency_ghz = 0;
  std::size_t threads = 0;
  std::uint64_t seed = 0;
};

/// Everything one unit's acquisition produced, including its share of the
/// campaign's DataQuality. Aggregated in unit-index order after the
/// parallel loop so the report is deterministic.
struct UnitOutcome {
  std::vector<DataRow> rows;
  std::size_t runs_attempted = 0;
  std::size_t runs_rejected = 0;
  std::size_t runs_retried = 0;
  std::map<std::string, std::size_t> fault_counts;
  bool quarantined = false;
  std::string error;  ///< last permanent failure, for Abort / logging
};

std::string make_site(const Configuration& unit, std::size_t group,
                      std::size_t attempt) {
  std::ostringstream os;
  os << "campaign/" << unit.workload->name << "/f" << unit.frequency_ghz << "/t"
     << unit.threads << "/g" << group << "/a" << attempt;
  return os.str();
}

/// Distinct phase names in workload definition order — what a complete run's
/// profiles must cover (a truncated run loses its tail phases).
std::vector<std::string> expected_phases(const workloads::Workload& workload) {
  std::vector<std::string> names;
  for (const auto& phase : workload.phases) {
    if (std::find(names.begin(), names.end(), phase.name) == names.end()) {
      names.push_back(phase.name);
    }
  }
  return names;
}

/// Reject profiles a healthy instrumentation stack would never produce.
/// Throws Error(DataQuality) describing the first violation.
void validate_profiles(const std::vector<trace::PhaseProfile>& profiles,
                       const workloads::Workload& workload) {
  const std::vector<std::string> expected = expected_phases(workload);
  if (profiles.size() != expected.size()) {
    throw Error("run produced " + std::to_string(profiles.size()) +
                    " phases, expected " + std::to_string(expected.size()) +
                    " (truncated run?)",
                ErrorCode::DataQuality);
  }
  for (const trace::PhaseProfile& profile : profiles) {
    if (std::find(expected.begin(), expected.end(), profile.phase) ==
        expected.end()) {
      throw Error("run produced unknown phase '" + profile.phase + "'",
                  ErrorCode::DataQuality);
    }
    const auto bad = [&](const std::string& what) -> Error {
      return Error("phase '" + profile.phase + "' has " + what,
                   ErrorCode::DataQuality);
    };
    if (!std::isfinite(profile.avg_power_watts) || profile.avg_power_watts < 0.0) {
      throw bad("non-finite or negative power");
    }
    if (!std::isfinite(profile.avg_voltage) || profile.avg_voltage <= 0.0) {
      throw bad("non-finite or non-positive voltage");
    }
    if (!std::isfinite(profile.elapsed_s) || profile.elapsed_s <= 0.0) {
      throw bad("non-finite or non-positive elapsed time");
    }
    for (const auto& [preset, rate] : profile.counter_rates) {
      if (!std::isfinite(rate) || rate < 0.0) {
        throw bad("non-finite or negative rate for " +
                  std::string(pmc::preset_name(preset)));
      }
    }
  }
}

/// Execute one event-group run (with fault injection when configured) and
/// return its validated phase profiles. Throws Error on any failure.
std::vector<trace::PhaseProfile> execute_group_run(
    const sim::Engine& engine, const CampaignConfig& config,
    const Configuration& unit, const pmc::EventGroup& group,
    const fault::FaultInjector* injector, const std::string& site,
    std::uint64_t seed, UnitOutcome& outcome) {
  sim::RunConfig rc;
  rc.frequency_ghz = unit.frequency_ghz;
  rc.threads = unit.threads;
  rc.interval_s = config.interval_s;
  rc.duration_scale = config.duration_scale;
  rc.seed = seed;
  sim::RunResult run = [&] {
    PWX_SPAN("sim.run");
    return engine.run(*unit.workload, rc);
  }();

  bool flagged = false;
  if (injector != nullptr) {
    const fault::RunFaultReport report = fault::apply_run_faults(*injector, site, run);
    for (const auto& [name, count] : report.injected) {
      outcome.fault_counts[name] += count;
    }
    flagged = report.flagged;
  }

  trace::Trace tr = trace::build_standard_trace(run, group.events);

  // Round-trip through the serializer when trace faults are armed, so file
  // corruption exercises the reader's integrity checks end to end.
  if (injector != nullptr &&
      (injector->plan().armed_probability(fault::FaultKind::TruncateTrace) > 0.0 ||
       injector->plan().armed_probability(fault::FaultKind::CorruptTraceByte) > 0.0)) {
    std::ostringstream os;
    trace::write_trace(tr, os);
    std::string bytes = os.str();
    const fault::RunFaultReport report =
        fault::corrupt_serialized(*injector, site, bytes);
    for (const auto& [name, count] : report.injected) {
      outcome.fault_counts[name] += count;
    }
    flagged = flagged || report.flagged;
    std::istringstream is(bytes);
    tr = trace::read_trace(is);  // throws IoError on corruption
  }

  std::vector<trace::PhaseProfile> profiles = trace::build_phase_profiles(tr);
  validate_profiles(profiles, *unit.workload);
  if (flagged) {
    // Value faults a real stack detects at acquisition time (sensor dropout,
    // NaN read, died run) even when the numbers happen to parse.
    throw Error("run flagged by detectable instrumentation faults",
                ErrorCode::DataQuality);
  }
  return profiles;
}

UnitOutcome acquire_configuration(const sim::Engine& engine,
                                  const CampaignConfig& config,
                                  const Configuration& unit,
                                  const fault::FaultInjector* injector) {
  UnitOutcome outcome;
  const std::vector<pmc::EventGroup> groups =
      pmc::schedule_events(config.events, config.budget);
  PWX_CHECK(!groups.empty(), "event schedule is empty");

  const std::size_t max_attempts = std::max<std::size_t>(config.max_attempts, 1);

  // One run per event group; each run only records its group's presets.
  // First attempts use the exact seed sequence fault-free campaigns have
  // always used, so a campaign without faults stays bit-identical; retries
  // derive fresh seeds from the group seed via splitmix64.
  std::vector<std::vector<trace::PhaseProfile>> per_run_profiles;
  Rng seeder(unit.seed);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::uint64_t group_seed = seeder();
    std::uint64_t retry_state = group_seed;
    bool group_ok = false;
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      const std::uint64_t run_seed =
          attempt == 0 ? group_seed : splitmix64(retry_state);
      if (attempt > 0) {
        outcome.runs_retried += 1;
      }
      outcome.runs_attempted += 1;
      const std::string site = make_site(unit, g, attempt);
      try {
        const obs::ScopedTimer run_timer(run_seconds_histogram());
        per_run_profiles.push_back(execute_group_run(
            engine, config, unit, groups[g], injector, site, run_seed, outcome));
        group_ok = true;
        break;
      } catch (const Error& e) {
        outcome.runs_rejected += 1;
        outcome.error = e.with_context(site).what();
      } catch (const std::exception& e) {
        outcome.runs_rejected += 1;
        outcome.error = site + ": " + e.what();
      }
    }
    if (!group_ok) {
      // A missing event group would leave holes in the rate matrix, so the
      // whole configuration is quarantined, not just this group.
      outcome.quarantined = true;
      return outcome;
    }
  }

  // Merge per phase across runs, as trace-file ingestion does. Every run of
  // a configuration shares its workload, frequency and thread count, and
  // validate_profiles made each cover exactly the workload's phases, so the
  // groups are the phases in the first run's order.
  for (const trace::PhaseProfile& merged :
       trace::merge_first_appearance(std::move(per_run_profiles))) {
    outcome.rows.push_back(row_from_profile(merged, unit.workload->suite));
  }
  return outcome;
}

}  // namespace

Dataset run_campaign(const sim::Engine& engine, const CampaignConfig& config) {
  PWX_SPAN("campaign.run_campaign");
  PWX_REQUIRE(!config.workloads.empty(), "campaign needs workloads");
  PWX_REQUIRE(!config.frequencies_ghz.empty(), "campaign needs frequencies");
  PWX_REQUIRE(!config.events.empty(), "campaign needs events to record");

  // Enumerate configurations with deterministic per-unit seeds.
  std::vector<Configuration> units;
  Rng seeder(config.seed);
  for (const workloads::Workload& workload : config.workloads) {
    const std::vector<std::size_t> thread_counts =
        workload.thread_scalable ? config.scalable_thread_counts
                                 : std::vector<std::size_t>{config.fixed_thread_count};
    for (double frequency : config.frequencies_ghz) {
      for (std::size_t threads : thread_counts) {
        units.push_back({&workload, frequency, threads, seeder()});
      }
    }
  }
  PWX_LOG_INFO("campaign: ", units.size(), " configurations x ",
               pmc::runs_required(config.events, config.budget), " runs each");

  // The injector is stateless and thread-safe: fault decisions are keyed on
  // (seed, site, index), so schedules are independent of OpenMP ordering.
  std::optional<fault::FaultInjector> injector;
  if (config.fault_plan != nullptr) {
    injector.emplace(*config.fault_plan);
  }

  std::vector<UnitOutcome> results(units.size());
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < units.size(); ++i) {
    // Exceptions must not escape the OpenMP region; acquire_configuration
    // catches per-run failures, this catch is the backstop for setup errors.
    PWX_SPAN("campaign.configuration");
    try {
      results[i] = acquire_configuration(engine, config, units[i],
                                         injector ? &*injector : nullptr);
    } catch (const std::exception& e) {
      results[i].quarantined = true;
      results[i].error = e.what();
    }
  }

  // Aggregate in unit-index order so the report is deterministic.
  Dataset dataset;
  DataQuality quality;
  quality.configurations_total = units.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    UnitOutcome& outcome = results[i];
    quality.runs_attempted += outcome.runs_attempted;
    quality.runs_rejected += outcome.runs_rejected;
    quality.runs_retried += outcome.runs_retried;
    for (const auto& [name, count] : outcome.fault_counts) {
      quality.fault_counts[name] += count;
    }
    if (outcome.quarantined) {
      quality.configurations_quarantined += 1;
      PWX_LOG_WARN("campaign: quarantined ", units[i].workload->name, " f=",
                   units[i].frequency_ghz, " t=", units[i].threads, ": ",
                   outcome.error);
      continue;
    }
    for (DataRow& row : outcome.rows) {
      dataset.append(std::move(row));
    }
  }

  // Last line of defense: nothing non-finite or physically impossible may
  // reach a fit even if it slipped past per-run validation.
  quality.sanitize = sanitize_dataset(dataset);
  if (!quality.clean()) {
    PWX_LOG_WARN("campaign: degraded acquisition — ", quality.runs_rejected,
                 " runs rejected, ", quality.configurations_quarantined,
                 " configurations quarantined, ", quality.sanitize.rows_dropped,
                 " rows dropped");
  }
  dataset.set_quality(std::move(quality));

  // Export the campaign's share of the process metrics. Aggregated once from
  // the deterministic DataQuality numbers — identical totals whatever the
  // OpenMP schedule did — so exported counters are reproducible across runs.
  if (obs::enabled()) {
    obs::MetricRegistry& reg = obs::registry();
    static obs::Counter& c_campaigns =
        reg.counter("campaign.campaigns", "campaigns executed");
    static obs::Counter& c_configs =
        reg.counter("campaign.configurations", "acquisition configurations processed");
    static obs::Counter& c_quarantined = reg.counter(
        "campaign.configurations_quarantined", "configurations dropped after retries");
    static obs::Counter& c_attempted =
        reg.counter("campaign.runs_attempted", "engine executions");
    static obs::Counter& c_rejected =
        reg.counter("campaign.runs_rejected", "failed or fault-flagged runs");
    static obs::Counter& c_retried =
        reg.counter("campaign.runs_retried", "re-executions with derived seeds");
    static obs::Counter& c_rows =
        reg.counter("campaign.rows_produced", "dataset rows surviving sanitization");
    static obs::Counter& c_dropped =
        reg.counter("campaign.rows_dropped", "rows removed by sanitization");
    c_campaigns.add(1);
    c_configs.add(dataset.quality().configurations_total);
    c_quarantined.add(dataset.quality().configurations_quarantined);
    c_attempted.add(dataset.quality().runs_attempted);
    c_rejected.add(dataset.quality().runs_rejected);
    c_retried.add(dataset.quality().runs_retried);
    c_rows.add(dataset.size());
    c_dropped.add(dataset.quality().sanitize.rows_dropped);
    for (const auto& [name, count] : dataset.quality().fault_counts) {
      reg.counter("campaign.fault." + name, "injected faults by kind").add(count);
    }
  }
  return dataset;
}

Dataset ingest_trace_files(const std::vector<std::string>& paths,
                           trace::ProfileCampaignOptions options) {
  PWX_SPAN("campaign.ingest_trace_files");
  const std::vector<trace::PhaseProfile> profiles =
      trace::profile_trace_files(paths, options);

  Dataset dataset;
  for (const trace::PhaseProfile& profile : profiles) {
    const auto workload = workloads::find_workload(profile.workload);
    dataset.append(row_from_profile(
        profile, workload ? workload->suite : workloads::Suite::Roco2));
  }

  DataQuality quality;
  quality.sanitize = sanitize_dataset(dataset);
  dataset.set_quality(std::move(quality));
  return dataset;
}

CampaignConfig standard_campaign_config(std::vector<double> frequencies_ghz,
                                        std::uint64_t seed) {
  CampaignConfig config;
  config.workloads = workloads::all_workloads();
  config.frequencies_ghz = std::move(frequencies_ghz);
  config.events = pmc::haswell_ep_available_events();
  config.seed = seed;
  return config;
}

namespace {
std::once_flag g_selection_once;
std::once_flag g_training_once;
Dataset g_selection_dataset;   // NOLINT: intentional process-lifetime cache
Dataset g_training_dataset;    // NOLINT
}  // namespace

const Dataset& standard_selection_dataset() {
  std::call_once(g_selection_once, [] {
    const sim::Engine engine = sim::Engine::haswell_ep();
    g_selection_dataset =
        run_campaign(engine, standard_campaign_config({cpu::selection_frequency_ghz()}));
  });
  return g_selection_dataset;
}

const Dataset& standard_training_dataset() {
  std::call_once(g_training_once, [] {
    const sim::Engine engine = sim::Engine::haswell_ep();
    g_training_dataset =
        run_campaign(engine, standard_campaign_config(cpu::paper_frequencies_ghz()));
  });
  return g_training_dataset;
}

}  // namespace pwx::acquire
