// `reproduce`: the paper's offline job at quickstart size. One job runs
// acquire::run_campaign itself (never the process-wide standard_*_dataset()
// cache, which would make every job after the first free), then Algorithm 1,
// the Eq. 1 fit, 10-fold CV and the synthetic-to-SPEC scenario.
//
// The traced job replays run_campaign's steps from public functions, on the
// same OpenMP threads, with one span per call: schedule_events, Engine::run,
// build_standard_trace, build_phase_profiles, merge_profiles and
// row_from_profile. Its row digest must equal the real call's.
#include <omp.h>

#include <atomic>
#include <exception>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "core/model.hpp"
#include "core/scenario.hpp"
#include "core/selection.hpp"
#include "core/validate.hpp"
#include "pmc/events.hpp"
#include "sim/engine.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pwx;

acquire::CampaignConfig benchmark_campaign(std::uint64_t seed) {
  acquire::CampaignConfig config = acquire::standard_campaign_config({1.2, 2.0, 2.6}, seed);
  config.scalable_thread_counts = {1, 8, 24};
  return config;
}

CampaignPlan plan_campaign(const acquire::CampaignConfig& config) {
  // The enumeration and seed derivation of acquire::run_campaign: units in
  // (workload, frequency, threads) order seeded from the campaign seed, each
  // unit's group runs seeded from the unit seed.
  CampaignPlan plan;
  plan.groups = pmc::schedule_events(config.events, config.budget);
  Rng unit_seeder(config.seed);
  for (const workloads::Workload& workload : config.workloads) {
    const std::vector<std::size_t> thread_counts =
        workload.thread_scalable ? config.scalable_thread_counts
                                 : std::vector<std::size_t>{config.fixed_thread_count};
    for (const double frequency : config.frequencies_ghz) {
      for (const std::size_t threads : thread_counts) {
        Rng group_seeder(unit_seeder());
        for (std::size_t g = 0; g < plan.groups.size(); ++g) {
          plan.runs.push_back(
              PlannedRun{plan.units, g, &workload, frequency, threads, group_seeder()});
        }
        ++plan.units;
      }
    }
  }
  return plan;
}

std::uint64_t dataset_digest(const acquire::Dataset& dataset) {
  Fnv fnv;
  for (const acquire::DataRow& row : dataset.rows()) {
    fnv.add(row.workload).add(row.phase).add(static_cast<std::uint64_t>(row.suite));
    fnv.add(row.frequency_ghz).add(static_cast<std::uint64_t>(row.threads));
    fnv.add(row.avg_power_watts).add(row.avg_voltage).add(row.elapsed_s);
    fnv.add(static_cast<std::uint64_t>(row.runs_merged));
    for (const auto& [preset, rate] : row.counter_rates) {
      fnv.add(static_cast<std::uint64_t>(preset)).add(rate);
    }
  }
  return fnv.value();
}

namespace {

/// What one pipeline produces, compared bit for bit across jobs.
struct PipelineOutput {
  std::uint64_t digest = 0;
  std::size_t rows = 0;
  std::vector<pmc::Preset> events;
  double cv_mape_pct = 0.0;
  double scenario_mape_pct = 0.0;

  bool operator==(const PipelineOutput& other) const {
    return digest == other.digest && rows == other.rows && events == other.events &&
           std::memcmp(&cv_mape_pct, &other.cv_mape_pct, sizeof(double)) == 0 &&
           std::memcmp(&scenario_mape_pct, &other.scenario_mape_pct, sizeof(double)) == 0;
  }

  std::string describe() const {
    std::ostringstream os;
    os << "digest " << hex64(digest) << ", " << rows << " rows, events";
    for (const pmc::Preset p : events) {
      os << " " << pmc::preset_name(p);
    }
    os.precision(17);
    os << ", cv " << cv_mape_pct << "%, scenario " << scenario_mape_pct << "%";
    return os.str();
  }
};

/// Selection, fit, CV and scenario 2 on an acquired dataset.
void model_steps(const acquire::Dataset& dataset, SpanRecorder* spans,
                 PipelineOutput& out) {
  core::SelectionOptions selection;
  selection.count = 6;
  selection.max_mean_vif = 8.0;
  core::FeatureSpec spec;
  {
    const Span span(spans, "core.select");
    spec.events =
        core::select_events(dataset, pmc::haswell_ep_available_events(), selection)
            .selected();
  }
  {
    const Span span(spans, "core.fit");
    (void)core::train_model(dataset, spec);
  }
  {
    const Span span(spans, "core.cv");
    out.cv_mape_pct = core::k_fold_cross_validation(dataset, spec, 10, 42).mean.mape;
  }
  {
    const Span span(spans, "core.scenario");
    out.scenario_mape_pct = core::scenario_synthetic_to_spec(dataset, spec).mape;
  }
  out.events = spec.events;
  out.digest = dataset_digest(dataset);
  out.rows = dataset.size();
}

/// Holds the engine in place: sim::Engine must not be moved, as its voltage
/// sensors refer to its own DVFS table.
struct Machine {
  const sim::Engine engine = sim::Engine::haswell_ep();
};

class Reproduce final : public Workload {
public:
  explicit Reproduce(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    machine_ = std::make_unique<Machine>();
    config_ = benchmark_campaign(seed_);
    plan_ = plan_campaign(config_);
    // A warm-up pipeline: thread pools and first-touch allocations settle
    // here, and its output is the reference every job must reproduce.
    reference_ = pipeline();
  }

  JobOutcome job() override {
    const std::int64_t start = now_ns();
    const PipelineOutput out = pipeline();
    const double ms = static_cast<double>(now_ns() - start) / 1e6;
    return compare(ms, out, "pipeline");
  }

  JobOutcome traced_job(SpanRecorder& spans) override {
    const std::int64_t start = now_ns();
    const PipelineOutput out = replay(&spans);
    const double ms = static_cast<double>(now_ns() - start) / 1e6;
    ++traced_jobs_;
    return compare(ms, out, "replay");
  }

  void verify(Checks& checks) override {
    if (traced_jobs_ == 0) {
      // The untraced run still proves the replay reproduces run_campaign.
      const PipelineOutput out = replay(nullptr);
      checks.record("replay reproduces run_campaign", out == reference_,
                    "replay " + out.describe() + " vs " + reference_.describe());
    }
    std::cout << "reference: " << reference_.describe() << "\n";
  }

  double samples_per_job() const override { return static_cast<double>(intervals_); }
  double model_mape_pct() const override { return reference_.cv_mape_pct; }

  std::map<std::string, double> layer_counts() const override {
    return {{"sim.runs", static_cast<double>(plan_.runs.size())},
            {"sim.intervals", static_cast<double>(intervals_)}};
  }

private:
  PipelineOutput pipeline() const {
    const acquire::Dataset dataset = acquire::run_campaign(machine_->engine, config_);
    PipelineOutput out;
    model_steps(dataset, nullptr, out);
    return out;
  }

  JobOutcome compare(double ms, const PipelineOutput& out, const char* what) const {
    if (out == reference_) {
      return {ms, true, {}};
    }
    return {ms, false,
            std::string(what) + " " + out.describe() + " vs reference " +
                reference_.describe()};
  }

  /// One configuration of run_campaign: its event-group runs, traced and
  /// profiled, merged per phase into rows.
  void replay_unit(std::size_t u, SpanRecorder* spans, std::int64_t worker,
                   std::vector<acquire::DataRow>& rows,
                   std::atomic<std::size_t>& intervals) const {
    const std::size_t group_count = plan_.groups.size();
    const Span unit(spans, "acquire.config", worker);
    std::vector<pmc::EventGroup> groups;
    {
      const Span span(spans, "pmc.schedule");
      groups = pmc::schedule_events(config_.events, config_.budget);
    }
    std::vector<std::vector<trace::PhaseProfile>> per_run;
    per_run.reserve(group_count);
    std::size_t unit_intervals = 0;
    const PlannedRun* first = &plan_.runs[u * group_count];
    for (std::size_t g = 0; g < group_count; ++g) {
      const PlannedRun& run = first[g];
      sim::RunConfig rc;
      rc.frequency_ghz = run.frequency_ghz;
      rc.threads = run.threads;
      rc.interval_s = config_.interval_s;
      rc.duration_scale = config_.duration_scale;
      rc.seed = run.seed;
      sim::RunResult result;
      {
        const Span span(spans, "sim.run");
        result = machine_->engine.run(*run.workload, rc);
      }
      unit_intervals += result.intervals.size();
      trace::Trace tr;
      {
        const Span span(spans, "trace.build");
        tr = trace::build_standard_trace(result, groups[g].events);
      }
      const Span span(spans, "trace.profile");
      per_run.push_back(trace::build_phase_profiles(tr));
    }
    std::vector<trace::PhaseProfile> merged;
    {
      const Span span(spans, "trace.merge");
      for (std::size_t p = 0; p < per_run.front().size(); ++p) {
        std::vector<trace::PhaseProfile> variants;
        variants.reserve(per_run.size());
        for (const auto& run_profiles : per_run) {
          variants.push_back(run_profiles.at(p));
        }
        merged.push_back(trace::merge_profiles(variants));
      }
    }
    const Span span(spans, "acquire.rows");
    for (const trace::PhaseProfile& profile : merged) {
      rows.push_back(acquire::row_from_profile(profile, first->workload->suite));
    }
    intervals += unit_intervals;
  }

  /// run_campaign's steps from public functions. Spans: each thread's time
  /// in the parallel configuration loop is an "acquire.wait" span whose
  /// children are the configurations it ran, so its self time is the time
  /// it idled at the end of the loop.
  PipelineOutput replay(SpanRecorder* spans) {
    const Span job(spans, "job");
    const int threads = omp_get_max_threads();

    std::vector<std::int64_t> worker(static_cast<std::size_t>(threads), -1);
    const std::int64_t loop_start = now_ns();
    if (spans != nullptr && spans->enabled()) {
      for (int t = 0; t < threads; ++t) {
        worker[static_cast<std::size_t>(t)] =
            spans->add("acquire.wait", loop_start, loop_start, job.id(), t);
      }
    }

    std::vector<std::vector<acquire::DataRow>> unit_rows(plan_.units);
    std::vector<std::exception_ptr> failures(plan_.units);
    std::atomic<std::size_t> intervals{0};
#pragma omp parallel for schedule(dynamic) num_threads(threads)
    for (std::size_t u = 0; u < plan_.units; ++u) {
      // Exceptions must not escape the OpenMP region; rethrown below.
      try {
        replay_unit(u, spans, worker[static_cast<std::size_t>(omp_get_thread_num())],
                    unit_rows[u], intervals);
      } catch (...) {
        failures[u] = std::current_exception();
      }
    }
    const std::int64_t loop_end = now_ns();
    for (const std::int64_t id : worker) {
      if (spans != nullptr) {
        spans->set_end(id, loop_end);
      }
    }
    for (const std::exception_ptr& failure : failures) {
      if (failure) {
        std::rethrow_exception(failure);
      }
    }

    acquire::Dataset dataset;
    {
      const Span span(spans, "acquire.rows");
      for (std::vector<acquire::DataRow>& rows : unit_rows) {
        for (acquire::DataRow& row : rows) {
          dataset.append(std::move(row));
        }
      }
      (void)acquire::sanitize_dataset(dataset);
    }
    intervals_ = intervals.load();
    PipelineOutput out;
    model_steps(dataset, spans, out);
    return out;
  }

  std::uint64_t seed_;
  std::unique_ptr<Machine> machine_;
  acquire::CampaignConfig config_;
  CampaignPlan plan_;
  PipelineOutput reference_;
  std::size_t intervals_ = 0;
  std::size_t traced_jobs_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_reproduce(std::uint64_t seed) {
  return std::make_unique<Reproduce>(seed);
}

}  // namespace perfbench
