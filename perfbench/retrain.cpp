// `retrain`: the serving side's model refresh. Setup records the reproduce
// campaign's runs as v4 trace files and trains a bootstrap model; each job
// calls serve::refresh_model over that corpus (mapped ingest, checksums
// verified) against a fresh LayoutEpoch holding the bootstrap model.
//
// The traced job runs the real refresh, then replays its replayable steps
// from public functions under spans: profile_trace_files, rows,
// split_holdout, select_events, train_model and the holdout predictions.
// What the refresh spends beyond the replay (the plausibility and
// validation gates and the publish) is the serve.gate row.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "core/epoch.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "serve/refresh.hpp"
#include "sim/engine.hpp"
#include "stats/metrics.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using namespace pwx;

namespace {

namespace fs = std::filesystem;

/// What a refresh decides, compared bit for bit with the replay's.
struct RefreshOutcome {
  std::size_t rows = 0;
  std::vector<pmc::Preset> events;
  double holdout_mape_pct = 0.0;
  std::size_t select_steps = 0;

  bool same_decision(const RefreshOutcome& other) const {
    return rows == other.rows && events == other.events &&
           std::memcmp(&holdout_mape_pct, &other.holdout_mape_pct, sizeof(double)) == 0;
  }

  std::string describe() const {
    std::ostringstream os;
    os << rows << " rows, events";
    for (const pmc::Preset p : events) {
      os << " " << pmc::preset_name(p);
    }
    os.precision(17);
    os << ", holdout MAPE " << holdout_mape_pct << "%";
    return os.str();
  }
};

RefreshOutcome outcome_of(const serve::RefreshReport& report) {
  return {report.dataset_rows, report.selected_events, report.candidate_holdout_mape_pct, 0};
}

class Retrain final : public Workload {
public:
  Retrain(std::uint64_t seed, std::string work_dir)
      : seed_(seed), dir_(fs::path(work_dir) / ("retrain-" + std::to_string(getpid()))) {
    refresh_.ingest.mmap = true;
    refresh_.ingest.verify_checksum = true;
  }

  ~Retrain() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  Retrain(const Retrain&) = delete;
  Retrain& operator=(const Retrain&) = delete;

  void setup() override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    record_corpus();
    // The incumbent a refresh must beat: an older, one-event model of the
    // same corpus, so every refresh has a better candidate to publish.
    core::FeatureSpec spec;
    spec.events = {pmc::Preset::TOT_INS};
    bootstrap_ = core::train_model(
        acquire::ingest_trace_files(refresh_.trace_paths, refresh_.ingest), spec);
    first_.reset();
  }

  JobOutcome job() override {
    core::LayoutEpoch epoch(bootstrap_);
    const std::int64_t start = now_ns();
    const serve::RefreshReport report = serve::refresh_model(epoch, refresh_);
    const double ms = static_cast<double>(now_ns() - start) / 1e6;
    return check_report(ms, report);
  }

  JobOutcome traced_job(SpanRecorder& spans) override {
    core::LayoutEpoch epoch(bootstrap_);
    const std::int64_t start = now_ns();
    const serve::RefreshReport report = serve::refresh_model(epoch, refresh_);
    const std::int64_t refreshed = now_ns();
    const RefreshOutcome replayed = replay(&spans);
    const std::int64_t replay_ns = now_ns() - refreshed;
    const double ms = static_cast<double>(refreshed - start) / 1e6;
    gate_ms_ += ms - static_cast<double>(replay_ns) / 1e6;
    ++traced_jobs_;
    select_steps_ = replayed.select_steps;

    JobOutcome outcome = check_report(ms, report);
    if (outcome.ok && !replayed.same_decision(outcome_of(report))) {
      outcome = {ms, false,
                 "replay " + replayed.describe() + " vs refresh " +
                     outcome_of(report).describe()};
    }
    return outcome;
  }

  void verify(Checks& checks) override {
    if (!first_) {
      return;
    }
    if (traced_jobs_ == 0) {
      const RefreshOutcome replayed = replay(nullptr);
      select_steps_ = replayed.select_steps;
      checks.record("replay reproduces refresh_model", replayed.same_decision(*first_),
                    "replay " + replayed.describe() + " vs refresh " + first_->describe());
    }
    std::cout << "reference: " << first_->describe() << "\n";
  }

  double samples_per_job() const override { return static_cast<double>(intervals_); }
  double model_mape_pct() const override {
    return first_ ? first_->holdout_mape_pct : 0.0;
  }

  std::map<std::string, double> layer_counts() const override {
    return {{"trace.files", static_cast<double>(refresh_.trace_paths.size())},
            {"trace.bytes", static_cast<double>(bytes_)},
            {"core.select_steps", static_cast<double>(select_steps_)}};
  }

  std::map<std::string, double> extra_layer_ms() const override {
    return {{"serve.gate", traced_jobs_ == 0 ? 0.0 : gate_ms_ / traced_jobs_}};
  }

private:
  /// One v4 trace file per simulator run of the reproduce campaign, in
  /// run_campaign's order.
  void record_corpus() {
    const sim::Engine engine = sim::Engine::haswell_ep();
    const acquire::CampaignConfig config = benchmark_campaign(seed_);
    const CampaignPlan plan = plan_campaign(config);
    std::vector<std::string> paths(plan.runs.size());
    std::atomic<std::size_t> intervals{0};
    std::vector<std::exception_ptr> failures(plan.runs.size());
#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
      try {
        const PlannedRun& run = plan.runs[i];
        sim::RunConfig rc;
        rc.frequency_ghz = run.frequency_ghz;
        rc.threads = run.threads;
        rc.interval_s = config.interval_s;
        rc.duration_scale = config.duration_scale;
        rc.seed = run.seed;
        const sim::RunResult result = engine.run(*run.workload, rc);
        intervals += result.intervals.size();
        char name[32];
        std::snprintf(name, sizeof name, "run-%05zu.otf2l", i);
        paths[i] = (dir_ / name).string();
        trace::write_trace_file(
            trace::build_standard_trace(result, plan.groups[run.group].events), paths[i]);
      } catch (...) {
        failures[i] = std::current_exception();
      }
    }
    for (const std::exception_ptr& failure : failures) {
      if (failure) {
        std::rethrow_exception(failure);
      }
    }
    bytes_ = 0;
    for (const std::string& path : paths) {
      bytes_ += fs::file_size(path);
    }
    intervals_ = intervals.load();
    refresh_.trace_paths = std::move(paths);
  }

  JobOutcome check_report(double ms, const serve::RefreshReport& report) {
    if (!report.published()) {
      return {ms, false,
              "refresh " + std::string(serve::refresh_status_name(report.status)) + ": " +
                  report.detail};
    }
    const RefreshOutcome outcome = outcome_of(report);
    if (!first_) {
      first_ = outcome;
    }
    if (!outcome.same_decision(*first_)) {
      return {ms, false, "refresh " + outcome.describe() + " vs first " + first_->describe()};
    }
    return {ms, true, {}};
  }

  /// refresh_model's ingest, selection and fit, and the candidate's holdout
  /// MAPE, from public functions.
  RefreshOutcome replay(SpanRecorder* spans) const {
    const Span job(spans, "job");
    std::vector<trace::PhaseProfile> profiles;
    {
      const Span span(spans, "trace.ingest");
      profiles = trace::profile_trace_files(refresh_.trace_paths, refresh_.ingest);
    }
    acquire::Dataset dataset;
    {
      const Span span(spans, "acquire.rows");
      for (const trace::PhaseProfile& profile : profiles) {
        const auto workload = workloads::find_workload(profile.workload);
        dataset.append(acquire::row_from_profile(
            profile, workload ? workload->suite : workloads::Suite::Roco2));
      }
      (void)acquire::sanitize_dataset(dataset);
    }
    acquire::HoldoutSplit split;
    {
      const Span span(spans, "acquire.split");
      split = acquire::split_holdout(dataset, refresh_.holdout_fraction,
                                     refresh_.holdout_seed);
    }
    RefreshOutcome out;
    out.rows = dataset.size();
    {
      const Span span(spans, "core.select");
      core::SelectionOptions selection;
      selection.count = refresh_.event_count;
      selection.max_mean_vif = refresh_.max_mean_vif;
      const core::SelectionResult result =
          core::select_events(split.train, dataset.common_presets(), selection);
      out.events = result.selected();
      out.select_steps = result.steps.size();
    }
    core::PowerModel candidate;
    {
      const Span span(spans, "core.fit");
      core::FeatureSpec spec;
      spec.events = out.events;
      candidate = core::train_model(split.train, spec);
    }
    const Span span(spans, "core.validate");
    out.holdout_mape_pct =
        stats::mape(split.holdout.power(), candidate.predict(split.holdout));
    return out;
  }

  std::uint64_t seed_;
  fs::path dir_;
  serve::RefreshConfig refresh_;
  core::PowerModel bootstrap_;
  std::optional<RefreshOutcome> first_;
  std::size_t intervals_ = 0;
  std::uintmax_t bytes_ = 0;
  std::size_t select_steps_ = 0;
  std::size_t traced_jobs_ = 0;
  double gate_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_retrain(std::uint64_t seed, const std::string& work_dir) {
  return std::make_unique<Retrain>(seed, work_dir);
}

}  // namespace perfbench
