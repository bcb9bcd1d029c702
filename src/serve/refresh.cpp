#include "serve/refresh.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <string_view>
#include <utility>

#include "core/model.hpp"
#include "core/model_io.hpp"
#include "core/selection.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "stats/metrics.hpp"

namespace pwx::serve {

namespace {

/// Validation watchdog: the gates must finish within this many seconds of
/// the refresh's start.
constexpr double kValidationDeadlineS = 60.0;
/// Fault-injection site of the refresh path.
constexpr std::string_view kRefreshFaultSite = "serve/refresh";

struct RefreshMetrics {
  obs::Counter& attempts = obs::registry().counter(
      "serve.refresh_attempts", "model refresh pipelines started");
  obs::Counter& published = obs::registry().counter(
      "serve.refresh_published", "candidate models published");
  obs::Counter& rejected_implausible = obs::registry().counter(
      "serve.refresh_rejected_implausible",
      "candidates rejected by the plausibility gate");
  obs::Counter& rejected_validation = obs::registry().counter(
      "serve.refresh_rejected_validation",
      "candidates rejected by the holdout-MAPE gate");
  obs::Counter& rejected_timeout = obs::registry().counter(
      "serve.refresh_rejected_timeout", "validation watchdog expiries");
  obs::Counter& rejected_stale = obs::registry().counter(
      "serve.refresh_rejected_stale",
      "publishes refused because the epoch moved on");
  obs::Counter& failed = obs::registry().counter(
      "serve.refresh_failed", "refresh pipelines that errored before a gate");
  obs::Gauge& candidate_mape = obs::registry().gauge(
      "serve.candidate_mape_pct", "last candidate's holdout MAPE");
  obs::Gauge& incumbent_mape = obs::registry().gauge(
      "serve.incumbent_mape_pct", "incumbent's holdout MAPE at last refresh");
  obs::Histogram& seconds = obs::registry().histogram(
      "serve.refresh_seconds", {}, "refresh pipeline wall time");
};

RefreshMetrics& refresh_metrics() {
  static RefreshMetrics metrics;
  return metrics;
}

/// Per-stage wall-time histograms — stage latency in plain metrics even
/// with tracing off (the satellite's serve.refresh.stage_seconds.<stage>).
struct StageHistograms {
  obs::Histogram& ingest = obs::registry().histogram(
      "serve.refresh.stage_seconds.ingest", {},
      "refresh stage: corpus ingest + holdout split");
  obs::Histogram& select = obs::registry().histogram(
      "serve.refresh.stage_seconds.select", {},
      "refresh stage: event selection");
  obs::Histogram& fit = obs::registry().histogram(
      "serve.refresh.stage_seconds.fit", {},
      "refresh stage: candidate fit");
  obs::Histogram& plausibility = obs::registry().histogram(
      "serve.refresh.stage_seconds.plausibility", {},
      "refresh stage: plausibility gate");
  obs::Histogram& validation = obs::registry().histogram(
      "serve.refresh.stage_seconds.validation", {},
      "refresh stage: validation gate");
  obs::Histogram& publish = obs::registry().histogram(
      "serve.refresh.stage_seconds.publish", {},
      "refresh stage: epoch publish");
};

obs::Histogram& stage_seconds(RefreshStage stage) {
  static StageHistograms histograms;
  switch (stage) {
    case RefreshStage::Ingest: return histograms.ingest;
    case RefreshStage::Select: return histograms.select;
    case RefreshStage::Fit: return histograms.fit;
    case RefreshStage::Plausibility: return histograms.plausibility;
    case RefreshStage::Validation: return histograms.validation;
    case RefreshStage::Publish: return histograms.publish;
    case RefreshStage::None: break;
  }
  return histograms.ingest;
}

/// RAII stage bracket: marks the report's current stage, opens the child
/// span, and times the scope into the stage histogram. Early returns and
/// exceptions unwind through it, so the breached stage is always the one
/// recorded last.
class StageScope {
public:
  StageScope(RefreshReport& report, RefreshStage stage, std::string_view span_name)
      : span_(span_name), timer_(stage_seconds(stage)) {
    report.stage = stage;
  }

private:
  obs::Span span_;
  obs::ScopedTimer timer_;
};

void count_exit(RefreshStatus status) {
  if (!obs::enabled()) {
    return;
  }
  RefreshMetrics& metrics = refresh_metrics();
  switch (status) {
    case RefreshStatus::Published: metrics.published.add_unguarded(); break;
    case RefreshStatus::RejectedImplausible:
      metrics.rejected_implausible.add_unguarded();
      break;
    case RefreshStatus::RejectedValidation:
      metrics.rejected_validation.add_unguarded();
      break;
    case RefreshStatus::RejectedTimeout:
      metrics.rejected_timeout.add_unguarded();
      break;
    case RefreshStatus::RejectedStale:
      metrics.rejected_stale.add_unguarded();
      break;
    case RefreshStatus::Failed: metrics.failed.add_unguarded(); break;
  }
}

/// True when every prediction is finite (the holdout plausibility probe).
bool finite_predictions(const std::vector<double>& predicted) {
  for (const double p : predicted) {
    if (!std::isfinite(p)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view refresh_status_name(RefreshStatus status) {
  switch (status) {
    case RefreshStatus::Published: return "published";
    case RefreshStatus::RejectedImplausible: return "rejected_implausible";
    case RefreshStatus::RejectedValidation: return "rejected_validation";
    case RefreshStatus::RejectedTimeout: return "rejected_timeout";
    case RefreshStatus::RejectedStale: return "rejected_stale";
    case RefreshStatus::Failed: return "failed";
  }
  return "unknown";
}

std::string_view refresh_stage_name(RefreshStage stage) {
  switch (stage) {
    case RefreshStage::None: return "none";
    case RefreshStage::Ingest: return "ingest";
    case RefreshStage::Select: return "select";
    case RefreshStage::Fit: return "fit";
    case RefreshStage::Plausibility: return "plausibility";
    case RefreshStage::Validation: return "validation";
    case RefreshStage::Publish: return "publish";
  }
  return "unknown";
}

namespace {

RefreshReport refresh_model_impl(core::LayoutEpoch& epoch,
                                 const RefreshConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  refresh_metrics().attempts.add();

  RefreshReport report;
  report.incumbent_generation = epoch.generation();
  const std::shared_ptr<const core::PublishedModel> incumbent = epoch.current();

  const auto finish = [&](RefreshStatus status,
                          std::string detail) -> RefreshReport {
    report.status = status;
    report.detail = std::move(detail);
    report.elapsed_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    count_exit(status);
    if (obs::enabled()) {
      refresh_metrics().seconds.observe(report.elapsed_s);
    }
    return report;
  };

  // --- Re-ingest the corpus and fit a candidate. Any throw here is a
  // pipeline failure, not a gate decision; report.stage (set by the
  // innermost StageScope) names the stage that threw.
  core::PowerModel candidate;
  acquire::HoldoutSplit split;
  try {
    if (config.trace_paths.empty()) {
      return finish(RefreshStatus::Failed, "no trace files configured");
    }
    std::vector<pmc::Preset> common_presets;
    {
      const StageScope stage(report, RefreshStage::Ingest, "refresh.ingest");
      acquire::Dataset dataset =
          acquire::ingest_trace_files(config.trace_paths, config.ingest);
      report.dataset_rows = dataset.size();
      obs::span_attr("rows", static_cast<std::uint64_t>(dataset.size()));
      if (dataset.size() < 8) {
        return finish(RefreshStatus::Failed,
                      "retraining corpus too small: " +
                          std::to_string(dataset.size()) + " rows");
      }
      common_presets = dataset.common_presets();
      split = acquire::split_holdout(dataset, config.holdout_fraction,
                                     config.holdout_seed);
      report.holdout_rows = split.holdout.size();
    }

    {
      const StageScope stage(report, RefreshStage::Select, "refresh.select");
      core::SelectionOptions selection;
      selection.count = config.event_count;
      selection.max_mean_vif = config.max_mean_vif;
      const core::SelectionResult selected =
          core::select_events(split.train, common_presets, selection);
      report.selected_events = selected.selected();
      obs::span_attr("events",
                     static_cast<std::uint64_t>(report.selected_events.size()));
    }

    {
      const StageScope stage(report, RefreshStage::Fit, "refresh.fit");
      core::FeatureSpec spec;
      spec.events = report.selected_events;
      candidate = core::train_model(split.train, spec);
      report.candidate_r_squared = candidate.fit().r_squared;
      obs::span_attr("r_squared", report.candidate_r_squared);
    }
  } catch (const std::exception& e) {
    return finish(RefreshStatus::Failed,
                  std::string("retrain pipeline error: ") + e.what());
  }

  // --- Fault hook: the candidate loses trailing coefficients between fit
  // and gate (a torn hand-off). The plausibility gate must catch it.
  if (config.injector != nullptr &&
      config.injector->fires(fault::FaultKind::TruncatedCandidate,
                             kRefreshFaultSite, config.attempt) &&
      !candidate.fit().beta.empty()) {
    regress::OlsResult torn = candidate.fit();
    torn.beta.pop_back();
    if (!torn.standard_error.empty()) {
      torn.standard_error.pop_back();
    }
    candidate = core::PowerModel(candidate.spec(), std::move(torn));
  }

  // --- Gate 1: plausibility. The candidate must survive the exact checks a
  // model file must pass (JSON round-trip re-validates coefficient counts
  // and finiteness) and must predict finite power on the holdout.
  std::vector<double> candidate_predicted;
  {
    const StageScope stage(report, RefreshStage::Plausibility,
                           "refresh.plausibility");
    try {
      (void)core::model_from_json(core::model_to_json(candidate));
      // Score the holdout with PowerModel::predict, as the incumbent is
      // scored below: a torn model or a row the model cannot use throws
      // here and is rejected as implausible.
      candidate_predicted = candidate.predict(split.holdout);
    } catch (const std::exception& e) {
      return finish(RefreshStatus::RejectedImplausible,
                    std::string("plausibility gate: ") + e.what());
    }
    if (!finite_predictions(candidate_predicted)) {
      return finish(RefreshStatus::RejectedImplausible,
                    "plausibility gate: non-finite holdout prediction");
    }
  }

  // --- Gate 2: validation against the incumbent on the same holdout.
  try {
    const StageScope stage(report, RefreshStage::Validation,
                           "refresh.validation");
    const std::vector<double> actual = split.holdout.power();
    report.candidate_holdout_mape_pct = stats::mape(actual, candidate_predicted);
    obs::span_attr("candidate_mape_pct", report.candidate_holdout_mape_pct);
    if (obs::enabled()) {
      refresh_metrics().candidate_mape.set_unguarded(
          report.candidate_holdout_mape_pct);
    }
    // The incumbent may require events the new corpus never recorded; then
    // it cannot be scored and only the absolute ceiling applies.
    double incumbent_mape = std::numeric_limits<double>::infinity();
    try {
      const std::vector<double> incumbent_predicted =
          incumbent->model.predict(split.holdout);
      incumbent_mape = stats::mape(actual, incumbent_predicted);
    } catch (const std::exception&) {
    }
    report.incumbent_holdout_mape_pct = incumbent_mape;
    if (obs::enabled() && std::isfinite(incumbent_mape)) {
      refresh_metrics().incumbent_mape.set_unguarded(incumbent_mape);
    }

    const double validation_elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const bool watchdog_fired =
        validation_elapsed_s > kValidationDeadlineS ||
        (config.injector != nullptr &&
         config.injector->fires(fault::FaultKind::ValidationTimeout,
                                kRefreshFaultSite, config.attempt));
    if (watchdog_fired) {
      return finish(RefreshStatus::RejectedTimeout,
                    "validation watchdog expired");
    }

    if (report.candidate_holdout_mape_pct > config.max_holdout_mape_pct) {
      return finish(RefreshStatus::RejectedValidation,
                    "holdout MAPE " +
                        std::to_string(report.candidate_holdout_mape_pct) +
                        "% exceeds ceiling " +
                        std::to_string(config.max_holdout_mape_pct) + "%");
    }
    if (std::isfinite(incumbent_mape) &&
        report.candidate_holdout_mape_pct >
            incumbent_mape + config.max_mape_regression_pct) {
      return finish(RefreshStatus::RejectedValidation,
                    "holdout MAPE " +
                        std::to_string(report.candidate_holdout_mape_pct) +
                        "% regresses past incumbent " +
                        std::to_string(incumbent_mape) + "% + margin");
    }
  } catch (const std::exception& e) {
    return finish(RefreshStatus::Failed,
                  std::string("validation gate error: ") + e.what());
  }

  // --- Publish through the generation guard. A fault here models the
  // classic slow-retrainer race: publishing against a generation the
  // refresher never actually observed.
  const StageScope stage(report, RefreshStage::Publish, "refresh.publish");
  std::uint64_t expected = report.incumbent_generation;
  if (config.injector != nullptr &&
      config.injector->fires(fault::FaultKind::StaleLayoutPublish,
                             kRefreshFaultSite, config.attempt)) {
    expected = expected > 1 ? expected - 1 : expected + 1;
  }
  const std::optional<std::uint64_t> published =
      epoch.try_publish(std::move(candidate), expected);
  if (!published) {
    return finish(RefreshStatus::RejectedStale,
                  "epoch generation moved past " + std::to_string(expected));
  }
  report.published_generation = *published;
  obs::span_attr("generation", *published);
  return finish(RefreshStatus::Published,
                "published generation " + std::to_string(*published));
}

}  // namespace

RefreshReport refresh_model(core::LayoutEpoch& epoch,
                            const RefreshConfig& config) {
  RefreshReport report;
  {
    // Root span: the six stage scopes above are its children, so a sampled
    // refresh shows up in a trace as one tree with per-stage attribution.
    PWX_SPAN("serve.refresh_model");
    report = refresh_model_impl(epoch, config);
    obs::span_attr("status", refresh_status_name(report.status));
    obs::span_attr("stage", refresh_stage_name(report.stage));
  }
  // Flight-recorder trigger on any non-Published exit — after the root span
  // closed, so the dump's ring contains the whole refresh tree including
  // the breached stage's span.
  if (!report.published() && obs::flight().armed()) {
    obs::flight().trigger(std::string("refresh_") +
                          std::string(refresh_status_name(report.status)));
  }
  return report;
}

}  // namespace pwx::serve
