// Guarded model retraining: one end-to-end refresh_model() call.
//
// This is the pipeline a drift trigger launches: re-ingest the retraining
// corpus (recorded trace files) into a dataset, re-run event selection and
// the Equation-1 fit on a training split, then put the candidate through two
// gates before it may touch the serving path:
//
//   1. Plausibility — the candidate must survive a model_io JSON round-trip
//      (the same checks a deployed model file must pass: coefficient counts
//      matching the spec, finite coefficients) and produce finite
//      predictions on the holdout. Catches structurally broken candidates,
//      including the TruncatedCandidate fault.
//   2. Validation — holdout MAPE must beat an absolute ceiling and must not
//      regress against the *incumbent* model's MAPE on the same holdout by
//      more than a configured margin. A candidate that is merely different
//      is not good enough to swap.
//
// Only then is the candidate published — and only through
// core::LayoutEpoch::try_publish with the generation observed at the start
// of the refresh, so a refresher racing a faster one can never clobber the
// newer publication (RejectedStale instead). Every exit path is recorded in
// serve.* counters and the returned RefreshReport; a rejected refresh leaves
// the epoch untouched, which *is* the rollback — readers never saw the
// candidate.
//
// Fault hooks (fault::FaultPlan) cover the refresh path itself:
// TruncatedCandidate corrupts the fitted coefficients before the gates,
// ValidationTimeout expires the validation watchdog (60 s), StaleLayoutPublish
// makes the refresher publish against a generation it never observed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acquire/campaign.hpp"
#include "core/epoch.hpp"
#include "fault/fault.hpp"
#include "pmc/events.hpp"

namespace pwx::serve {

/// Why a refresh ended the way it did.
enum class RefreshStatus {
  Published,            ///< candidate passed both gates and was swapped in
  RejectedImplausible,  ///< failed the structural/round-trip plausibility gate
  RejectedValidation,   ///< holdout MAPE regressed beyond the margin or ceiling
  RejectedTimeout,      ///< validation watchdog expired
  RejectedStale,        ///< epoch moved on; try_publish refused the candidate
  Failed,               ///< pipeline error before any gate (ingest/fit threw)
};

std::string_view refresh_status_name(RefreshStatus status);

/// The pipeline stage a refresh ended in. Every stage is timed into a
/// `serve.refresh.stage_seconds.<stage>` histogram and wrapped in a child
/// span of "serve.refresh_model" (refresh.<stage>), so stage latency is
/// visible in plain metrics with tracing off and causally attributed with
/// tracing on. On any non-Published exit, RefreshReport::stage names the
/// breached stage.
enum class RefreshStage {
  None,          ///< exited before the first stage ran
  Ingest,        ///< corpus ingest + holdout split
  Select,        ///< event selection over the training split
  Fit,           ///< Equation-1 fit of the candidate
  Plausibility,  ///< structural round-trip + finite-prediction gate
  Validation,    ///< holdout-MAPE gate vs ceiling and incumbent
  Publish,       ///< generation-guarded epoch swap
};

std::string_view refresh_stage_name(RefreshStage stage);

/// Everything refresh_model needs.
struct RefreshConfig {
  /// Retraining corpus: recorded trace files (ingest_trace_files).
  std::vector<std::string> trace_paths;
  acquire::IngestOptions ingest;

  /// Event selection for the candidate (Algorithm 1 over the corpus's
  /// common presets).
  std::size_t event_count = 6;
  double max_mean_vif = 40.0;

  /// Seeded train/holdout split for the validation gate.
  double holdout_fraction = 0.25;
  std::uint64_t holdout_seed = 0x5EED;

  /// Validation gate: candidate holdout MAPE must be <= this ceiling ...
  double max_holdout_mape_pct = 15.0;
  /// ... and <= incumbent holdout MAPE + this margin (percentage points).
  double max_mape_regression_pct = 1.0;

  /// Optional refresh-path fault injection (not owned; may be null). Its
  /// decisions are keyed on the site "serve/refresh" with `attempt` as the
  /// occurrence index, so a plan can fire on, say, exactly the third refresh.
  const fault::FaultInjector* injector = nullptr;
  std::uint64_t attempt = 0;
};

/// What happened, for logs, tests, and the supervisor's provenance trail.
struct RefreshReport {
  RefreshStatus status = RefreshStatus::Failed;
  /// Stage the pipeline exited in: the breached stage for rejections and
  /// failures, Publish for a successful refresh.
  RefreshStage stage = RefreshStage::None;
  std::uint64_t incumbent_generation = 0;  ///< generation observed at start
  std::uint64_t published_generation = 0;  ///< 0 unless status == Published
  std::size_t dataset_rows = 0;
  std::size_t holdout_rows = 0;
  std::vector<pmc::Preset> selected_events;
  double candidate_r_squared = 0.0;
  double candidate_holdout_mape_pct = 0.0;
  double incumbent_holdout_mape_pct = 0.0;
  double elapsed_s = 0.0;
  std::string detail;  ///< human-readable reason for the exit path

  bool published() const { return status == RefreshStatus::Published; }
};

/// Run the full retrain pipeline against `epoch`. Never throws: every
/// failure mode is a RefreshStatus. On any non-Published status the epoch is
/// untouched — serving continues on the incumbent publication.
RefreshReport refresh_model(core::LayoutEpoch& epoch, const RefreshConfig& config);

}  // namespace pwx::serve
