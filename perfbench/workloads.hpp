// The benchmark's workloads. Each one drives the library's public API in a
// closed loop of jobs: the next job starts when the previous one ends.
//
//   reproduce  the paper's offline job: campaign -> selection -> fit -> CV
//              -> scenario. The simulator does almost all of the work.
//   retrain    the serving side's model refresh over recorded trace files:
//              mapped ingest does most of the work, no simulator runs.
//   fleet      run-time estimation over a 16k-node fleet tree: estimation
//              kernels and shard folds do the work.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "acquire/campaign.hpp"
#include "acquire/dataset.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// One job's outcome: its wall time and whether its output checked out.
struct JobOutcome {
  double ms = 0.0;
  bool ok = true;
  std::string detail;  ///< why the check failed
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Build the workload's inputs from scratch, replacing earlier ones. Timed
  /// as setup_s; the runner calls it several times and reports the median.
  virtual void setup() = 0;

  /// One untraced job; the workload times the job itself and checks its
  /// output after the clock stops.
  virtual JobOutcome job() = 0;

  /// One traced job: the job's steps replayed from public functions under
  /// spans (one root span named "job" per job). `ms` is the job time the
  /// layer table divides up.
  virtual JobOutcome traced_job(SpanRecorder& spans) = 0;

  /// End-of-run checks against references computed in this run.
  virtual void verify(Checks& checks) = 0;

  /// Counter samples one job processes: simulated or ingested trace
  /// intervals, or reporting fleet nodes.
  virtual double samples_per_job() const = 0;

  /// MAPE of the model the jobs produce or serve, on rows it was not fit on.
  virtual double model_mape_pct() const = 0;

  /// Per-job counts and rows the spans cannot give (traced run only).
  virtual std::map<std::string, double> layer_counts() const = 0;

  /// Rows the layer table adds beside the spans' self times (ms per job).
  virtual std::map<std::string, double> extra_layer_ms() const { return {}; }
};

std::unique_ptr<Workload> make_reproduce(std::uint64_t seed);
std::unique_ptr<Workload> make_retrain(std::uint64_t seed, const std::string& work_dir);
std::unique_ptr<Workload> make_fleet(std::uint64_t seed);

// ----- shared by reproduce and retrain ------------------------------------

/// The campaign both offline workloads run: the quickstart's reduced
/// standard campaign (3 frequencies, 1/8/24 threads), seeded by `seed`.
pwx::acquire::CampaignConfig benchmark_campaign(std::uint64_t seed);

/// One simulator run of a campaign, in run_campaign's enumeration order.
struct PlannedRun {
  std::size_t unit = 0;   ///< configuration index
  std::size_t group = 0;  ///< event-group index within the configuration
  const pwx::workloads::Workload* workload = nullptr;
  double frequency_ghz = 0.0;
  std::size_t threads = 0;
  std::uint64_t seed = 0;
};

/// The campaign's configurations and event groups, with the seeds
/// run_campaign derives for each first attempt.
struct CampaignPlan {
  std::vector<pwx::pmc::EventGroup> groups;
  std::vector<PlannedRun> runs;  ///< unit-major, group-minor
  std::size_t units = 0;
};
CampaignPlan plan_campaign(const pwx::acquire::CampaignConfig& config);

/// FNV-1a digest over every field of every row, in row order.
std::uint64_t dataset_digest(const pwx::acquire::Dataset& dataset);

}  // namespace perfbench
