// Acquisition campaigns: the paper's data-acquisition + post-processing
// steps end to end.
//
// For every (workload, frequency, thread-count) configuration, the campaign
// schedules the requested PAPI presets into hardware-feasible event groups
// (pmc::schedule_events), executes one simulator run per group — each with
// its own seed, so runs genuinely differ — traces each run through the
// standard plugin set, post-processes traces into phase profiles, merges the
// profiles across runs, and appends the merged rows to a Dataset.
//
// Campaigns are embarrassingly parallel over runs and are parallelized with
// OpenMP when available.
//
// Acquisition is failure-aware: every run's phase profiles are validated
// (phase set, finite/positive power/voltage/time, sane counter rates), and a
// run that fails — or that a configured fault::FaultPlan flags — is
// re-executed with a derived seed, up to the campaign's max_attempts. A
// configuration whose runs keep failing is quarantined rather than merged,
// and everything that happened is surfaced in the Dataset's DataQuality.
#pragma once

#include <cstdint>
#include <vector>

#include "acquire/dataset.hpp"
#include "pmc/scheduler.hpp"
#include "sim/engine.hpp"
#include "trace/profile_campaign.hpp"
#include "workloads/registry.hpp"

namespace pwx::fault {
struct FaultPlan;
}  // namespace pwx::fault

namespace pwx::acquire {

/// What to acquire.
struct CampaignConfig {
  std::vector<workloads::Workload> workloads;
  std::vector<double> frequencies_ghz = {2.4};
  /// Thread counts swept for thread-scalable (roco2) workloads; workloads
  /// with thread_scalable == false always run with all 24 threads.
  std::vector<std::size_t> scalable_thread_counts = {1, 2, 4, 6, 8, 12, 16, 20, 24};
  std::size_t fixed_thread_count = 24;
  std::vector<pmc::Preset> events;     ///< presets to record (multiplexed)
  pmc::CounterBudget budget;           ///< per-run hardware constraint
  double interval_s = 0.25;            ///< metric sampling interval
  double duration_scale = 0.4;         ///< scales workloads' nominal durations
  std::uint64_t seed = 0xACD1;         ///< campaign-level seed
  /// Total executions allowed per event-group run (first try + retries);
  /// a run that fails validation or is flagged by fault injection is
  /// re-executed with a derived seed, and its configuration is quarantined
  /// once the attempts are spent. 1 quarantines without re-execution.
  std::size_t max_attempts = 3;
  /// Optional fault schedule (not owned; must outlive the campaign). When
  /// set, every run is perturbed per the plan before post-processing —
  /// the chaos-testing hook bench/robustness_campaign drives.
  const fault::FaultPlan* fault_plan = nullptr;
};

/// Execute a campaign on an engine. The returned Dataset carries a
/// DataQuality report (Dataset::quality) describing rejected runs, retries,
/// quarantined configurations, injected faults, and sanitization drops.
/// Throws only on invalid configuration.
Dataset run_campaign(const sim::Engine& engine, const CampaignConfig& config);

/// Ingestion knobs for ingest_trace_files: `verify_checksum = false`
/// defers the integrity pass for latency-critical re-reads of known-good
/// files. `mmap` is ignored (see trace::ProfileCampaignOptions).
using IngestOptions = trace::ProfileCampaignOptions;

/// Post-processing without re-acquisition: reduce already-recorded trace
/// files to a regression Dataset in one call. Every file is opened through
/// trace::MappedTraceFile::open (mapped or read by size) and phase-profiled
/// (OpenMP-parallel across files), same-key profiles are
/// merged across runs, rows are sanitized, and the sanitize report lands in
/// the Dataset's DataQuality. The result is bit-identical to a serial
/// read/profile/merge loop over the same paths, and to the same pipeline
/// over the in-memory traces that were written. Suites are resolved from
/// the workload registry (unknown workload names default to Suite::Roco2).
Dataset ingest_trace_files(const std::vector<std::string>& paths,
                           IngestOptions options = {});

/// The paper's standard acquisition: all workloads, all 54 Haswell-EP
/// presets, at the given frequencies. `seed` defaults to the fixed value the
/// reproduction benches share so every bench sees the same "measurement".
CampaignConfig standard_campaign_config(std::vector<double> frequencies_ghz,
                                        std::uint64_t seed = 0xACD1);

/// Cached standard datasets (acquired once per process, then shared):
/// the selection dataset (2.4 GHz only) and the full training dataset
/// (all five paper frequencies). Both record all 54 presets.
const Dataset& standard_selection_dataset();
const Dataset& standard_training_dataset();

}  // namespace pwx::acquire
