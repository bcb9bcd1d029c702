// Phase-profile generation (the paper's post-processing step).
//
// "The resulting phase profile contains the start and end time, the average
// over time for each async metric, the average value of the recorded PMC
// values, the number of active threads, and the identification of the
// application." This module scans an OTF2-lite trace and produces exactly
// those rows: one per phase, with time-weighted averages for async metrics
// and per-second rates for counter metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "pmc/events.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace pwx::trace {

/// One row of a phase profile.
struct PhaseProfile {
  std::string workload;
  std::string phase;
  double frequency_ghz = 0;
  std::size_t threads = 0;
  double start_s = 0;
  double end_s = 0;
  double elapsed_s = 0;                ///< total time attributed to the phase
  double avg_power_watts = 0;
  double avg_voltage = 0;
  std::map<pmc::Preset, double> counter_rates;  ///< events per second
  std::size_t runs_merged = 1;         ///< how many runs contributed

  /// Counter rate lookup; throws when the preset was not recorded.
  double rate(pmc::Preset preset) const;
  bool has(pmc::Preset preset) const;

  /// Event rate per nominal core cycle of the whole machine — the paper's
  /// E_n normalization ("the number of events per cpu cycle").
  double rate_per_cycle(pmc::Preset preset) const;
};

/// Build phase profiles from a trace (one row per distinct phase name; if a
/// phase region occurs multiple times its intervals are pooled).
std::vector<PhaseProfile> build_phase_profiles(const Trace& trace);

/// The same scan over a TraceView — the shared implementation both the owned
/// Trace overload and the file reader (trace/mapped.hpp) feed, so an
/// in-memory trace and the file it was written to produce bit-identical
/// profiles by construction.
std::vector<PhaseProfile> build_phase_profiles(const TraceView& trace);

/// Merge profiles of the *same workload/phase/frequency/thread-count* from
/// multiple runs: async metrics and counter rates are averaged with
/// elapsed-time weights; counters recorded in only some runs are carried
/// through (multiplexed acquisition). Throws if the keys differ.
PhaseProfile merge_profiles(const std::vector<PhaseProfile>& profiles);

}  // namespace pwx::trace
