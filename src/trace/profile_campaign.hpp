// Batch phase-profile ingestion: many trace files -> merged phase profiles.
//
// The paper's calibration campaign leaves one OTF2 trace per (workload,
// frequency, thread-count, counter-group) run; post-processing reduces the
// whole directory to one phase-profile table. profile_trace_files does that
// reduction in a single call: every file is opened through
// MappedTraceFile::open and profiled independently (OpenMP-parallel across
// files), then profiles with the same (workload, phase,
// frequency, threads) key are merged across runs with elapsed-time weights
// — exactly what a serial read/profile/merge loop over the same files
// produces, bit for bit, regardless of thread count.
#pragma once

#include <string>
#include <vector>

#include "trace/phase_profile.hpp"

namespace pwx::trace {

struct ProfileCampaignOptions {
  /// Ignored. Every file is opened through MappedTraceFile::open, which
  /// maps or reads it by size (trace/mapped.hpp). The field stays only
  /// because the end-to-end benchmark (perfbench/retrain.cpp) assigns it.
  bool mmap = false;
  bool verify_checksum = true;  ///< false defers checksum footers (MapOptions)
};

/// Read + profile every file (OpenMP-parallel across files), then merge
/// across runs. The result is deterministic: per-file profiles are combined
/// in input order (first appearance of a key fixes its output position),
/// independent of how the per-file stage was scheduled. Errors rethrow with
/// the offending path prepended; when several files fail, the lowest-index
/// failure wins.
std::vector<PhaseProfile> profile_trace_files(const std::vector<std::string>& paths,
                                              ProfileCampaignOptions options = {});

/// The campaign's stage-2 reduction as a standalone step: merge same-key
/// profiles across the per-file groups, keys ordered by first appearance
/// walking the groups in input order. profile_trace_files and the
/// incremental engine (trace/incremental.hpp) both reduce through this one
/// function, which is what makes a streamed campaign bit-identical to the
/// cold batch over the same files.
std::vector<PhaseProfile> merge_first_appearance(
    std::vector<std::vector<PhaseProfile>> per_file);

}  // namespace pwx::trace
