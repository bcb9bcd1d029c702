// Batch phase-profile ingestion: many trace files -> merged phase profiles.
//
// The paper's calibration campaign leaves one OTF2 trace per (workload,
// frequency, thread-count, counter-group) run; post-processing reduces the
// whole directory to one phase-profile table. ProfileCampaign does that
// reduction in a single call: every file is opened through
// MappedTraceFile::open and profiled independently (OpenMP-parallel across
// files when enabled), then profiles with the same (workload, phase,
// frequency, threads) key are merged across runs with elapsed-time weights
// — exactly what a serial read/profile/merge loop over the same files
// produces, bit for bit, regardless of thread count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/phase_profile.hpp"

namespace pwx::trace {

struct ProfileCampaignOptions {
  bool parallel = true;  ///< profile input files concurrently (OpenMP)
  bool merge = true;     ///< merge same-key profiles across runs
  /// Ignored. Every file is opened through MappedTraceFile::open, which
  /// maps or reads it by size (trace/mapped.hpp). The field stays only
  /// because the end-to-end benchmark (perfbench/retrain.cpp) assigns it.
  bool mmap = false;
  bool verify_checksum = true;  ///< false defers checksum footers (MapOptions)
};

/// Accumulates trace-file paths and reduces them to phase profiles.
class ProfileCampaign {
public:
  explicit ProfileCampaign(ProfileCampaignOptions options = {})
      : options_(options) {}

  void add_file(std::string path) { paths_.push_back(std::move(path)); }
  void add_files(const std::vector<std::string>& paths) {
    paths_.insert(paths_.end(), paths.begin(), paths.end());
  }

  std::size_t size() const { return paths_.size(); }
  const std::vector<std::string>& paths() const { return paths_; }

  /// Read + profile every file, then merge across runs. The result is
  /// deterministic: per-file profiles are combined in add order (first
  /// appearance of a key fixes its output position), independent of how the
  /// per-file stage was scheduled. Errors rethrow with the offending path
  /// prepended; when several files fail, the lowest-index failure wins.
  std::vector<PhaseProfile> run() const;

private:
  ProfileCampaignOptions options_;
  std::vector<std::string> paths_;
};

/// One-shot convenience wrapper around ProfileCampaign.
std::vector<PhaseProfile> profile_trace_files(const std::vector<std::string>& paths,
                                              ProfileCampaignOptions options = {});

/// The campaign's stage-2 reduction as a standalone step: merge same-key
/// profiles across the per-file groups, keys ordered by first appearance
/// walking the groups in input order. ProfileCampaign::run and the
/// incremental engine (trace/incremental.hpp) both reduce through this one
/// function, which is what makes a streamed campaign bit-identical to the
/// cold batch over the same files.
std::vector<PhaseProfile> merge_first_appearance(
    std::vector<std::vector<PhaseProfile>> per_file);

}  // namespace pwx::trace
