// Incremental streaming campaigns: watch a directory of trace files and keep
// a merged phase-profile table current as runs land.
//
// The paper's calibration campaign writes one OTF2-lite file per (workload,
// frequency, thread-count, counter-group) run, over hours. ProfileCampaign
// reduces a *finished* directory in one shot; IncrementalCampaign is the
// streaming counterpart: each poll() scans the directory, ingests only files
// that are new or whose (size, mtime) changed, caches their per-file
// profiles, and republishes the merged table. The reduction runs through the
// same merge_first_appearance stage over files in path-sorted order, so the
// published table is bit-identical to a cold ProfileCampaign batch over the
// directory's sorted file list — a test asserts exactly that, and the
// per-poll work is O(changed files), witnessed by stats()/obs counters.
//
// No wall-clock dependence: polling cadence belongs to the caller (the
// pwx-ingestd tool sleeps between polls; tests call poll() directly), and
// the republish-latency stopwatch is an injected clock, so tests run with a
// fake clock and stay deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace/profile_campaign.hpp"

namespace pwx::trace {

struct IncrementalCampaignOptions {
  /// Ingestion knobs reused from the batch campaign; only verify_checksum
  /// applies. `merge` is ignored (the published table is always the merged
  /// reduction), and so are `parallel` and `mmap`.
  ProfileCampaignOptions campaign;
  /// Only files with this extension are picked up ("" accepts everything).
  std::string extension = ".otf2l";
  /// Monotonic nanosecond clock for the republish-latency stopwatch.
  /// Defaults to std::chrono::steady_clock; tests inject a fake.
  std::function<std::uint64_t()> now_ns;
};

/// Counters describing the work a campaign has done so far. files_ingested
/// counts (re)ingestions, not files known — a poll over an unchanged
/// directory adds zero, which is how tests pin the O(changed files) claim.
struct IncrementalCampaignStats {
  std::uint64_t polls = 0;
  std::uint64_t files_ingested = 0;   ///< successful (re)ingestions
  std::uint64_t files_failed = 0;     ///< ingestions that threw
  std::uint64_t republishes = 0;
  std::uint64_t bytes_mapped = 0;     ///< mapped bytes across ingestions
  std::uint64_t bytes_copied = 0;     ///< read() bytes across ingestions
  std::uint64_t last_republish_ns = 0;  ///< stopwatch time of the last merge
};

/// Resumable directory-watching campaign. Not thread-safe; one poller.
class IncrementalCampaign {
public:
  explicit IncrementalCampaign(std::string directory,
                               IncrementalCampaignOptions options = {});

  /// One scan-ingest-republish cycle. Returns true when the published
  /// profiles changed (some file was added, changed, or removed). A missing
  /// directory is not an error — it counts as empty (the producer may not
  /// have created it yet).
  bool poll();

  /// The current merged table (last republish). Order matches a cold
  /// ProfileCampaign over paths() in sorted order.
  const std::vector<PhaseProfile>& profiles() const { return profiles_; }

  const IncrementalCampaignStats& stats() const { return stats_; }

  /// Paths currently known, sorted (the cold-batch input order).
  std::vector<std::string> paths() const;

  /// Files whose last ingestion failed, with the error message. A failed
  /// file is excluded from the published table, remembered, and retried
  /// only when its (size, mtime) changes.
  std::map<std::string, std::string> errors() const;

private:
  struct FileState {
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;
    bool failed = false;
    std::string error;
    std::vector<PhaseProfile> profiles;
  };

  std::string directory_;
  IncrementalCampaignOptions options_;
  /// Keyed by path: std::map keeps files in sorted-path order, which *is*
  /// the cold-batch add order the equivalence guarantee is stated against.
  std::map<std::string, FileState> files_;
  std::vector<PhaseProfile> profiles_;
  IncrementalCampaignStats stats_;
};

}  // namespace pwx::trace
