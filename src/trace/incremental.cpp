#include "trace/incremental.hpp"

#include <chrono>
#include <exception>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "trace/mapped.hpp"

namespace pwx::trace {

namespace fs = std::filesystem;

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int64_t mtime_ns(const fs::directory_entry& entry) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             entry.last_write_time().time_since_epoch())
      .count();
}

}  // namespace

IncrementalCampaign::IncrementalCampaign(std::string directory,
                                         IncrementalCampaignOptions options)
    : directory_(std::move(directory)), options_(std::move(options)) {
  if (!options_.now_ns) {
    options_.now_ns = steady_now_ns;
  }
}

bool IncrementalCampaign::poll() {
  // Root span of one watcher iteration: per-file ingest spans and the merge
  // span inside merge_first_appearance become its children, so a traced
  // poll renders as one tree in Perfetto.
  PWX_SPAN("ingest.poll");
  stats_.polls += 1;

  // Scan: collect candidate files and their current (size, mtime).
  struct Seen {
    std::uint64_t size;
    std::int64_t mtime;
  };
  std::map<std::string, Seen> on_disk;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    if (!options_.extension.empty() &&
        entry.path().extension() != options_.extension) {
      continue;
    }
    on_disk.emplace(entry.path().string(),
                    Seen{entry.file_size(), mtime_ns(entry)});
  }
  // A missing directory is an empty scan, not an error: the producer may
  // not have created it yet (any other iteration error degrades the same
  // way and shows up as files disappearing, which the caller can observe).

  bool changed = false;

  // Drop state for files that vanished.
  for (auto it = files_.begin(); it != files_.end();) {
    if (on_disk.find(it->first) == on_disk.end()) {
      it = files_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }

  // Ingest new and changed files only — the O(changed files) core.
  std::uint64_t ingested = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_mapped = 0;
  std::uint64_t bytes_copied = 0;
  for (const auto& [path, seen] : on_disk) {
    const auto it = files_.find(path);
    if (it != files_.end() && it->second.size == seen.size &&
        it->second.mtime_ns == seen.mtime) {
      continue;  // unchanged — cached profiles stay authoritative
    }
    FileState state;
    state.size = seen.size;
    state.mtime_ns = seen.mtime;
    try {
      PWX_SPAN("ingest.file");
      obs::span_attr("path", path);
      const MappedTraceFile file = MappedTraceFile::open(
          path, {.verify_checksum = options_.campaign.verify_checksum});
      state.profiles = build_phase_profiles(file.view());
      bytes_mapped += file.bytes_mapped();
      bytes_copied += file.bytes_copied();
      ingested += 1;
    } catch (const Error& e) {
      state.failed = true;
      state.error = e.what();
      state.profiles.clear();
      failed += 1;
      // Trace-IO corruption is a flight-recorder trigger: the dump's span
      // ring still holds the failed ingest.file span (it closed during
      // unwinding) plus whatever led up to it.
      PWX_LOG_WARN("incremental ingest quarantined '", path, "': ", e.what());
      if (obs::flight().armed()) {
        obs::flight().trigger("trace_io_corruption");
      }
    }
    files_[path] = std::move(state);
    changed = true;
  }

  stats_.files_ingested += ingested;
  stats_.files_failed += failed;
  stats_.bytes_mapped += bytes_mapped;
  stats_.bytes_copied += bytes_copied;

  if (!changed) {
    return false;
  }

  // Republish: the same stage-2 reduction a cold batch runs, over cached
  // per-file profiles in sorted-path (= batch add) order.
  const std::uint64_t t0 = options_.now_ns();
  std::vector<std::vector<PhaseProfile>> per_file;
  per_file.reserve(files_.size());
  for (const auto& [path, state] : files_) {
    if (!state.failed) {
      per_file.push_back(state.profiles);  // copy: the cache stays reusable
    }
  }
  profiles_ = merge_first_appearance(std::move(per_file));
  const std::uint64_t t1 = options_.now_ns();
  stats_.republishes += 1;
  stats_.last_republish_ns = t1 >= t0 ? t1 - t0 : 0;

  if (obs::enabled()) {
    auto& reg = obs::registry();
    static obs::Counter& files_counter = reg.counter(
        "ingestd.files_ingested", "trace files (re)ingested by incremental campaigns");
    static obs::Counter& failed_counter = reg.counter(
        "ingestd.files_failed", "trace files whose incremental ingestion failed");
    static obs::Counter& mapped_counter = reg.counter(
        "ingestd.bytes_mapped", "trace bytes served zero-copy from mappings");
    static obs::Counter& copied_counter = reg.counter(
        "ingestd.bytes_copied", "trace bytes copied in by read()");
    static obs::Counter& republish_counter =
        reg.counter("ingestd.republishes", "merged profile tables republished");
    static obs::Histogram& republish_seconds = reg.histogram(
        "ingestd.republish_seconds", obs::Histogram::default_time_bounds(),
        "merge latency per republish");
    files_counter.add_unguarded(ingested);
    failed_counter.add_unguarded(failed);
    mapped_counter.add_unguarded(bytes_mapped);
    copied_counter.add_unguarded(bytes_copied);
    republish_counter.add_unguarded(1);
    republish_seconds.observe(static_cast<double>(stats_.last_republish_ns) * 1e-9);
  }
  return true;
}

std::vector<std::string> IncrementalCampaign::paths() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, state] : files_) {
    out.push_back(path);
  }
  return out;
}

std::map<std::string, std::string> IncrementalCampaign::errors() const {
  std::map<std::string, std::string> out;
  for (const auto& [path, state] : files_) {
    if (state.failed) {
      out.emplace(path, state.error);
    }
  }
  return out;
}

}  // namespace pwx::trace
