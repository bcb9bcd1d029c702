#include "trace/profile_campaign.hpp"

#include <cstring>
#include <exception>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "trace/mapped.hpp"

namespace pwx::trace {

namespace {

/// Merge key: workload, phase, frequency bit pattern, thread count. The
/// frequency is keyed by its exact bit pattern (not a printed form), matching
/// the == comparison merge_profiles enforces.
std::string merge_key(const PhaseProfile& profile) {
  std::string key;
  key.reserve(profile.workload.size() + profile.phase.size() + 32);
  key += profile.workload;
  key += '\0';
  key += profile.phase;
  key += '\0';
  char bits[sizeof(double)];
  std::memcpy(bits, &profile.frequency_ghz, sizeof bits);
  key.append(bits, sizeof bits);
  key += '\0';
  key += std::to_string(profile.threads);
  return key;
}

}  // namespace

std::vector<PhaseProfile> ProfileCampaign::run() const {
  // Stage 1: read + profile each file independently. Results land in their
  // input slot, so the aggregation below never depends on scheduling.
  std::vector<std::vector<PhaseProfile>> per_file(paths_.size());
  std::vector<std::exception_ptr> failures(paths_.size());

  const bool parallel = options_.parallel && paths_.size() > 1;
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    // Exceptions must not escape the OpenMP region; they are captured per
    // slot and rethrown deterministically afterwards.
    try {
      // One root span per file: on OpenMP workers each lands in that
      // thread's ring, so a traced campaign shows the real parallel shape.
      PWX_SPAN("ingest.file");
      obs::span_attr("path", paths_[i]);
      const MappedTraceFile file =
          MappedTraceFile::open(paths_[i], {.verify_checksum = options_.verify_checksum});
      per_file[i] = build_phase_profiles(file.view());
    } catch (...) {
      failures[i] = std::current_exception();
    }
  }

  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (!failures[i]) {
      continue;
    }
    try {
      std::rethrow_exception(failures[i]);
    } catch (const IoError& e) {
      throw e.with_context("trace campaign: '" + paths_[i] + "'");
    } catch (const Error& e) {
      throw e.with_context("trace campaign: '" + paths_[i] + "'");
    }
  }

  // Stage 2: deterministic ordered merge. Keys appear in the output in the
  // order they first occur walking files in add order.
  if (!options_.merge) {
    std::vector<PhaseProfile> out;
    for (auto& profiles : per_file) {
      for (auto& profile : profiles) {
        out.push_back(std::move(profile));
      }
    }
    return out;
  }
  return merge_first_appearance(std::move(per_file));
}

std::vector<PhaseProfile> merge_first_appearance(
    std::vector<std::vector<PhaseProfile>> per_file) {
  PWX_SPAN("ingest.merge");
  std::vector<std::vector<PhaseProfile>> groups;
  std::unordered_map<std::string, std::size_t> group_index;
  for (auto& profiles : per_file) {
    for (auto& profile : profiles) {
      const auto [it, inserted] =
          group_index.emplace(merge_key(profile), groups.size());
      if (inserted) {
        groups.emplace_back();
      }
      groups[it->second].push_back(std::move(profile));
    }
  }

  std::vector<PhaseProfile> out;
  out.reserve(groups.size());
  for (const auto& group : groups) {
    out.push_back(merge_profiles(group));
  }
  return out;
}

std::vector<PhaseProfile> profile_trace_files(const std::vector<std::string>& paths,
                                              ProfileCampaignOptions options) {
  ProfileCampaign campaign(options);
  campaign.add_files(paths);
  return campaign.run();
}

}  // namespace pwx::trace
