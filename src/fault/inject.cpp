#include "fault/inject.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pwx::fault {

namespace {

// ActivityCounts is a standard-layout aggregate of native-event doubles;
// fault injection corrupts one of them picked uniformly, the way a glitching
// read corrupts whichever counter the kernel handed back last.
constexpr std::size_t kCounterFields = sizeof(pmc::ActivityCounts) / sizeof(double);
static_assert(sizeof(pmc::ActivityCounts) == kCounterFields * sizeof(double),
              "ActivityCounts must stay a pure double aggregate for fault injection");

double* counter_field(pmc::ActivityCounts& counts, std::size_t index) {
  return reinterpret_cast<double*>(&counts) + (index % kCounterFields);
}

/// Hardware counters on Haswell are 48 bits wide; a wrap shows up as the
/// value having lost 2^48.
constexpr double kCounterWrap = 281474976710656.0;  // 2^48

}  // namespace

void RunFaultReport::merge(const RunFaultReport& other) {
  for (const auto& [name, count] : other.injected) {
    injected[name] += count;
  }
  flagged = flagged || other.flagged;
}

RunFaultReport apply_run_faults(const FaultInjector& injector, const std::string& site,
                                sim::RunResult& run) {
  RunFaultReport report;
  const auto note = [&](FaultKind kind, bool detectable) {
    report.injected[std::string(fault_kind_name(kind))] += 1;
    report.flagged = report.flagged || detectable;
  };

  // Value-level faults on the original interval indices.
  for (std::size_t i = 0; i < run.intervals.size(); ++i) {
    sim::IntervalRecord& interval = run.intervals[i];
    if (i > 0 && injector.fires(FaultKind::StuckCounter, site, i)) {
      interval.counts = run.intervals[i - 1].counts;  // silent: looks plausible
      note(FaultKind::StuckCounter, false);
    }
    if (injector.fires(FaultKind::OverflowWrap, site, i)) {
      const std::size_t field = static_cast<std::size_t>(
          injector.draw(FaultKind::OverflowWrap, site, i) * kCounterFields);
      *counter_field(interval.counts, field) -= kCounterWrap;
      note(FaultKind::OverflowWrap, true);
    }
    if (injector.fires(FaultKind::NanDelta, site, i)) {
      const std::size_t field = static_cast<std::size_t>(
          injector.draw(FaultKind::NanDelta, site, i) * kCounterFields);
      *counter_field(interval.counts, field) = std::numeric_limits<double>::quiet_NaN();
      note(FaultKind::NanDelta, true);
    }
    if (injector.fires(FaultKind::NegativeDelta, site, i)) {
      const std::size_t field = static_cast<std::size_t>(
          injector.draw(FaultKind::NegativeDelta, site, i) * kCounterFields);
      double* value = counter_field(interval.counts, field);
      *value = -std::abs(*value) - 1.0;
      note(FaultKind::NegativeDelta, true);
    }
    if (injector.fires(FaultKind::PowerDropout, site, i)) {
      interval.measured_power_watts = 0.0;  // sensor self-reports out of range
      note(FaultKind::PowerDropout, true);
    }
    if (injector.fires(FaultKind::PowerSpike, site, i)) {
      interval.measured_power_watts *= injector.magnitude(FaultKind::PowerSpike);
      note(FaultKind::PowerSpike, true);
    }
  }

  // Structural faults: drop / duplicate samples.
  std::vector<sim::IntervalRecord> restructured;
  restructured.reserve(run.intervals.size() + 4);
  for (std::size_t i = 0; i < run.intervals.size(); ++i) {
    if (injector.fires(FaultKind::DropSample, site, i)) {
      note(FaultKind::DropSample, true);  // the timeline gap is observable
      continue;
    }
    restructured.push_back(run.intervals[i]);
    if (injector.fires(FaultKind::DuplicateSample, site, i)) {
      restructured.push_back(run.intervals[i]);  // silent: plausible duplicate
      note(FaultKind::DuplicateSample, false);
    }
  }
  run.intervals = std::move(restructured);

  // Run truncation (the multiplexed run died early).
  if (!run.intervals.empty() && injector.fires(FaultKind::TruncateRun, site, 0)) {
    const double keep_frac =
        0.25 + 0.5 * injector.draw(FaultKind::TruncateRun, site, 0);
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(keep_frac *
                                               static_cast<double>(run.intervals.size()))));
    if (keep < run.intervals.size()) {
      run.intervals.resize(keep);
      note(FaultKind::TruncateRun, true);
    }
  }
  return report;
}

RunFaultReport corrupt_serialized(const FaultInjector& injector, const std::string& site,
                                  std::string& bytes) {
  RunFaultReport report;
  if (bytes.empty()) {
    return report;
  }
  // Up to four independent bit-flip opportunities per serialized run.
  for (std::uint64_t i = 0; i < 4; ++i) {
    if (!injector.fires(FaultKind::CorruptTraceByte, site, i)) {
      continue;
    }
    const double u = injector.draw(FaultKind::CorruptTraceByte, site, i);
    const std::size_t pos =
        std::min(bytes.size() - 1, static_cast<std::size_t>(u * static_cast<double>(bytes.size())));
    const int bit = static_cast<int>(u * 8.0) % 8;
    bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^ (1u << bit));
    report.injected[std::string(fault_kind_name(FaultKind::CorruptTraceByte))] += 1;
    report.flagged = true;
  }
  if (injector.fires(FaultKind::TruncateTrace, site, 0)) {
    const double keep_frac =
        0.2 + 0.6 * injector.draw(FaultKind::TruncateTrace, site, 0);
    const std::size_t keep = std::max<std::size_t>(
        8, static_cast<std::size_t>(keep_frac * static_cast<double>(bytes.size())));
    if (keep < bytes.size()) {
      bytes.resize(keep);
      report.injected[std::string(fault_kind_name(FaultKind::TruncateTrace))] += 1;
      report.flagged = true;
    }
  }
  return report;
}

}  // namespace pwx::fault
