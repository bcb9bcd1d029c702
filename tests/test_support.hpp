// Helpers shared by the test binaries: per-process scratch directories that
// are removed when the binary exits, traces large enough for the file
// reader's mmap path, and a bit-exact phase-profile comparison.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "pmc/events.hpp"
#include "trace/mapped.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "trace/trace.hpp"

namespace pwx::test {

/// `<temp dir>/<prefix>_<pid>`. gtest_discover_tests runs every case as its
/// own process, so keying by pid keeps concurrent cases from rewriting each
/// other's fixture files.
inline std::filesystem::path scratch_path(const std::string& prefix) {
  return std::filesystem::temp_directory_path() /
         (prefix + "_" + std::to_string(::getpid()));
}

/// Removes one scratch directory tree after the last test of the process.
class RemoveScratchDir final : public ::testing::Environment {
public:
  explicit RemoveScratchDir(std::filesystem::path path) : path_(std::move(path)) {}

  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

private:
  std::filesystem::path path_;
};

/// Register the removal of scratch_path(prefix) at the end of the test
/// program. Call it from a namespace-scope initializer, so the environment
/// exists before RUN_ALL_TESTS starts; gtest owns the returned object.
inline ::testing::Environment* remove_scratch_at_exit(const std::string& prefix) {
  return ::testing::AddGlobalTestEnvironment(new RemoveScratchDir(scratch_path(prefix)));
}

/// A campaign-shaped trace whose v4 file is at least `min_bytes` long
/// (default: the reader's mapping threshold): three phase regions per rep,
/// each with 100 power/voltage samples and TOT_CYC/TOT_INS increments. A
/// rep serializes to ~25 KB; `salt` varies the values.
inline trace::Trace large_trace(std::uint64_t salt,
                                std::size_t min_bytes = trace::kMapMinBytes) {
  trace::Trace t;
  t.set_attribute("workload", "md");
  t.set_attribute("frequency_ghz", 2.4);
  t.set_attribute("threads", 24.0);
  const auto power = t.define_metric({"power", "W", trace::MetricMode::AsyncAverage});
  const auto volt = t.define_metric({"core_voltage", "V", trace::MetricMode::AsyncInstant});
  const std::uint32_t counters[] = {
      t.define_metric({trace::ApapiPlugin::metric_name(pmc::Preset::TOT_CYC), "events",
                       trace::MetricMode::CounterIncrement}),
      t.define_metric({trace::ApapiPlugin::metric_name(pmc::Preset::TOT_INS), "events",
                       trace::MetricMode::CounterIncrement})};
  const std::size_t reps = min_bytes / (3 * 402 * trace::format::kEventBytes) + 1;
  std::uint64_t now = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const char* phase : {"compute", "memory", "idle"}) {
      t.append(trace::RegionEnter{now, phase});
      for (std::uint64_t i = 0; i < 100; ++i) {
        now += 1000000;
        t.append(trace::MetricEvent{now, power, 90.0 + static_cast<double>((i + salt) % 13)});
        t.append(trace::MetricEvent{now, volt, 0.9});
        for (const std::uint32_t c : counters) {
          t.append(trace::MetricEvent{now, c, 1.0e8 + static_cast<double>((c + salt) * i)});
        }
      }
      t.append(trace::RegionExit{now, phase});
      now += 1000000;
    }
  }
  return t;
}

/// Every field of every profile equal, doubles compared exactly.
inline void expect_profiles_bit_identical(const std::vector<trace::PhaseProfile>& a,
                                          const std::vector<trace::PhaseProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(a[i].frequency_ghz, b[i].frequency_ghz);  // exact, not NEAR
    EXPECT_EQ(a[i].threads, b[i].threads);
    EXPECT_EQ(a[i].start_s, b[i].start_s);
    EXPECT_EQ(a[i].end_s, b[i].end_s);
    EXPECT_EQ(a[i].elapsed_s, b[i].elapsed_s);
    EXPECT_EQ(a[i].avg_power_watts, b[i].avg_power_watts);
    EXPECT_EQ(a[i].avg_voltage, b[i].avg_voltage);
    EXPECT_EQ(a[i].counter_rates, b[i].counter_rates);
    EXPECT_EQ(a[i].runs_merged, b[i].runs_merged);
  }
}

}  // namespace pwx::test
