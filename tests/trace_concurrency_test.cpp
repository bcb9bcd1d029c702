// Concurrent trace-file opens on plain std::threads. ProfileCampaign opens
// files from OpenMP workers, but libgomp is not TSan-instrumented, so the
// TSan job cannot run trace_test or mapped_test; this binary runs no OpenMP
// region and calls the same per-file work — MappedTraceFile::open on both
// byte sources, then build_phase_profiles — from several threads at once.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "pmc/events.hpp"
#include "sim/engine.hpp"
#include "trace/mapped.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

#include "test_support.hpp"

namespace pwx::trace {
namespace {

[[maybe_unused]] const auto* const kScratchCleanup =
    test::remove_scratch_at_exit("pwx_trace_concurrency_test");

constexpr std::size_t kThreads = 4;
constexpr std::size_t kRoundsPerThread = 8;

std::vector<PhaseProfile> profile_file(const std::string& path) {
  return build_phase_profiles(MappedTraceFile::open(path).view());
}

TEST(ConcurrentOpen, ReadAndMappedFilesMatchSerialBitIdentical) {
  const auto dir = test::scratch_path("pwx_trace_concurrency_test");
  std::filesystem::create_directories(dir);
  sim::RunConfig rc;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.1;
  const std::string small = (dir / "small.otf2l").string();
  const std::string large = (dir / "large.otf2l").string();
  write_trace_file(build_standard_trace(sim::Engine::haswell_ep().run(
                                            *workloads::find_workload("md"), rc),
                                        {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS}),
                   small);
  write_trace_file(test::large_trace(7), large);
  ASSERT_FALSE(MappedTraceFile::open(small).mapped());
  ASSERT_TRUE(MappedTraceFile::open(large).mapped());

  const std::vector<std::string> paths = {small, large};
  std::vector<std::vector<PhaseProfile>> serial;
  for (const std::string& path : paths) {
    serial.push_back(profile_file(path));
  }

  // Each thread alternates between the two files, starting on a different
  // one, so read() and mmap opens overlap.
  std::vector<std::vector<std::vector<PhaseProfile>>> results(kThreads);
  std::vector<std::exception_ptr> failures(kThreads);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        try {
          for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
            results[t].push_back(profile_file(paths[(t + round) % paths.size()]));
          }
        } catch (...) {
          failures[t] = std::current_exception();
        }
      });
    }
  }

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(failures[t]) << "thread " << t << " threw";
    ASSERT_EQ(results[t].size(), kRoundsPerThread);
    for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
      SCOPED_TRACE("thread " + std::to_string(t) + " round " + std::to_string(round));
      test::expect_profiles_bit_identical(results[t][round],
                                          serial[(t + round) % paths.size()]);
    }
  }
}

}  // namespace
}  // namespace pwx::trace
