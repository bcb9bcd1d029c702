// Tests for the execution simulator.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pmc/activity.hpp"
#include "sim/engine.hpp"
#include "workloads/registry.hpp"

namespace pwx::sim {
namespace {

// The voltage sensors point at the engine's own DVFS table, so an engine
// must stay where it was built.
static_assert(!std::is_copy_constructible_v<Engine>);
static_assert(!std::is_move_constructible_v<Engine>);

RunConfig quick_config(double f = 2.4, std::size_t threads = 24,
                       std::uint64_t seed = 1) {
  RunConfig rc;
  rc.frequency_ghz = f;
  rc.threads = threads;
  rc.interval_s = 0.25;
  rc.duration_scale = 0.1;
  rc.seed = seed;
  return rc;
}

double mean_power(const RunResult& run) {
  double sum = 0;
  for (const IntervalRecord& iv : run.intervals) {
    sum += iv.measured_power_watts;
  }
  return sum / static_cast<double>(run.intervals.size());
}

const workloads::Workload& wl(const char* name) {
  static std::vector<workloads::Workload> all = workloads::all_workloads();
  for (const auto& w : all) {
    if (w.name == name) {
      return w;
    }
  }
  throw Error("unknown workload in test");
}

// ---------------------------------------------------------------- effective cpi

TEST(EffectiveCpi, MemoryPartScalesWithFrequency) {
  workloads::PhaseCharacter c;
  c.base_cpi = 0.5;
  c.mem_ns_per_inst = 1.0;
  EXPECT_DOUBLE_EQ(effective_cpi(c, 1.0), 1.5);
  EXPECT_DOUBLE_EQ(effective_cpi(c, 2.0), 2.5);
  c.mem_ns_per_inst = 0.0;
  EXPECT_DOUBLE_EQ(effective_cpi(c, 2.0), 0.5);  // core-bound: f-independent CPI
}

// ---------------------------------------------------------------- activity generation

TEST(Activity, CycleAccountingIsConsistent) {
  workloads::PhaseCharacter c;  // defaults
  Rng rng(1);
  const auto a = generate_core_activity(c, 2.4, 2.5, 1.0, 1.0, 1, rng);
  // Unhalted cycles ≈ interval * f (default unhalted_frac = 1).
  EXPECT_NEAR(a.cycles, 2.4e9, 0.15e9);
  EXPECT_NEAR(a.ref_cycles / a.cycles, 2.5 / 2.4, 1e-6);
  // IPC matches the CPI model.
  EXPECT_NEAR(a.instructions * effective_cpi(c, 2.4), a.cycles, 1e-3 * a.cycles);
  // Histogram entries never exceed total cycles.
  EXPECT_LE(a.full_issue_cycles, a.cycles);
  EXPECT_LE(a.stall_issue_cycles, a.cycles);
  EXPECT_LE(a.stall_compl_cycles, a.cycles);
}

TEST(Activity, InstructionMixFollowsFractions) {
  workloads::PhaseCharacter c;
  c.frac_load = 0.3;
  c.frac_branch_cn = 0.2;
  c.branch_misp_rate = 0.05;
  Rng rng(2);
  const auto a = generate_core_activity(c, 2.0, 2.5, 1.0, 1.0, 1, rng);
  EXPECT_NEAR(a.load_ins / a.instructions, 0.3, 0.02);
  EXPECT_NEAR(a.branch_cn / a.instructions, 0.2, 0.02);
  EXPECT_NEAR(a.branch_misp / a.branch_cn, 0.05, 0.01);
  EXPECT_LE(a.branch_taken, a.branch_cn);
}

TEST(Activity, SlowdownScalesInstructionsNotCycles) {
  workloads::PhaseCharacter c;
  Rng rng1(3);
  Rng rng2(3);
  const auto full = generate_core_activity(c, 2.4, 2.5, 1.0, 1.0, 1, rng1);
  const auto half = generate_core_activity(c, 2.4, 2.5, 1.0, 0.5, 1, rng2);
  EXPECT_NEAR(half.instructions / full.instructions, 0.5, 1e-9);
  EXPECT_NEAR(half.cycles, full.cycles, 1e-9);
}

TEST(Activity, ContentionRaisesL3MissesWithCoRunners) {
  workloads::PhaseCharacter c;
  c.cache_contention = 1.0;
  c.l3_ld_mpki = 2.0;
  c.variability_cv = 0.0;
  double alone = 0;
  double crowded = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    Rng r1(s);
    Rng r2(s);
    alone += generate_core_activity(c, 2.4, 2.5, 1.0, 1.0, 1, r1).l3_load_miss;
    crowded += generate_core_activity(c, 2.4, 2.5, 1.0, 1.0, 24, r2).l3_load_miss;
  }
  EXPECT_NEAR(crowded / alone, 2.0, 0.1);  // contention = 1 → doubled at 24 cores
}

TEST(Activity, SnoopsRequirePeers) {
  workloads::PhaseCharacter c;
  c.snoop_pki_per_core = 0.1;
  Rng rng(4);
  const auto solo = generate_core_activity(c, 2.4, 2.5, 1.0, 1.0, 1, rng);
  EXPECT_DOUBLE_EQ(solo.snoop_requests, 0.0);
  const auto many = generate_core_activity(c, 2.4, 2.5, 1.0, 1.0, 12, rng);
  EXPECT_GT(many.snoop_requests, 0.0);
}

TEST(Activity, MemStallCyclesGrowWithFrequency) {
  workloads::PhaseCharacter c;
  c.base_cpi = 0.5;
  c.mem_ns_per_inst = 1.0;
  Rng r1(5);
  Rng r2(5);
  const auto slow = generate_core_activity(c, 1.2, 2.5, 1.0, 1.0, 1, r1);
  const auto fast = generate_core_activity(c, 2.6, 2.5, 1.0, 1.0, 1, r2);
  EXPECT_GT(fast.stall_compl_cycles / fast.cycles, slow.stall_compl_cycles / slow.cycles);
}

TEST(Activity, InvalidSlowdownRejected) {
  workloads::PhaseCharacter c;
  Rng rng(6);
  EXPECT_THROW(generate_core_activity(c, 2.4, 2.5, 1.0, 0.0, 1, rng), InvalidArgument);
  EXPECT_THROW(generate_core_activity(c, 2.4, 2.5, 1.0, 1.5, 1, rng), InvalidArgument);
}

// ---------------------------------------------------------------- engine

TEST(Engine, DeterministicForSameSeed) {
  const Engine engine = Engine::haswell_ep();
  const auto a = engine.run(wl("compute"), quick_config(2.4, 8, 77));
  const auto b = engine.run(wl("compute"), quick_config(2.4, 8, 77));
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.intervals[i].measured_power_watts,
                     b.intervals[i].measured_power_watts);
    EXPECT_DOUBLE_EQ(a.intervals[i].counts.instructions,
                     b.intervals[i].counts.instructions);
  }
}

TEST(Engine, DifferentSeedsDiffer) {
  const Engine engine = Engine::haswell_ep();
  const auto a = engine.run(wl("compute"), quick_config(2.4, 8, 1));
  const auto b = engine.run(wl("compute"), quick_config(2.4, 8, 2));
  EXPECT_NE(a.intervals[0].measured_power_watts, b.intervals[0].measured_power_watts);
}

TEST(Engine, PowerEnvelopeMatchesPlatform) {
  const Engine engine = Engine::haswell_ep();
  const double idle = mean_power(engine.run(wl("idle"), quick_config(2.4, 24)));
  const double stress = mean_power(engine.run(wl("addpd"), quick_config(2.6, 24)));
  EXPECT_GT(idle, 40.0);
  EXPECT_LT(idle, 80.0);
  EXPECT_GT(stress, 220.0);
  EXPECT_LT(stress, 340.0);
}

TEST(Engine, PowerMonotoneInThreads) {
  const Engine engine = Engine::haswell_ep();
  double prev = 0.0;
  for (std::size_t threads : {1u, 4u, 12u, 24u}) {
    const double p = mean_power(engine.run(wl("compute"), quick_config(2.4, threads)));
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(Engine, PowerMonotoneInFrequency) {
  const Engine engine = Engine::haswell_ep();
  double prev = 0.0;
  for (double f : {1.2, 1.6, 2.0, 2.4, 2.6}) {
    const double p = mean_power(engine.run(wl("compute"), quick_config(f, 24)));
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(Engine, VoltageTracksDvfsTable) {
  const Engine engine = Engine::haswell_ep();
  const auto low = engine.run(wl("busy_wait"), quick_config(1.2, 24));
  const auto high = engine.run(wl("busy_wait"), quick_config(2.6, 24));
  EXPECT_NEAR(low.intervals[0].measured_voltage, 0.75, 0.03);
  EXPECT_NEAR(high.intervals[0].measured_voltage, 1.04, 0.03);
}

TEST(Engine, MeasuredPowerTracksTruePower) {
  const Engine engine = Engine::haswell_ep();
  const auto run = engine.run(wl("md"), quick_config());
  for (const IntervalRecord& iv : run.intervals) {
    EXPECT_NEAR(iv.measured_power_watts / iv.true_power_watts, 1.0, 0.05);
  }
}

TEST(Engine, BandwidthCapLimitsMemoryScaling) {
  // memory_read at 24 threads must not deliver 24x the single-thread
  // instruction rate: the socket bandwidth ceiling throttles it.
  const Engine engine = Engine::haswell_ep();
  const auto one = engine.run(wl("memory_read"), quick_config(2.4, 1));
  const auto many = engine.run(wl("memory_read"), quick_config(2.4, 24));
  const double inst_one = one.intervals[0].counts.instructions;
  const double inst_many = many.intervals[0].counts.instructions;
  EXPECT_LT(inst_many / inst_one, 18.0);
}

TEST(Engine, ComputeScalesNearlyLinearly) {
  const Engine engine = Engine::haswell_ep();
  const auto one = engine.run(wl("compute"), quick_config(2.4, 1));
  const auto many = engine.run(wl("compute"), quick_config(2.4, 24));
  const double ratio = many.intervals[0].counts.instructions /
                       one.intervals[0].counts.instructions;
  EXPECT_GT(ratio, 20.0);  // no bandwidth bottleneck for ALU work
}

TEST(Engine, MultiPhaseWorkloadEmitsAllPhases) {
  const Engine engine = Engine::haswell_ep();
  RunConfig rc = quick_config();
  rc.duration_scale = 0.2;
  const auto run = engine.run(wl("md"), rc);
  std::set<std::string> phases;
  for (const IntervalRecord& iv : run.intervals) {
    phases.insert(iv.phase);
  }
  EXPECT_EQ(phases.size(), 2u);
}

TEST(Engine, WallTimeMatchesScaledDuration) {
  const Engine engine = Engine::haswell_ep();
  RunConfig rc = quick_config();
  rc.duration_scale = 0.5;
  const auto run = engine.run(wl("compute"), rc);  // nominal 10 s
  EXPECT_NEAR(run.wall_time_s, 5.0, 0.5);
}

TEST(Engine, ContentVariationSharedAcrossSeedsOfSameConfig) {
  // Two runs with different run seeds but the same (workload, f, threads)
  // draw the same content factor — their power difference is only noise.
  const Engine engine = Engine::haswell_ep();
  const double p1 = mean_power(engine.run(wl("nab"), quick_config(2.4, 24, 1)));
  const double p2 = mean_power(engine.run(wl("nab"), quick_config(2.4, 24, 999)));
  EXPECT_NEAR(p1 / p2, 1.0, 0.03);
}

TEST(Engine, RejectsInvalidConfigs) {
  const Engine engine = Engine::haswell_ep();
  RunConfig rc = quick_config();
  rc.frequency_ghz = 0.4;
  EXPECT_THROW(engine.run(wl("compute"), rc), InvalidArgument);
  rc = quick_config();
  rc.threads = 0;
  EXPECT_THROW(engine.run(wl("compute"), rc), InvalidArgument);
  rc = quick_config();
  rc.threads = 25;
  EXPECT_THROW(engine.run(wl("compute"), rc), InvalidArgument);
  rc = quick_config();
  rc.interval_s = 0.0;
  EXPECT_THROW(engine.run(wl("compute"), rc), InvalidArgument);
}

TEST(Engine, IdleWorkloadHasLowCycleActivity) {
  const Engine engine = Engine::haswell_ep();
  const auto run = engine.run(wl("idle"), quick_config(2.4, 24));
  const auto& counts = run.intervals[0].counts;
  // Unhalted fraction ~2%: cycles far below 24 cores * f * interval.
  EXPECT_LT(counts.cycles, 0.1 * 24 * 2.4e9 * 0.25);
}

// ---------------------------------------------------------------- golden digest

/// FNV-1a over the bytes of each value added, in order.
class Digest {
public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_arithmetic_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }

  void add(const std::string& text) {
    add(text.size());
    for (const char ch : text) {
      add(ch);
    }
  }

  /// Every member of ActivityCounts is a double, so the array view covers
  /// them all; a new member fails this cast until the golden is re-captured.
  void add(const pmc::ActivityCounts& counts) {
    for (const double value : std::bit_cast<std::array<double, 36>>(counts)) {
      add(value);
    }
  }

  std::uint64_t value() const { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// The simulator's bit-identity pin: every field of every interval of a few
// short runs, and a few hundred direct per-core draws, hash to one value.
// The runs cover the bandwidth cap (memory_read at 24 threads, slowdown < 1),
// a two-phase workload at both ends of the DVFS range, and idle cores running
// the OS background. Any change to the RNG stream or to the arithmetic that
// turns draws into counts, power or voltage moves the digest; so does a libm
// whose exp, log or sincos rounds differently (as for
// bench/repro_transcript.txt).
TEST(Engine, GoldenDigestPinsEverySimulatedStatistic) {
  const Engine engine = Engine::haswell_ep();
  Digest digest;
  const auto add_run = [&](const char* name, double f, std::size_t threads,
                           std::uint64_t seed) {
    const RunResult run = engine.run(wl(name), quick_config(f, threads, seed));
    for (const IntervalRecord& iv : run.intervals) {
      digest.add(iv.t_begin_s);
      digest.add(iv.t_end_s);
      digest.add(iv.phase);
      digest.add(iv.counts);
      digest.add(iv.measured_power_watts);
      digest.add(iv.true_power_watts);
      digest.add(iv.measured_voltage);
      digest.add(iv.active_threads);
    }
    digest.add(run.wall_time_s);
  };
  add_run("memory_read", 2.4, 1, 11);
  add_run("memory_read", 2.4, 24, 12);
  add_run("md", 1.2, 8, 13);
  add_run("md", 2.6, 8, 14);
  add_run("idle", 2.4, 24, 15);

  // Direct draws over every registry phase and a zero-variability one (the
  // cv floors), with and without the bandwidth slowdown and co-runners.
  std::vector<workloads::PhaseCharacter> phases(1);
  phases[0].variability_cv = 0.0;
  for (const workloads::Workload& w : workloads::all_workloads()) {
    phases.insert(phases.end(), w.phases.begin(), w.phases.end());
  }
  Rng rng(16);
  for (const workloads::PhaseCharacter& phase : phases) {
    for (const double f : {1.2, 2.6}) {
      for (const double slowdown : {1.0, 0.35}) {
        for (const std::size_t coactive : {1u, 12u, 24u}) {
          digest.add(generate_core_activity(phase, f, 2.5, 0.2, slowdown, coactive, rng));
        }
      }
    }
  }
  EXPECT_EQ(digest.value(), 0x250aa97416ea43ffULL);
}

class EngineFrequencySweep : public ::testing::TestWithParam<double> {};

TEST_P(EngineFrequencySweep, MemoryBoundWorkloadGainsLittleFromFrequency) {
  const Engine engine = Engine::haswell_ep();
  const double f = GetParam();
  const auto run = engine.run(wl("memory_read"), quick_config(f, 12));
  const auto& counts = run.intervals[0].counts;
  const double inst_rate = counts.instructions / 0.25;
  // Instruction rate is bandwidth-capped: roughly flat across frequency.
  EXPECT_GT(inst_rate, 2e9);
  EXPECT_LT(inst_rate, 3e10);
}

INSTANTIATE_TEST_SUITE_P(Frequencies, EngineFrequencySweep,
                         ::testing::Values(1.2, 1.6, 2.0, 2.4, 2.6));

}  // namespace
}  // namespace pwx::sim
