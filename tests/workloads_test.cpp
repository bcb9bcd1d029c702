// Tests for workload characterization and the roco2 / SPEC OMP2012 registry.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "workloads/character.hpp"
#include "workloads/registry.hpp"

namespace pwx::workloads {
namespace {

TEST(Registry, SuiteSizesMatchPaper) {
  // 11 synthetic kernels; 10 SPEC OMP2012 benchmarks after excluding kdtree,
  // imagick, smithwa, botsspar (the paper's exclusions).
  EXPECT_EQ(roco2_suite().size(), 11u);
  EXPECT_EQ(spec_omp2012_suite().size(), 10u);
  EXPECT_EQ(all_workloads().size(), 21u);
}

TEST(Registry, ExcludedSpecBenchmarksAbsent) {
  for (const char* excluded : {"kdtree", "imagick", "smithwa", "botsspar"}) {
    EXPECT_FALSE(find_workload(excluded).has_value()) << excluded;
  }
}

TEST(Registry, ExpectedWorkloadsPresent) {
  for (const char* name : {"idle", "busy_wait", "compute", "sqrt", "sinus", "matmul",
                           "memory_read", "memory_write", "memory_copy", "addpd",
                           "mulpd_sqrt", "md", "bwaves", "nab", "bt331", "botsalgn",
                           "ilbdc", "fma3d", "swim", "mgrid331", "applu331"}) {
    EXPECT_TRUE(find_workload(name).has_value()) << name;
  }
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string> names;
  for (const Workload& w : all_workloads()) {
    EXPECT_TRUE(names.insert(w.name).second) << "duplicate " << w.name;
  }
}

TEST(Registry, AllWorkloadsValidate) {
  for (const Workload& w : all_workloads()) {
    EXPECT_NO_THROW(validate(w)) << w.name;
  }
}

TEST(Registry, SuitesAreTaggedCorrectly) {
  for (const Workload& w : roco2_suite()) {
    EXPECT_EQ(w.suite, Suite::Roco2) << w.name;
    EXPECT_TRUE(w.thread_scalable) << w.name;
  }
  for (const Workload& w : spec_omp2012_suite()) {
    EXPECT_EQ(w.suite, Suite::SpecOmp) << w.name;
    EXPECT_FALSE(w.thread_scalable) << w.name;
  }
}

TEST(Registry, FindWorkloadReturnsCorrectEntry) {
  const auto md = find_workload("md");
  ASSERT_TRUE(md.has_value());
  EXPECT_EQ(md->name, "md");
  EXPECT_EQ(md->suite, Suite::SpecOmp);
  EXPECT_FALSE(find_workload("does_not_exist").has_value());
}

TEST(Registry, MultiPhaseWorkloadsHaveWeightedPhases) {
  const auto md = find_workload("md");
  ASSERT_TRUE(md.has_value());
  EXPECT_GE(md->phases.size(), 2u);
  const auto mgrid = find_workload("mgrid331");
  ASSERT_TRUE(mgrid.has_value());
  EXPECT_GE(mgrid->phases.size(), 2u);
}

TEST(Registry, CharacterDistinctions) {
  // Spot-check that the characterization separates kernel classes the way
  // the experiments rely on.
  const auto memory = find_workload("memory_read");
  const auto compute = find_workload("compute");
  const auto addpd = find_workload("addpd");
  const auto fma3d = find_workload("fma3d");
  ASSERT_TRUE(memory && compute && addpd && fma3d);
  // Memory streaming has far more prefetch misses than ALU kernels.
  EXPECT_GT(memory->phases[0].prefetch_mpki, 20.0);
  EXPECT_LT(compute->phases[0].prefetch_mpki, 1.0);
  // AVX kernel has high vector intensity; compute only mild.
  EXPECT_GT(addpd->phases[0].avx256_frac, 0.5);
  EXPECT_LT(compute->phases[0].avx256_frac, 0.2);
  // fma3d is the icache thrash case.
  EXPECT_GT(fma3d->phases[0].l1i_mpki, 5.0);
  EXPECT_GT(fma3d->phases[0].tlb_i_mpki, 0.3);
  // idle barely executes.
  const auto idle = find_workload("idle");
  ASSERT_TRUE(idle.has_value());
  EXPECT_LT(idle->phases[0].unhalted_frac, 0.1);
}

TEST(Registry, SyntheticKernelsAreSteadierThanSpec) {
  double max_roco = 0;
  double min_spec = 1;
  for (const Workload& w : roco2_suite()) {
    for (const PhaseCharacter& p : w.phases) {
      max_roco = std::max(max_roco, p.variability_cv);
    }
  }
  for (const Workload& w : spec_omp2012_suite()) {
    for (const PhaseCharacter& p : w.phases) {
      min_spec = std::min(min_spec, p.variability_cv);
    }
  }
  EXPECT_LE(max_roco, min_spec + 0.02);
}

TEST(Character, ValidationCatchesBrokenCharacters) {
  PhaseCharacter p;
  p.base_cpi = -1.0;
  EXPECT_THROW(validate(p), InvalidArgument);

  p = PhaseCharacter{};
  p.frac_load = 0.9;
  p.frac_store = 0.5;  // mix exceeds 1
  EXPECT_THROW(validate(p), InvalidArgument);

  p = PhaseCharacter{};
  p.l3_ld_mpki = 10.0;
  p.l2_ld_mpki = 1.0;  // more L3 misses than L2 misses
  EXPECT_THROW(validate(p), InvalidArgument);

  p = PhaseCharacter{};
  p.uops_per_inst = 0.5;
  EXPECT_THROW(validate(p), InvalidArgument);

  p = PhaseCharacter{};
  p.unhalted_frac = 0.0;
  EXPECT_THROW(validate(p), InvalidArgument);

  Workload w;
  w.name = "";
  w.phases = {PhaseCharacter{}};
  EXPECT_THROW(validate(w), InvalidArgument);
}

TEST(Character, DefaultCharacterIsValid) {
  EXPECT_NO_THROW(validate(PhaseCharacter{}));
}

TEST(Character, MissChainMonotoneForAllRegistryPhases) {
  for (const Workload& w : all_workloads()) {
    for (const PhaseCharacter& p : w.phases) {
      EXPECT_LE(p.l3_ld_mpki, p.l2_ld_mpki + 1e-9) << w.name << "/" << p.name;
      EXPECT_LE(p.l2_ld_mpki, p.l1d_ld_mpki + p.prefetch_mpki + 1e-9)
          << w.name << "/" << p.name;
      EXPECT_LE(p.l2i_mpki, p.l1i_mpki + 1e-9) << w.name << "/" << p.name;
    }
  }
}

}  // namespace
}  // namespace pwx::workloads
