#include "workloads/character.hpp"

#include "common/error.hpp"

namespace pwx::workloads {

void validate(const PhaseCharacter& c) {
  PWX_REQUIRE(c.weight > 0.0, "phase '", c.name, "': weight must be positive");
  PWX_REQUIRE(c.base_cpi > 0.0, "phase '", c.name, "': base_cpi must be positive");
  PWX_REQUIRE(c.mem_ns_per_inst >= 0.0, "phase '", c.name, "': negative memory time");
  PWX_REQUIRE(c.unhalted_frac > 0.0 && c.unhalted_frac <= 1.0, "phase '", c.name,
              "': unhalted_frac must be in (0,1]");
  const double mix =
      c.frac_load + c.frac_store + c.frac_branch_cn + c.frac_branch_ucn;
  PWX_REQUIRE(mix <= 1.0, "phase '", c.name, "': instruction mix sums to ", mix);
  PWX_REQUIRE(c.branch_taken_rate >= 0.0 && c.branch_taken_rate <= 1.0, "phase '",
              c.name, "': taken rate out of range");
  PWX_REQUIRE(c.branch_misp_rate >= 0.0 && c.branch_misp_rate <= 1.0, "phase '",
              c.name, "': mispredict rate out of range");
  // Miss chain monotonicity (within the data side).
  PWX_REQUIRE(c.l2_ld_mpki <= c.l1d_ld_mpki + c.prefetch_mpki + 1e-9, "phase '", c.name,
              "': more L2 load misses than L1 load misses + prefetches");
  PWX_REQUIRE(c.l3_ld_mpki <= c.l2_ld_mpki + 1e-9, "phase '", c.name,
              "': more L3 load misses than L2 load misses");
  PWX_REQUIRE(c.l2_st_mpki <= c.l1d_st_mpki + 1e-9, "phase '", c.name,
              "': more L2 store misses than L1 store misses");
  PWX_REQUIRE(c.l2i_mpki <= c.l1i_mpki + 1e-9, "phase '", c.name,
              "': more L2 instruction misses than L1 instruction misses");
  PWX_REQUIRE(c.avx256_frac >= 0.0 && c.avx256_frac <= 1.0, "phase '", c.name,
              "': avx fraction out of range");
  PWX_REQUIRE(c.uops_per_inst >= 1.0, "phase '", c.name, "': uop expansion below 1");
  PWX_REQUIRE(c.exec_energy_scale > 0.0, "phase '", c.name,
              "': exec energy scale must be positive");
  PWX_REQUIRE(c.cache_contention >= 0.0 && c.cache_contention <= 2.0, "phase '",
              c.name, "': cache contention out of range");
  PWX_REQUIRE(c.variability_cv >= 0.0 && c.variability_cv < 1.0, "phase '", c.name,
              "': variability CV out of range");
}

void validate(const Workload& w) {
  PWX_REQUIRE(!w.name.empty(), "workload has empty name");
  PWX_REQUIRE(!w.phases.empty(), "workload '", w.name, "' has no phases");
  PWX_REQUIRE(w.nominal_duration_s > 0.0, "workload '", w.name,
              "': duration must be positive");
  for (const PhaseCharacter& p : w.phases) {
    validate(p);
  }
}

}  // namespace pwx::workloads
