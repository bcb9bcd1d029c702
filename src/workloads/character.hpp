// Workload characterization.
//
// Each workload phase is described by a microarchitectural characteristic
// vector: instruction mix, cache/TLB miss rates per kilo-instruction,
// pipeline issue histogram, coherence traffic, and the hidden activity
// (AVX-unit utilization, uop expansion) that no PAPI preset exposes on
// Haswell. The execution simulator turns these descriptors plus an operating
// point (frequency, thread count) into native event counts and the
// ground-truth power generator's inputs.
//
// Frequency dependence is captured by splitting the cycles-per-instruction
// into a core-bound part (`base_cpi`, in cycles — scales with f in time) and
// a memory-bound part (`mem_ns_per_inst`, in nanoseconds — fixed in time, so
// its cycle cost grows linearly with f). This is the standard leading-order
// DVFS performance model and produces the realistic behaviour that
// memory-bound workloads gain little from higher frequency while their stall
// counters grow.
#pragma once

#include <string>
#include <vector>

namespace pwx::workloads {

/// Which suite a workload belongs to (paper Section IV).
enum class Suite {
  Roco2,     ///< small synthetic workload kernels [17]
  SpecOmp,   ///< SPEC OMP2012 applications [24]
};

/// Characteristic vector of one execution phase.
///
/// Rates suffixed `_pki` are events per kilo-instruction; `frac_*` are
/// fractions of retired instructions; cycle-histogram entries are per
/// kilo-instruction of *core-bound* cycles unless noted.
struct PhaseCharacter {
  std::string name = "main";
  double weight = 1.0;             ///< share of the workload's execution time

  // Performance.
  double base_cpi = 0.7;           ///< core-bound cycles per instruction
  double mem_ns_per_inst = 0.0;    ///< avg memory-stall nanoseconds per instruction
  double unhalted_frac = 1.0;      ///< fraction of wall cycles the core is unhalted

  // Instruction mix.
  double frac_load = 0.25;
  double frac_store = 0.10;
  double frac_branch_cn = 0.12;    ///< conditional branches
  double frac_branch_ucn = 0.02;   ///< unconditional branches
  double branch_taken_rate = 0.6;  ///< of conditional branches
  double branch_misp_rate = 0.01;  ///< of conditional branches

  // Cache misses per kilo-instruction.
  double l1d_ld_mpki = 1.0;
  double l1d_st_mpki = 0.3;
  double l1i_mpki = 0.1;
  double l2_ld_mpki = 0.5;         ///< demand loads missing L2
  double l2_st_mpki = 0.15;
  double l2i_mpki = 0.02;
  double l3_ld_mpki = 0.2;         ///< demand loads missing L3 (DRAM)
  double l3_wb_mpki = 0.1;         ///< writebacks/other L3 misses
  double tlb_d_mpki = 0.05;
  double tlb_i_mpki = 0.005;
  double prefetch_mpki = 0.5;      ///< HW prefetches missing cache

  // Coherence traffic per kilo-instruction *per additional active core*
  // (snoop traffic grows with the number of participating caches).
  double snoop_pki_per_core = 0.02;
  double shared_pki = 0.01;
  double clean_pki = 0.02;
  double inv_pki = 0.005;

  // Pipeline issue/completion histogram, cycles per kilo-instruction of the
  // core-bound cycle budget (memory-stall cycles are added on top by the
  // simulator).
  double full_issue_cpki = 80.0;   ///< cycles at max issue width
  double full_compl_cpki = 60.0;   ///< cycles at max completion width
  double stall_issue_base_cpki = 40.0;  ///< no-issue cycles absent memory stalls
  double stall_compl_base_cpki = 60.0;
  double res_stall_base_cpki = 50.0;
  double mem_wstall_cpki = 2.0;

  // Hidden activity (no PAPI preset on Haswell exposes these).
  double avx256_frac = 0.0;        ///< fraction of instructions that are 256-bit SIMD
  double uops_per_inst = 1.05;     ///< micro-op expansion factor
  double dram_bytes_per_inst = 0.0;///< memory traffic driving IMC/DRAM-side power
  /// Data-dependent switching activity of the execution units relative to a
  /// "typical" workload: operand toggle rates make the energy of the *same*
  /// uop stream differ between applications — completely invisible to event
  /// counting. Scales the per-uop execution energy.
  double exec_energy_scale = 1.0;

  /// Shared-resource contention sensitivity: how strongly per-core L3/TLB
  /// miss rates and prefetch misses grow as more cores of the socket are
  /// active (the L3 and memory system are shared). 0 = fully private
  /// footprint, ~1 = strongly capacity-bound.
  double cache_contention = 0.35;

  // Stochastic behaviour.
  double variability_cv = 0.01;    ///< within-phase coefficient of variation
};

/// A complete workload: one or more weighted phases.
struct Workload {
  std::string name;
  Suite suite = Suite::Roco2;
  std::vector<PhaseCharacter> phases;
  double nominal_duration_s = 10.0;  ///< wall time per run at 2.4 GHz, 24 threads
  bool thread_scalable = true;       ///< roco2 kernels sweep thread counts
};

/// Sanity-check a character's internal consistency (fractions in range, miss
/// chain monotone: L3 misses <= L2 misses <= L1 misses + prefetch, ...).
/// Throws pwx::InvalidArgument on violations; used by tests and the registry.
void validate(const PhaseCharacter& character);
void validate(const Workload& workload);

}  // namespace pwx::workloads
