#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pwx::sim {

namespace {

/// Coefficient of variation of the content-dependent dynamic-power factor.
/// The factor is drawn from a hash of (workload, frequency, threads) — the
/// same configuration always burns the same extra/less power (fixed input
/// data), different configurations differ, and no counter reflects it.
constexpr double kContentVariationCv = 0.02;
/// Sigma (watts, per socket) of the configuration-dependent baseline shift
/// (fans, VR state, background services on the measured rail). Drawn from
/// the same configuration hash; dominates *relative* error at idle power.
constexpr double kBaselineOffsetSigmaWatts = 3.2;

/// Background OS activity on a core with no workload thread: timer ticks and
/// kernel housekeeping. Roughly 0.3 % duty cycle of idle-like work.
workloads::PhaseCharacter os_background() {
  workloads::PhaseCharacter p;
  p.name = "os";
  p.base_cpi = 1.5;
  p.unhalted_frac = 0.003;
  p.frac_load = 0.22;
  p.frac_store = 0.08;
  p.frac_branch_cn = 0.18;
  p.branch_misp_rate = 0.02;
  p.l1d_ld_mpki = 4.0;
  p.l1d_st_mpki = 1.0;
  p.l1i_mpki = 3.0;
  p.l2_ld_mpki = 1.5;
  p.l2_st_mpki = 0.4;
  p.l2i_mpki = 0.8;
  p.l3_ld_mpki = 0.5;
  p.l3_wb_mpki = 0.2;
  p.tlb_d_mpki = 0.4;
  p.tlb_i_mpki = 0.3;
  p.prefetch_mpki = 0.8;
  p.full_issue_cpki = 20.0;
  p.full_compl_cpki = 15.0;
  p.stall_issue_base_cpki = 500.0;
  p.stall_compl_base_cpki = 600.0;
  p.res_stall_base_cpki = 300.0;
  p.uops_per_inst = 1.15;
  p.variability_cv = 0.05;
  return p;
}

/// Hidden activity produced alongside the counters.
struct HiddenActivity {
  double avx256_instructions = 0;
  double uops = 0;
  double dram_bytes = 0;
};

HiddenActivity hidden_for(const workloads::PhaseCharacter& c, double instructions) {
  HiddenActivity h;
  h.avx256_instructions = c.avx256_frac * instructions;
  // The generator bills per "energy-weighted" uop: the workload's switching
  // activity scales what each uop costs, so the weight is applied here.
  h.uops = c.uops_per_inst * c.exec_energy_scale * instructions;
  h.dram_bytes = c.dram_bytes_per_inst * instructions;
  return h;
}

}  // namespace

double effective_cpi(const workloads::PhaseCharacter& c, double frequency_ghz) {
  return c.base_cpi + c.mem_ns_per_inst * frequency_ghz;
}

pmc::ActivityCounts generate_core_activity(const workloads::PhaseCharacter& c,
                                           double frequency_ghz, double reference_ghz,
                                           double interval_s, double slowdown,
                                           std::size_t coactive_cores, Rng& rng) {
  PWX_REQUIRE(slowdown > 0.0 && slowdown <= 1.0, "slowdown must be in (0,1], got ",
              slowdown);
  pmc::ActivityCounts a;
  // One correlated intensity draw per interval models run/interval level
  // variability; events share it so their ratios stay workload-typical. The
  // floors reflect that even the steadiest kernel shows ~1.5 % run-to-run
  // variation on real hardware (interrupts, placement, DVFS transients).
  const double intensity =
      rng.lognormal_mean_cv(1.0, std::max(0.012, c.variability_cv));
  // Independent per-counter jitter on top (sampling alignment, OS noise):
  // its 27 draws share one family, so σ is computed once per call.
  const LognormalCv jitter_noise(std::max(0.008, 0.3 * c.variability_cv));
  auto jitter = [&](double value) {
    return value <= 0.0 ? 0.0 : jitter_noise(value, rng);
  };

  const double hz = frequency_ghz * 1e9;
  a.cycles = interval_s * hz * c.unhalted_frac * intensity;
  a.ref_cycles = interval_s * reference_ghz * 1e9 * c.unhalted_frac * intensity;

  const double cpi = effective_cpi(c, frequency_ghz);
  const double instructions = a.cycles / cpi * slowdown;
  a.instructions = instructions;

  a.load_ins = jitter(c.frac_load * instructions);
  a.store_ins = jitter(c.frac_store * instructions);
  a.branch_cn = jitter(c.frac_branch_cn * instructions);
  a.branch_ucn = jitter(c.frac_branch_ucn * instructions);
  a.branch_taken = c.branch_taken_rate * a.branch_cn;
  a.branch_misp = jitter(c.branch_misp_rate * a.branch_cn);

  const double ki = instructions / 1000.0;
  // Shared-cache contention: with more co-active cores, each core's share of
  // L3 and of the page-walk caches shrinks, so per-core miss rates rise and
  // the prefetcher loses accuracy. The growth is linear in the co-runner
  // share, scaled by the workload's capacity sensitivity.
  const double corun = coactive_cores > 1
                           ? static_cast<double>(coactive_cores - 1) / 23.0
                           : 0.0;
  const double contention = 1.0 + c.cache_contention * corun;
  a.l1d_load_miss = jitter(c.l1d_ld_mpki * ki);
  a.l1d_store_miss = jitter(c.l1d_st_mpki * ki);
  a.l1i_miss = jitter(c.l1i_mpki * ki);
  a.prefetch_miss = jitter(c.prefetch_mpki * (1.0 + 0.5 * c.cache_contention * corun) * ki);

  // Access chains: a level's accesses are the level above's misses (demand)
  // plus the prefetcher share that targets it.
  a.l2_data_read = a.l1d_load_miss + 0.6 * a.prefetch_miss;
  a.l2_data_write = a.l1d_store_miss;
  // L2 instruction reads: demand L1I misses plus speculative refetch after
  // mispredicted branches and page-walk fetches — workload-dependent terms
  // that keep the counter correlated with, but not proportional to, L1_ICM.
  a.l2_inst_read = jitter((c.l1i_mpki + 2.0 * c.tlb_i_mpki +
                           12.0 * c.branch_misp_rate * c.frac_branch_cn) *
                          ki);
  a.l2_load_miss = jitter(c.l2_ld_mpki * ki);
  a.l2_store_miss = jitter(c.l2_st_mpki * ki);
  a.l2_inst_miss = jitter(c.l2i_mpki * ki);
  a.l3_data_read = a.l2_load_miss + 0.4 * a.prefetch_miss;
  a.l3_data_write = a.l2_store_miss;
  a.l3_inst_read = a.l2_inst_miss;
  a.l3_load_miss = jitter(c.l3_ld_mpki * contention * ki);
  a.l3_total_miss =
      jitter((c.l3_ld_mpki + c.l3_wb_mpki) * contention * ki) + 0.5 * a.prefetch_miss;

  a.tlb_data_miss = jitter(c.tlb_d_mpki * (1.0 + 0.6 * c.cache_contention * corun) * ki);
  a.tlb_inst_miss = jitter(c.tlb_i_mpki * ki);

  // Snoop traffic grows with the number of co-active caches; the per-core
  // shared/clean/invalidation request rates are workload properties (how the
  // application shares data), not functions of the core count.
  const double peers = coactive_cores > 0 ? static_cast<double>(coactive_cores - 1) : 0.0;
  a.snoop_requests = jitter(c.snoop_pki_per_core * peers * ki);
  a.shared_access = jitter(c.shared_pki * ki);
  a.clean_exclusive = jitter(c.clean_pki * ki);
  a.invalidations = jitter(c.inv_pki * ki);

  // Cycle histogram: core-bound shares are per kilo-instruction; memory and
  // bandwidth-cap stalls are whatever the cycle budget leaves over the
  // core-busy cycles.
  const double core_busy = instructions * c.base_cpi;
  const double mem_stall = std::max(0.0, a.cycles - core_busy);
  a.full_issue_cycles = std::min(a.cycles, jitter(c.full_issue_cpki * ki));
  a.full_compl_cycles = std::min(a.cycles, jitter(c.full_compl_cpki * ki));
  // Issue keeps going during part of a memory stall (the OoO window drains),
  // completion stops for all of it, and resource stalls fall in between —
  // the three counters are correlated but carry distinct information.
  a.stall_issue_cycles =
      std::min(a.cycles, jitter(c.stall_issue_base_cpki * ki) + 0.55 * mem_stall);
  a.stall_compl_cycles =
      std::min(a.cycles, jitter(c.stall_compl_base_cpki * ki) + mem_stall);
  a.resource_stall_cycles =
      std::min(a.cycles, jitter(c.res_stall_base_cpki * ki) + 0.8 * mem_stall);
  a.mem_write_stall_cycles = std::min(a.cycles, jitter(c.mem_wstall_cpki * ki));
  return a;
}

Engine::Engine(cpu::MachineSpec spec, cpu::DvfsTable dvfs,
               power::GroundTruthPower truth, power::SensorSpec sensor_spec,
               std::uint64_t machine_seed)
    : spec_(std::move(spec)), dvfs_(std::move(dvfs)), truth_(std::move(truth)) {
  Rng seeder(machine_seed);
  for (std::size_t s = 0; s < spec_.sockets; ++s) {
    socket_sensors_.emplace_back(sensor_spec, seeder());
    // Per-socket VID offset of a few millivolts, as real parts show.
    const double vid_offset = seeder.uniform(-0.004, 0.004);
    voltage_sensors_.emplace_back(dvfs_, vid_offset);
  }
}

Engine Engine::haswell_ep(std::uint64_t machine_seed) {
  return Engine(cpu::haswell_ep_2690v3(), cpu::haswell_ep_dvfs(),
                power::GroundTruthPower::haswell_ep(), power::SensorSpec{},
                machine_seed);
}

RunResult Engine::run(const workloads::Workload& workload,
                      const RunConfig& config) const {
  PWX_REQUIRE(config.frequency_ghz >= dvfs_.min_frequency_ghz() &&
                  config.frequency_ghz <= dvfs_.max_frequency_ghz(),
              "frequency ", config.frequency_ghz, " GHz outside the DVFS range");
  PWX_REQUIRE(config.threads >= 1 && config.threads <= spec_.total_cores(),
              "thread count ", config.threads, " not supported by the machine");
  PWX_REQUIRE(config.interval_s > 0.0, "interval must be positive");
  workloads::validate(workload);

  RunResult result;
  result.workload = workload.name;
  result.config = config;

  Rng rng(config.seed);
  const std::vector<std::size_t> threads_per_socket =
      cpu::active_cores_per_socket(spec_, config.threads);
  const workloads::PhaseCharacter background = os_background();

  // Content-dependent dynamic-power factor: seeded by the configuration key
  // (not the run seed), so all multiplexed runs of one configuration share
  // it — as they share the input data whose values drive the switching.
  std::uint64_t config_key = 0xcbf29ce484222325ULL;
  for (const char ch : workload.name) {
    config_key = (config_key ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  config_key ^= static_cast<std::uint64_t>(config.frequency_ghz * 1e4);
  config_key = config_key * 0x100000001b3ULL + config.threads;
  Rng content_rng(config_key);
  const double dynamic_scale = content_rng.lognormal_mean_cv(1.0, kContentVariationCv);
  const double baseline_offset = content_rng.normal(0.0, kBaselineOffsetSigmaWatts);

  double total_weight = 0.0;
  for (const auto& phase : workload.phases) {
    total_weight += phase.weight;
  }
  const double duration = workload.nominal_duration_s * config.duration_scale;

  double now = 0.0;
  for (const auto& phase : workload.phases) {
    const double phase_duration = duration * phase.weight / total_weight;
    const auto interval_count = static_cast<std::size_t>(
        std::max(1.0, std::round(phase_duration / config.interval_s)));
    for (std::size_t iv = 0; iv < interval_count; ++iv) {
      IntervalRecord rec;
      rec.t_begin_s = now;
      rec.t_end_s = now + config.interval_s;
      rec.phase = phase.name;
      rec.active_threads = config.threads;
      now = rec.t_end_s;

      double measured_power = 0.0;
      double true_power = 0.0;
      double measured_voltage = 0.0;
      for (std::size_t socket = 0; socket < spec_.sockets; ++socket) {
        const std::size_t active = threads_per_socket[socket];
        const std::size_t idle = spec_.cores_per_socket - active;

        // Bandwidth ceiling: estimate the socket's unconstrained DRAM demand
        // and derive a common slowdown for its cores.
        double slowdown = 1.0;
        if (active > 0 && phase.dram_bytes_per_inst > 0.0) {
          const double cpi = effective_cpi(phase, config.frequency_ghz);
          const double inst_rate = config.frequency_ghz * 1e9 *
                                   phase.unhalted_frac / cpi *
                                   static_cast<double>(active);
          const double demand_gbs = inst_rate * phase.dram_bytes_per_inst / 1e9;
          const double cap = truth_.statics().socket_dram_bandwidth_gbs;
          if (demand_gbs > cap) {
            slowdown = cap / demand_gbs;
          }
        }

        power::SocketActivity socket_activity;
        socket_activity.total_cores = spec_.cores_per_socket;
        socket_activity.active_cores = active;
        socket_activity.duration_s = config.interval_s;
        socket_activity.frequency_ghz = config.frequency_ghz;

        HiddenActivity hidden;
        for (std::size_t core = 0; core < active; ++core) {
          const pmc::ActivityCounts counts = generate_core_activity(
              phase, config.frequency_ghz, spec_.reference_clock_ghz,
              config.interval_s, slowdown, config.threads, rng);
          const HiddenActivity h = hidden_for(phase, counts.instructions);
          hidden.avx256_instructions += h.avx256_instructions;
          hidden.uops += h.uops;
          hidden.dram_bytes += h.dram_bytes;
          socket_activity.counts += counts;
        }
        for (std::size_t core = 0; core < idle; ++core) {
          const pmc::ActivityCounts counts = generate_core_activity(
              background, config.frequency_ghz, spec_.reference_clock_ghz,
              config.interval_s, 1.0, 1, rng);
          const HiddenActivity h = hidden_for(background, counts.instructions);
          hidden.uops += h.uops;
          socket_activity.counts += counts;
        }
        socket_activity.avx256_instructions = hidden.avx256_instructions;
        socket_activity.uops = hidden.uops;
        socket_activity.dram_bytes = hidden.dram_bytes;
        socket_activity.dynamic_scale = dynamic_scale;
        socket_activity.baseline_offset_watts = baseline_offset;

        // Voltage droop depends on power which depends on voltage; two
        // passes converge to well below the MSR quantization step.
        double voltage =
            voltage_sensors_[socket].true_voltage(config.frequency_ghz, 0.0);
        double socket_true = 0.0;
        for (int pass = 0; pass < 2; ++pass) {
          socket_activity.voltage = voltage;
          socket_true = truth_.socket_input_watts(socket_activity);
          voltage = voltage_sensors_[socket].true_voltage(config.frequency_ghz,
                                                          socket_true);
        }
        true_power += socket_true;
        measured_power +=
            socket_sensors_[socket].average(socket_true, config.interval_s, rng);
        if (socket == 0) {
          measured_voltage = cpu::VoltageSensor::quantize(voltage);
        }

        rec.counts += socket_activity.counts;
      }
      rec.measured_power_watts = measured_power;
      rec.true_power_watts = true_power;
      rec.measured_voltage = measured_voltage;
      result.intervals.push_back(std::move(rec));
    }
  }
  result.wall_time_s = now;
  return result;
}

}  // namespace pwx::sim
