// Chaos bench — the self-healing serving loop under injected refresh faults.
//
// Exercises the model-lifecycle subsystem (src/serve + core::LayoutEpoch)
// end to end on a simulated power-regime shift, with the refresh-path fault
// kinds (TruncatedCandidate, ValidationTimeout, StaleLayoutPublish) armed
// under a seeded escalating plan, and checks the robustness contract:
//
//  1. every refresh-path fault kind, forced at p=1.0, is rejected by the
//     intended gate and leaves the serving epoch untouched (rollback),
//  2. the whole chaos scenario — drift detection, triggered retrains,
//     operator-forced refreshes under faults, hot-swap adoption — replayed
//     with the same fault seed produces a bit-identical semantic digest
//     (statuses, generations, holdout MAPEs, every served estimate),
//  3. no estimate emitted during the scenario is ever non-finite or outside
//     the estimator guards, and the epoch generation is monotone,
//  4. despite injected rejections, clean refresh attempts still publish.
//
// Exits non-zero when any contract is violated; the serve_chaos_smoke ctest
// entry keys on that. CI's sanitize job runs it under ASan/UBSan, where a
// data race or uninitialized read in the swap path would show up either as a
// sanitizer abort or as a digest mismatch.
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "acquire/campaign.hpp"
#include "acquire/dataset.hpp"
#include "core/epoch.hpp"
#include "core/estimator.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "fault/fault.hpp"
#include "power/ground_truth.hpp"
#include "repro_common.hpp"
#include "serve/drift.hpp"
#include "serve/refresh.hpp"
#include "serve/supervisor.hpp"
#include "sim/engine.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace pwx;

int violations = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  [ok]   %s\n", what.c_str());
  } else {
    std::printf("  [FAIL] %s\n", what.c_str());
    violations += 1;
  }
}

const std::vector<pmc::Preset> kGroup{pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS,
                                      pmc::Preset::PRF_DM, pmc::Preset::BR_MSP};

/// Same regime shift the serve tests use: higher switching energy plus extra
/// uncore static draw. Counters look familiar; power runs ~40% hot.
sim::Engine drifted_engine() {
  power::EnergyTable energies = power::GroundTruthPower::haswell_ep().energies();
  energies.per_cycle_nj *= 1.6;
  energies.per_uop_nj *= 1.6;
  energies.per_dram_access_nj *= 1.4;
  power::StaticParameters statics = power::GroundTruthPower::haswell_ep().statics();
  statics.uncore_static_watts += 12.0;
  return sim::Engine(cpu::haswell_ep_2690v3(), cpu::haswell_ep_dvfs(),
                     power::GroundTruthPower(energies, statics, cpu::ThermalModel{}),
                     power::SensorSpec{}, 0x5eed);
}

std::vector<std::string> write_corpus(const sim::Engine& engine,
                                      const std::filesystem::path& dir,
                                      std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  std::uint64_t run_seed = seed;
  for (const char* name : {"compute", "md", "memory_read"}) {
    const auto workload = workloads::find_workload(name);
    for (const double frequency_ghz : {1.5, 2.0, 2.4}) {
      for (const std::size_t threads : {8u, 24u}) {
        sim::RunConfig rc;
        rc.frequency_ghz = frequency_ghz;
        rc.threads = threads;
        rc.interval_s = 0.25;
        rc.duration_scale = 0.1;
        rc.seed = ++run_seed;
        const trace::Trace t =
            trace::build_standard_trace(engine.run(*workload, rc), kGroup);
        paths.push_back(
            (dir / ("run" + std::to_string(paths.size()) + ".otf2l")).string());
        trace::write_trace_file(t, paths.back());
      }
    }
  }
  return paths;
}

struct Corpora {
  std::filesystem::path root;
  std::vector<std::string> baseline;
  std::vector<std::string> drifted;
};

const Corpora& corpora() {
  static const Corpora c = [] {
    Corpora out;
    out.root = std::filesystem::temp_directory_path() /
               ("pwx_serve_chaos_" + std::to_string(::getpid()));
    out.baseline =
        write_corpus(sim::Engine::haswell_ep(), out.root / "baseline", 100);
    out.drifted = write_corpus(drifted_engine(), out.root / "drifted", 200);
    return out;
  }();
  return c;
}

core::PowerModel train_on_corpus(const std::vector<std::string>& paths) {
  const acquire::Dataset dataset = acquire::ingest_trace_files(paths);
  core::SelectionOptions selection;
  selection.count = 3;
  const core::SelectionResult selected =
      core::select_events(dataset, dataset.common_presets(), selection);
  core::FeatureSpec spec;
  spec.events = selected.selected();
  return core::train_model(dataset, spec);
}

core::CounterSample sample_from_row(const acquire::DataRow& row) {
  core::CounterSample sample;
  sample.elapsed_s = row.elapsed_s;
  sample.frequency_ghz = row.frequency_ghz;
  sample.voltage = row.avg_voltage;
  for (const auto& [preset, rate] : row.counter_rates) {
    sample.counts[preset] = rate * row.elapsed_s;
  }
  return sample;
}

/// FNV-1a over the bytes of a string — the digest accumulator.
struct Digest {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::string log;  ///< human-diffable transcript of the semantic events

  void feed(const std::string& line) {
    for (const char ch : line) {
      hash ^= static_cast<unsigned char>(ch);
      hash *= 0x100000001b3ull;
    }
    hash ^= '\n';
    hash *= 0x100000001b3ull;
    log += line;
    log += '\n';
  }

  void feed_double(const char* tag, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%s=%a", tag, value);
    feed(buffer);
  }
};

void feed_report(Digest& digest, const serve::RefreshReport& report) {
  // Everything semantic about a refresh — but not elapsed_s, which is wall
  // clock and legitimately differs between reruns.
  char line[256];
  std::snprintf(line, sizeof line,
                "refresh status=%s incumbent=%" PRIu64 " published=%" PRIu64
                " rows=%zu holdout=%zu events=%zu",
                std::string(serve::refresh_status_name(report.status)).c_str(),
                report.incumbent_generation, report.published_generation,
                report.dataset_rows, report.holdout_rows,
                report.selected_events.size());
  digest.feed(line);
  digest.feed_double("candidate_mape", report.candidate_holdout_mape_pct);
  digest.feed_double("incumbent_mape", report.incumbent_holdout_mape_pct);
}

struct ScenarioResult {
  Digest digest;
  bool all_estimates_valid = true;
  bool generation_monotone = true;
  std::uint64_t final_generation = 0;
  std::uint64_t refreshes_run = 0;
  std::uint64_t refreshes_published = 0;
  std::size_t refreshes_rejected = 0;
};

/// One full chaos scenario: a stale incumbent serves a drifted regime until
/// drift triggers a retrain, then six operator-forced refreshes alternate
/// the corpus (so each clean attempt has a genuine reason to publish) while
/// the escalating fault plan rejects a seeded subset of them.
ScenarioResult run_scenario(std::uint64_t fault_seed) {
  ScenarioResult result;

  auto epoch = std::make_shared<core::LayoutEpoch>(
      train_on_corpus(corpora().baseline));
  core::OnlineEstimator estimator(epoch);

  const acquire::Dataset drifted_rows =
      acquire::ingest_trace_files(corpora().drifted);

  const fault::FaultInjector injector(
      fault::FaultPlan::escalating(fault_seed, 4.0));

  serve::SupervisorConfig config;
  config.drift.window_size = drifted_rows.size();
  config.drift.max_mape_pct = 8.0;
  config.drift.trigger_windows = 2;
  config.drift.rearm_windows = 1;
  config.refresh.trace_paths = corpora().drifted;
  config.refresh.event_count = 3;
  config.refresh.max_holdout_mape_pct = 15.0;
  config.refresh.max_mape_regression_pct = 1.0;
  config.refresh.injector = &injector;
  config.max_consecutive_rejects = 8;
  serve::Supervisor supervisor(epoch, config);

  std::uint64_t last_generation = epoch->generation();
  const auto serve_pass = [&](std::size_t repeats) {
    for (std::size_t r = 0; r < repeats; ++r) {
      for (const acquire::DataRow& row : drifted_rows.rows()) {
        const double watts = estimator.estimate_guarded(sample_from_row(row));
        result.all_estimates_valid =
            result.all_estimates_valid && std::isfinite(watts) &&
            watts >= 0.0 && watts <= core::kMaxWatts;
        result.generation_monotone =
            result.generation_monotone && estimator.generation() >= last_generation;
        last_generation = estimator.generation();
        result.digest.feed_double("estimate", watts);
        const auto report = supervisor.observe(watts, row.avg_power_watts);
        if (report.has_value()) {
          feed_report(result.digest, *report);
        }
      }
    }
  };

  // Phase 1: drift-driven. The stale incumbent breaches the windowed MAPE
  // threshold; the trigger launches the first (possibly fault-injected)
  // retrain.
  serve_pass(3);

  // Phase 2: operator-forced refreshes, alternating the corpus so every
  // clean attempt trains a model that genuinely beats the incumbent on its
  // own holdout — publish and reject paths both stay hot.
  for (int i = 0; i < 6; ++i) {
    supervisor.set_refresh_corpus(i % 2 == 0 ? corpora().baseline
                                             : corpora().drifted);
    supervisor.reset_backoff();
    feed_report(result.digest, supervisor.refresh_now());
  }

  // Phase 3: serve once more on whatever model won — adoption is part of
  // the digest.
  supervisor.set_refresh_corpus(corpora().drifted);
  serve_pass(1);

  char tail[160];
  std::snprintf(tail, sizeof tail,
                "final generation=%" PRIu64 " swaps=%" PRIu64
                " refreshes=%" PRIu64 " published=%" PRIu64,
                epoch->generation(), epoch->swap_count(),
                supervisor.refreshes_run(), supervisor.refreshes_published());
  result.digest.feed(tail);

  result.final_generation = epoch->generation();
  result.refreshes_run = supervisor.refreshes_run();
  result.refreshes_published = supervisor.refreshes_published();
  for (const serve::RefreshReport& report : supervisor.history()) {
    result.refreshes_rejected += report.published() ? 0 : 1;
  }
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "Serve chaos: drift -> guarded retrain -> hot-swap under refresh faults",
      "a self-healing serving loop must reject sabotaged candidates at the "
      "gates, roll back to the incumbent, and replay deterministically under "
      "the same fault seed");

  // --- forced single-fault sweep: each refresh-path kind, p = 1.0 ---------
  std::printf("forced refresh faults (p=1.0), drifted corpus, gen-1 incumbent:\n");
  struct ForcedCase {
    fault::FaultKind kind;
    serve::RefreshStatus expected;
  };
  const ForcedCase forced[] = {
      {fault::FaultKind::TruncatedCandidate,
       serve::RefreshStatus::RejectedImplausible},
      {fault::FaultKind::ValidationTimeout, serve::RefreshStatus::RejectedTimeout},
      {fault::FaultKind::StaleLayoutPublish, serve::RefreshStatus::RejectedStale},
  };
  for (const ForcedCase& c : forced) {
    core::LayoutEpoch epoch(train_on_corpus(corpora().baseline));
    const fault::FaultInjector injector(
        fault::FaultPlan::single(c.kind, 1.0, 0xFA17));
    serve::RefreshConfig config;
    config.trace_paths = corpora().drifted;
    config.event_count = 3;
    config.injector = &injector;
    const serve::RefreshReport report = serve::refresh_model(epoch, config);
    const std::string kind_name(fault::fault_kind_name(c.kind));
    check(report.status == c.expected,
          kind_name + " rejected as " +
              std::string(serve::refresh_status_name(c.expected)) + " (got " +
              std::string(serve::refresh_status_name(report.status)) + ")");
    check(epoch.generation() == 1,
          kind_name + " rollback: epoch generation untouched");
  }

  // --- chaos scenario, replayed with the same fault seed ------------------
  constexpr std::uint64_t kFaultSeed = 0x5EED0;
  std::printf("\nchaos scenario: escalating plan, seed 0x%llX, two runs\n",
              static_cast<unsigned long long>(kFaultSeed));
  const ScenarioResult first = run_scenario(kFaultSeed);
  const ScenarioResult second = run_scenario(kFaultSeed);

  std::printf(
      "  run 1: %" PRIu64 " refreshes (%" PRIu64 " published, %zu rejected), "
      "final gen %" PRIu64 ", digest %016llx\n",
      first.refreshes_run, first.refreshes_published, first.refreshes_rejected,
      first.final_generation, static_cast<unsigned long long>(first.digest.hash));
  std::printf(
      "  run 2: %" PRIu64 " refreshes (%" PRIu64 " published, %zu rejected), "
      "final gen %" PRIu64 ", digest %016llx\n",
      second.refreshes_run, second.refreshes_published, second.refreshes_rejected,
      second.final_generation, static_cast<unsigned long long>(second.digest.hash));

  std::printf("\ncontract checks:\n");
  check(first.all_estimates_valid && second.all_estimates_valid,
        "every estimate finite and within [0, max_watts]");
  check(first.generation_monotone && second.generation_monotone,
        "estimator-observed generation is monotone");
  check(first.refreshes_run >= 7, "drift trigger + forced refreshes all ran");
  check(first.refreshes_published >= 1,
        "clean refresh attempts still published under chaos");
  check(first.final_generation == 1 + first.refreshes_published,
        "epoch generation == 1 + publishes (rejects left no trace)");
  check(first.digest.hash == second.digest.hash &&
            first.digest.log == second.digest.log,
        "same-seed rerun reproduces a bit-identical semantic digest");
  if (first.digest.log != second.digest.log) {
    // Print the first diverging line — this is the debugging breadcrumb the
    // CI job needs when the determinism gate trips.
    const std::string& a = first.digest.log;
    const std::string& b = second.digest.log;
    std::size_t line = 1, start = 0;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) {
        break;
      }
      if (a[i] == '\n') {
        line += 1;
        start = i + 1;
      }
    }
    const auto end_a = a.find('\n', start);
    const auto end_b = b.find('\n', start);
    std::printf("  first divergence at digest line %zu:\n    run 1: %s\n    run 2: %s\n",
                line, a.substr(start, end_a - start).c_str(),
                b.substr(start, end_b - start).c_str());
  }

  std::filesystem::remove_all(corpora().root);
  if (violations > 0) {
    std::printf("\n%d serve-chaos contract violation(s)\n", violations);
    return 1;
  }
  std::printf("\nall serve-chaos contracts hold\n");
  return 0;
}
