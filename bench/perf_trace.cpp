// Performance of the OTF2-lite trace layer: building traces through the
// metric plugins, binary serialization, phase-profile generation, and
// multi-run campaign ingestion (N trace files -> merged phase-profile rows).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <sstream>

#include "acquire/campaign.hpp"
#include "sim/engine.hpp"
#include "trace/mapped.hpp"
#include "trace/phase_profile.hpp"
#include "trace/plugins.hpp"
#include "trace/profile_campaign.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace pwx;

sim::RunResult benchmark_run() {
  const sim::Engine engine = sim::Engine::haswell_ep();
  sim::RunConfig rc;
  rc.interval_s = 0.05;  // fine-grained: ~800 intervals for md
  rc.duration_scale = 1.0;
  return engine.run(*workloads::find_workload("md"), rc);
}

const sim::RunResult& shared_run() {
  static const sim::RunResult run = benchmark_run();
  return run;
}

std::vector<pmc::Preset> four_events() {
  return {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS, pmc::Preset::PRF_DM,
          pmc::Preset::BR_MSP};
}

void BM_BuildTrace(benchmark::State& state) {
  const auto& run = shared_run();
  for (auto _ : state) {
    const trace::Trace t = trace::build_standard_trace(run, four_events());
    benchmark::DoNotOptimize(t.columns().size());
  }
  state.counters["events"] = benchmark::Counter(static_cast<double>(
      trace::build_standard_trace(run, four_events()).columns().size()));
}
BENCHMARK(BM_BuildTrace)->Unit(benchmark::kMillisecond);

void BM_SerializeTrace(benchmark::State& state) {
  const trace::Trace t = trace::build_standard_trace(shared_run(), four_events());
  for (auto _ : state) {
    std::ostringstream os;
    trace::write_trace(t, os);
    benchmark::DoNotOptimize(os.str().size());
  }
}
BENCHMARK(BM_SerializeTrace)->Unit(benchmark::kMillisecond);

void BM_DeserializeTrace(benchmark::State& state) {
  const trace::Trace t = trace::build_standard_trace(shared_run(), four_events());
  std::ostringstream os;
  trace::write_trace(t, os);
  const std::string data = os.str();
  for (auto _ : state) {
    std::istringstream is(data);
    const trace::Trace loaded = trace::read_trace(is);
    benchmark::DoNotOptimize(loaded.columns().size());
  }
  state.counters["bytes"] = benchmark::Counter(static_cast<double>(data.size()));
}
BENCHMARK(BM_DeserializeTrace)->Unit(benchmark::kMillisecond);

void BM_PhaseProfiles(benchmark::State& state) {
  const trace::Trace t = trace::build_standard_trace(shared_run(), four_events());
  for (auto _ : state) {
    const auto profiles = trace::build_phase_profiles(t);
    benchmark::DoNotOptimize(profiles.size());
  }
}
BENCHMARK(BM_PhaseProfiles)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------- campaign ingest

// A multiplexed acquisition campaign's trace set: pairs of runs per
// (workload, frequency) configuration, each pair recording a different
// event group, so ingestion has real merging to do.
const std::vector<std::string>& campaign_files(std::size_t count) {
  static std::map<std::size_t, std::vector<std::string>> cache;
  auto it = cache.find(count);
  if (it != cache.end()) {
    return it->second;
  }
  const sim::Engine engine = sim::Engine::haswell_ep();
  const char* names[] = {"md", "compute", "matmul", "memory_read"};
  const double freqs[] = {1.2, 1.9, 2.4};
  const std::vector<pmc::Preset> groups[2] = {
      {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS},
      {pmc::Preset::PRF_DM, pmc::Preset::BR_MSP}};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pwx_perf_trace_" + std::to_string(count));
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < count; ++i) {
    sim::RunConfig rc;
    rc.interval_s = 0.05;
    rc.duration_scale = 1.0;
    rc.frequency_ghz = freqs[(i / 8) % 3];
    rc.seed = 1000 + i;
    const auto workload = workloads::find_workload(names[(i / 2) % 4]);
    const sim::RunResult run = engine.run(*workload, rc);
    const trace::Trace t = trace::build_standard_trace(run, groups[i % 2]);
    const std::string path = (dir / ("trace_" + std::to_string(i) + ".otf2l")).string();
    trace::write_trace_file(t, path);
    paths.push_back(path);
  }
  return cache.emplace(count, std::move(paths)).first->second;
}

void BM_ProfileCampaign(benchmark::State& state) {
  const auto& paths = campaign_files(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const acquire::Dataset dataset = acquire::ingest_trace_files(paths);
    benchmark::DoNotOptimize(dataset.size());
  }
  state.counters["rows"] = benchmark::Counter(
      static_cast<double>(acquire::ingest_trace_files(paths).size()));
}
BENCHMARK(BM_ProfileCampaign)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------- mapped ingest
//
// The zero-copy benches below are gated by bench_ingest_gate against
// *buffered* timings captured under these names before the mmap path landed
// (bench/perf_baseline.json), so the reported speedup is mapped-now vs
// buffered-then on identical fixtures. Each fixture first asserts that the
// file reader's output is bit-identical to profiles built from the
// in-memory traces that were written — a fast wrong answer must never pass
// the gate.
//
// Fixtures are campaign-scale: the ROADMAP's target is multi-GB trace
// directories, so the gated files carry hundreds of thousands of events
// (multi-MB, over trace::kMapMinBytes, so the reader maps them), where
// ingestion cost is dominated by moving bytes rather than by per-open fixed
// costs. The sim-generated ~100 KB files above stay as the fixtures for the
// end-to-end acquire benches.

// A synthetic but structurally faithful campaign trace: phase regions with
// async power/voltage samples and counter increments at a fixed cadence.
// ~602 events per (rep, phase); `reps` scales the file size.
trace::Trace large_trace(const char* workload, double frequency_ghz,
                         const std::vector<pmc::Preset>& group, int reps,
                         std::uint64_t salt) {
  trace::Trace t;
  t.set_attribute("workload", workload);
  t.set_attribute("frequency_ghz", frequency_ghz);
  t.set_attribute("threads", 24.0);
  const auto power =
      t.define_metric({"power", "W", trace::MetricMode::AsyncAverage});
  const auto volt =
      t.define_metric({"core_voltage", "V", trace::MetricMode::AsyncInstant});
  std::vector<std::uint32_t> ctrs;
  for (const pmc::Preset preset : group) {
    ctrs.push_back(t.define_metric({trace::papi_metric_name(preset),
                                    "events", trace::MetricMode::CounterIncrement}));
  }
  std::uint64_t now = 0;
  const char* phases[3] = {"compute", "memory", "idle"};
  for (int rep = 0; rep < reps; ++rep) {
    for (const char* phase : phases) {
      t.append(trace::RegionEnter{now, phase});
      for (int i = 0; i < 100; ++i) {
        now += 1000000;
        t.append(trace::MetricEvent{now, power, 90.0 + ((i + salt) % 13)});
        t.append(trace::MetricEvent{now, volt, 0.9});
        for (const std::uint32_t c : ctrs) {
          t.append(trace::MetricEvent{now, c, 1.0e8 + static_cast<double>(c + salt) * i});
        }
      }
      t.append(trace::RegionExit{now, phase});
      now += 1000000;
    }
  }
  return t;
}

/// Gate fixture files plus, per file, the phase profiles of the in-memory
/// trace that was written there: the reference the reader must reproduce.
struct IngestFixture {
  std::vector<std::string> paths;
  std::vector<std::vector<trace::PhaseProfile>> expected;
};

// Single-file gate fixture: ~198k events, ~4 MB.
const IngestFixture& shared_trace_fixture() {
  static const IngestFixture fixture = [] {
    const trace::Trace t = large_trace("md", 2.4, four_events(), 110, 0);
    const std::string p =
        (std::filesystem::temp_directory_path() / "pwx_perf_ingest.otf2l").string();
    trace::write_trace_file(t, p);
    return IngestFixture{{p}, {trace::build_phase_profiles(t)}};
  }();
  return fixture;
}

// Campaign gate fixture: 64 files x ~198k events (~4.2 MB each), multiplexed
// counter-group pairs across workloads and frequencies so the merge stage
// has real work to do.
const IngestFixture& mapped_campaign_fixture(std::size_t count) {
  static std::map<std::size_t, IngestFixture> cache;
  auto it = cache.find(count);
  if (it != cache.end()) {
    return it->second;
  }
  const char* names[] = {"md", "compute", "matmul", "memory_read"};
  const double freqs[] = {1.2, 1.9, 2.4};
  const std::vector<pmc::Preset> groups[2] = {
      {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS},
      {pmc::Preset::PRF_DM, pmc::Preset::BR_MSP}};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pwx_perf_mapped_" + std::to_string(count));
  std::filesystem::create_directories(dir);
  IngestFixture fixture;
  for (std::size_t i = 0; i < count; ++i) {
    const trace::Trace t = large_trace(names[(i / 2) % 4], freqs[(i / 8) % 3],
                                       groups[i % 2], 110, i);
    const std::string path = (dir / ("trace_" + std::to_string(i) + ".otf2l")).string();
    trace::write_trace_file(t, path);
    fixture.paths.push_back(path);
    fixture.expected.push_back(trace::build_phase_profiles(t));
  }
  return cache.emplace(count, std::move(fixture)).first->second;
}

bool profiles_bit_identical(const std::vector<trace::PhaseProfile>& a,
                            const std::vector<trace::PhaseProfile>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].workload != b[i].workload || a[i].phase != b[i].phase ||
        a[i].frequency_ghz != b[i].frequency_ghz || a[i].threads != b[i].threads ||
        a[i].elapsed_s != b[i].elapsed_s ||
        a[i].avg_power_watts != b[i].avg_power_watts ||
        a[i].avg_voltage != b[i].avg_voltage ||
        a[i].counter_rates != b[i].counter_rates ||
        a[i].runs_merged != b[i].runs_merged) {
      return false;
    }
  }
  return true;
}

// Single file, deserialize-to-profiles: the tentpole hot path. Checksum
// verification is deferred (MapOptions) — integrity for this fixture is
// covered by the verified comparison pass below.
void BM_IngestToProfilesMapped(benchmark::State& state) {
  const IngestFixture& fixture = shared_trace_fixture();
  const std::string& path = fixture.paths.front();
  {
    const auto file = trace::MappedTraceFile::open(path);
    if (!file.mapped() || !profiles_bit_identical(trace::build_phase_profiles(file.view()),
                                                  fixture.expected.front())) {
      state.SkipWithError("file ingestion diverged from the written trace");
      return;
    }
  }
  for (auto _ : state) {
    const auto file = trace::MappedTraceFile::open(path, {.verify_checksum = false});
    const auto profiles = trace::build_phase_profiles(file.view());
    benchmark::DoNotOptimize(profiles.size());
  }
  state.counters["bytes"] =
      benchmark::Counter(static_cast<double>(std::filesystem::file_size(path)));
}
BENCHMARK(BM_IngestToProfilesMapped)->Unit(benchmark::kMillisecond);

// Same path with the checksum pass included, so the gate report shows what
// deferral buys (not gated).
void BM_IngestToProfilesMappedVerify(benchmark::State& state) {
  const std::string& path = shared_trace_fixture().paths.front();
  for (auto _ : state) {
    const auto file = trace::MappedTraceFile::open(path);
    const auto profiles = trace::build_phase_profiles(file.view());
    benchmark::DoNotOptimize(profiles.size());
  }
}
BENCHMARK(BM_IngestToProfilesMappedVerify)->Unit(benchmark::kMillisecond);

void BM_ProfileCampaignMapped(benchmark::State& state) {
  const IngestFixture& fixture =
      mapped_campaign_fixture(static_cast<std::size_t>(state.range(0)));
  acquire::IngestOptions options;
  options.verify_checksum = false;
  {
    acquire::IngestOptions verified = options;
    verified.verify_checksum = true;
    if (!profiles_bit_identical(trace::profile_trace_files(fixture.paths, verified),
                                trace::merge_first_appearance(fixture.expected))) {
      state.SkipWithError("campaign ingestion diverged from the written traces");
      return;
    }
  }
  for (auto _ : state) {
    const acquire::Dataset dataset = acquire::ingest_trace_files(fixture.paths, options);
    benchmark::DoNotOptimize(dataset.size());
  }
}
BENCHMARK(BM_ProfileCampaignMapped)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace
