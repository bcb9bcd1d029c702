// Performance of Algorithm 1: the greedy search fits O(#candidates x
// #selected) regression models; this bench measures the cost per selection
// run against candidate-set size.
#include <benchmark/benchmark.h>

#include "core/selection.hpp"
#include "repro_common.hpp"

namespace {

using namespace pwx;

void BM_SelectEvents(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const acquire::Dataset& dataset = acquire::standard_selection_dataset();
  const std::vector<pmc::Preset> candidates = pmc::haswell_ep_available_events();
  core::SelectionOptions opt;
  opt.count = count;
  for (auto _ : state) {
    const auto result = core::select_events(dataset, candidates, opt);
    benchmark::DoNotOptimize(result.steps.back().r_squared);
  }
}
BENCHMARK(BM_SelectEvents)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_SelectEventsWithVifVeto(benchmark::State& state) {
  const acquire::Dataset& dataset = acquire::standard_selection_dataset();
  const std::vector<pmc::Preset> candidates = pmc::haswell_ep_available_events();
  core::SelectionOptions opt;
  opt.count = static_cast<std::size_t>(state.range(0));
  opt.max_mean_vif = 8.0;
  for (auto _ : state) {
    const auto result = core::select_events(dataset, candidates, opt);
    benchmark::DoNotOptimize(result.steps.back().r_squared);
  }
}
BENCHMARK(BM_SelectEventsWithVifVeto)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_MeanVifOfSelected(benchmark::State& state) {
  const acquire::Dataset& dataset = acquire::standard_selection_dataset();
  const auto events = bench::StandardPipeline::get().spec.events;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::selected_events_mean_vif(dataset, events));
  }
}
BENCHMARK(BM_MeanVifOfSelected);

// Cost against candidate-pool size at a fixed selection count: the scan is
// linear in the pool, so time should grow roughly linearly from 8 to the
// full 54 Haswell-EP presets.
void BM_SelectEventsByCandidates(benchmark::State& state) {
  const auto n_candidates = static_cast<std::size_t>(state.range(0));
  const acquire::Dataset& dataset = acquire::standard_selection_dataset();
  std::vector<pmc::Preset> candidates = pmc::haswell_ep_available_events();
  candidates.resize(n_candidates);
  core::SelectionOptions opt;
  opt.count = 6;
  for (auto _ : state) {
    const auto result = core::select_events(dataset, candidates, opt);
    benchmark::DoNotOptimize(result.steps.back().r_squared);
  }
}
BENCHMARK(BM_SelectEventsByCandidates)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(54)
    ->Unit(benchmark::kMillisecond);

}  // namespace
