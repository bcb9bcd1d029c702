// Performance of the deployment path: per-sample estimation latency of the
// online estimator and Equation-1 feature construction. Run-time estimation
// must cost microseconds, not milliseconds, to be usable as a power proxy.
#include <benchmark/benchmark.h>

#include "core/estimator.hpp"
#include "core/model.hpp"
#include "core/model_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "repro_common.hpp"

namespace {

using namespace pwx;

const core::PowerModel& shared_model() {
  static const core::PowerModel model = [] {
    const bench::StandardPipeline& p = bench::StandardPipeline::get();
    return core::train_model(*p.training, p.spec);
  }();
  return model;
}

core::CounterSample sample_for_model(const core::PowerModel& model) {
  core::CounterSample sample;
  sample.elapsed_s = 0.25;
  sample.frequency_ghz = 2.4;
  sample.voltage = 0.99;
  for (pmc::Preset p : model.spec().events) {
    sample.counts[p] = 1e8;
  }
  return sample;
}

void BM_EstimateSample(benchmark::State& state) {
  core::OnlineEstimator estimator(shared_model());
  const core::CounterSample sample = sample_for_model(shared_model());
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(sample));
  }
}
BENCHMARK(BM_EstimateSample);

void BM_EstimateSampleSmoothed(benchmark::State& state) {
  core::OnlineEstimator estimator(shared_model(), 0.5);
  const core::CounterSample sample = sample_for_model(shared_model());
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(sample));
  }
}
BENCHMARK(BM_EstimateSampleSmoothed);

// Telemetry overhead contract: the guarded path with metrics enabled must
// stay within a few percent of the disabled path (bench_compare.py
// --pair-suffix Telemetry --max-overhead enforces the bound in CI).
void BM_EstimateSampleGuarded(benchmark::State& state) {
  obs::set_enabled(false);
  core::OnlineEstimator estimator(shared_model());
  const core::CounterSample sample = sample_for_model(shared_model());
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate_guarded(sample));
  }
}
BENCHMARK(BM_EstimateSampleGuarded);

void BM_EstimateSampleGuardedTelemetry(benchmark::State& state) {
  obs::set_enabled(true);
  core::OnlineEstimator estimator(shared_model());
  const core::CounterSample sample = sample_for_model(shared_model());
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate_guarded(sample));
  }
  obs::set_enabled(false);
}
BENCHMARK(BM_EstimateSampleGuardedTelemetry);

// Structured-tracing overhead contract: telemetry on plus an active sampled
// tracer session (obs/trace.hpp). The per-sample path opens no span of its
// own, so this measures the real steady-state cost — the tracing_active()
// gates and the histogram exemplar writes — which bench_compare.py
// --pair-suffix Tracing bounds against the base guarded benchmark.
void BM_EstimateSampleGuardedTracing(benchmark::State& state) {
  obs::set_enabled(true);
  obs::TracerConfig config;
  config.sample_every = 64;
  obs::tracer().start(config);
  core::OnlineEstimator estimator(shared_model());
  const core::CounterSample sample = sample_for_model(shared_model());
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate_guarded(sample));
  }
  obs::tracer().stop();
  obs::tracer().drain();
  obs::set_enabled(false);
}
BENCHMARK(BM_EstimateSampleGuardedTracing);

// The pre-batching consumer pattern: N guarded estimates through the scalar
// per-sample path over an AoS sample vector. Kept as the reference the
// batched benchmark's speedup is measured against (bench/perf_baseline.json
// pins this loop's time under the BM_EstimateBatchGuarded name).
void BM_EstimateScalarLoop(benchmark::State& state) {
  obs::set_enabled(false);
  core::OnlineEstimator estimator(shared_model());
  const core::ModelLayout& layout = estimator.layout();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<core::DenseSample> samples(n, layout.make_sample());
  const core::CounterSample proto = sample_for_model(shared_model());
  for (std::size_t k = 0; k < n; ++k) {
    layout.to_dense_guarded(proto, samples[k]);
    samples[k].voltage += 1e-4 * static_cast<double>(k % 7);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (const core::DenseSample& sample : samples) {
      acc += estimator.estimate_guarded(sample);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EstimateScalarLoop)->Arg(4096)->Unit(benchmark::kMillisecond);

// The batched replacement: same samples in an SoA batch, one
// estimate_batch_guarded call. Bit-identical outputs to the scalar loop;
// the CI gate (bench_batch_gate) requires >=4x over the scalar-loop time
// checked into the baseline.
void BM_EstimateBatchGuarded(benchmark::State& state) {
  obs::set_enabled(false);
  core::OnlineEstimator estimator(shared_model());
  const core::ModelLayout& layout = estimator.layout();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::SampleBatch batch;
  batch.reset(layout, n);
  core::DenseSample dense = layout.make_sample();
  const core::CounterSample proto = sample_for_model(shared_model());
  for (std::size_t k = 0; k < n; ++k) {
    layout.to_dense_guarded(proto, dense);
    dense.voltage += 1e-4 * static_cast<double>(k % 7);
    batch.append(dense);
  }
  std::vector<double> out(n);
  for (auto _ : state) {
    estimator.estimate_batch_guarded(batch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EstimateBatchGuarded)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_TrainModel(benchmark::State& state) {
  const bench::StandardPipeline& p = bench::StandardPipeline::get();
  for (auto _ : state) {
    const auto model = core::train_model(*p.training, p.spec);
    benchmark::DoNotOptimize(model.fit().r_squared);
  }
}
BENCHMARK(BM_TrainModel)->Unit(benchmark::kMillisecond);

void BM_ModelJsonRoundTrip(benchmark::State& state) {
  const core::PowerModel& model = shared_model();
  for (auto _ : state) {
    const auto loaded = core::model_from_json(core::model_to_json(model));
    benchmark::DoNotOptimize(loaded.spec().events.size());
  }
}
BENCHMARK(BM_ModelJsonRoundTrip);

}  // namespace
