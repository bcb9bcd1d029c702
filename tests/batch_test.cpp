// Tests for the SIMD-batched estimation layer: SoA SampleBatch converters,
// lane-per-sample kernel bit-identity against the scalar predict path,
// guarded batch folds vs sequential estimate_guarded calls, and kernel
// dispatch (forced scalar vs AVX2 digest equality under chaos).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/dense_kernels.hpp"
#include "core/estimator.hpp"
#include "core/model.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Same exactly-representable corpus core_test uses:
/// P = 20 E1 V²f + 5 E2 V²f + 8 V²f + 12 V + 6.
Dataset exact_dataset(std::size_t n = 64, std::uint64_t seed = 9) {
  Rng rng(seed);
  Dataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    DataRow row;
    row.workload = "w" + std::to_string(i % 7);
    row.phase = "main";
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.threads = 1 + (i % 24);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double e1 = rng.uniform(0.1, 2.0);
    const double e2 = rng.uniform(0.0, 5.0);
    row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
    row.counter_rates[pmc::Preset::TOT_CYC] = e2 * row.frequency_ghz * 1e9;
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    row.avg_power_watts = 20.0 * e1 * v2f + 5.0 * e2 * v2f + 8.0 * v2f +
                          12.0 * row.avg_voltage + 6.0;
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  return ds;
}

const PowerModel& test_model() {
  static const PowerModel model = [] {
    FeatureSpec spec;
    spec.events = {pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
    return train_model(exact_dataset(), spec);
  }();
  return model;
}

/// A varied, valid counter sample. `elapsed` defaults to a power of two so
/// the exact-reciprocal kernel path is the one most tests exercise; pass a
/// non-power-of-two to cover the division path.
CounterSample varied_sample(Rng& rng, double elapsed = 0.25) {
  CounterSample s;
  s.elapsed_s = elapsed;
  s.frequency_ghz = rng.uniform(1.0, 3.0);
  s.voltage = rng.uniform(0.7, 1.1);
  s.counts[pmc::Preset::PRF_DM] = rng.uniform(0.0, 1e9);
  s.counts[pmc::Preset::TOT_CYC] = rng.uniform(0.0, 5e9);
  return s;
}

std::uint64_t fnv1a_bits(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// RAII kernel pin so a failing assertion can't leak a forced kernel into
/// the next test.
struct ForcedKernel {
  explicit ForcedKernel(BatchKernel k) { force_batch_kernel(k); }
  ~ForcedKernel() { force_batch_kernel(std::nullopt); }
};

// ------------------------------------------------------------- converters

TEST(SampleBatch, AppendMirrorsDenseSample) {
  const ModelLayout layout(test_model());
  Rng rng(1);
  SampleBatch batch;
  batch.reset(layout, 4);
  DenseSample dense = layout.make_sample();
  layout.to_dense_guarded(varied_sample(rng), dense);
  const std::size_t lane = batch.append(dense);
  EXPECT_EQ(lane, 0u);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.elapsed_lanes()[0], dense.elapsed_s);
  EXPECT_EQ(batch.frequency_lanes()[0], dense.frequency_ghz);
  EXPECT_EQ(batch.voltage_lanes()[0], dense.voltage);
  for (std::size_t s = 0; s < layout.slots(); ++s) {
    EXPECT_EQ(batch.count_lanes(s)[0], dense.counts[s]);
  }
}

TEST(SampleBatch, PaddingIsAlwaysLaneWidthAligned) {
  const ModelLayout layout(test_model());
  Rng rng(2);
  SampleBatch batch;
  batch.reset(layout);
  DenseSample dense = layout.make_sample();
  for (std::size_t n = 1; n <= 3 * kBatchLaneWidth; ++n) {
    layout.to_dense_guarded(varied_sample(rng), dense);
    batch.append(dense);
    EXPECT_EQ(batch.size(), n);
    EXPECT_EQ(batch.padded_size() % kBatchLaneWidth, 0u);
    EXPECT_GE(batch.padded_size(), n);
  }
}

TEST(SampleBatch, WrongSlotCountSamplePoisonsItsLane) {
  const ModelLayout layout(test_model());
  SampleBatch batch;
  batch.reset(layout);
  DenseSample wrong = layout.make_sample();
  wrong.elapsed_s = 0.5;
  wrong.frequency_ghz = 2.0;
  wrong.voltage = 1.0;
  wrong.counts.resize(layout.slots() + 1, 1.0);
  batch.append(wrong);
  std::vector<double> out(1);
  std::vector<std::uint8_t> valid(1);
  predict_batch_guarded(layout, batch, out, valid);
  EXPECT_EQ(valid[0], 0);
}

TEST(SampleBatch, ElapsedReciprocalTracking) {
  const ModelLayout layout(test_model());
  Rng rng(5);
  SampleBatch batch;
  batch.reset(layout);
  DenseSample dense = layout.make_sample();
  layout.to_dense_guarded(varied_sample(rng, 0.25), dense);
  batch.append(dense);
  EXPECT_TRUE(batch.elapsed_reciprocal_exact());
  EXPECT_EQ(batch.inv_elapsed_lanes()[0], 4.0);
  layout.to_dense_guarded(varied_sample(rng, 0.3), dense);
  batch.append(dense);
  EXPECT_FALSE(batch.elapsed_reciprocal_exact());  // 0.3 has no exact 1/e
  batch.clear();
  EXPECT_FALSE(batch.elapsed_reciprocal_exact());  // empty: no lanes to vouch for
  layout.to_dense_guarded(varied_sample(rng, 1.0), dense);
  batch.append(dense);
  EXPECT_TRUE(batch.elapsed_reciprocal_exact());  // clear() reset the flag
}

// ------------------------------------------------- kernel bit-identity

class KernelBitIdentity : public ::testing::TestWithParam<BatchKernel> {
protected:
  void SetUp() override {
    if (!batch_kernel_available(GetParam())) {
      GTEST_SKIP() << "kernel " << batch_kernel_name(GetParam())
                   << " unavailable on this machine/build";
    }
  }
};

TEST_P(KernelBitIdentity, MatchesScalarPredictAcrossBatchSizes) {
  const ForcedKernel pin(GetParam());
  const ModelLayout layout(test_model());
  Rng rng(11);
  // Sweep both the power-of-two elapsed (reciprocal kernel path) and a
  // non-power-of-two (division path): both must replay predict exactly.
  for (double elapsed : {0.25, 0.3}) {
    for (std::size_t n = 1; n <= 3 * kBatchLaneWidth; ++n) {
      SampleBatch batch;
      batch.reset(layout, n);
      std::vector<DenseSample> samples;
      for (std::size_t k = 0; k < n; ++k) {
        DenseSample dense = layout.make_sample();
        layout.to_dense_guarded(varied_sample(rng, elapsed), dense);
        samples.push_back(dense);
        batch.append(dense);
      }
      std::vector<double> out(n);
      std::vector<std::uint8_t> valid(n);
      predict_batch_guarded(layout, batch, out, valid);
      for (std::size_t k = 0; k < n; ++k) {
        const double reference = layout.predict(samples[k]);
        EXPECT_EQ(std::memcmp(&out[k], &reference, sizeof(double)), 0)
            << "n=" << n << " lane " << k << " elapsed=" << elapsed;
      }
    }
  }
}

TEST_P(KernelBitIdentity, ValidityMatchesTryPredict) {
  const ForcedKernel pin(GetParam());
  const ModelLayout layout(test_model());
  Rng rng(13);
  SampleBatch batch;
  batch.reset(layout);
  std::vector<DenseSample> samples;
  for (std::size_t k = 0; k < 2 * kBatchLaneWidth + 3; ++k) {
    DenseSample dense = layout.make_sample();
    layout.to_dense_guarded(varied_sample(rng), dense);
    switch (k % 7) {
      case 1: dense.counts[0] = kNaN; break;
      case 2: dense.elapsed_s = 0.0; break;
      case 3: dense.voltage = -0.9; break;
      case 4: dense.counts[1] = kInf; break;
      case 5: dense.frequency_ghz = kNaN; break;
      case 6: dense.counts[0] = -1.0; break;
      default: break;  // valid lane
    }
    samples.push_back(dense);
    batch.append(dense);
  }
  std::vector<double> out(samples.size());
  std::vector<std::uint8_t> valid(samples.size());
  predict_batch_guarded(layout, batch, out, valid);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const std::optional<double> reference = layout.try_predict(samples[k]);
    EXPECT_EQ(valid[k] != 0, reference.has_value()) << "lane " << k;
    if (reference.has_value()) {
      EXPECT_EQ(out[k], *reference) << "lane " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelBitIdentity,
                         ::testing::Values(BatchKernel::Scalar,
                                           BatchKernel::Avx2),
                         [](const auto& info) {
                           return std::string(batch_kernel_name(info.param));
                         });

TEST(KernelDispatch, ScalarAlwaysAvailableAndForceRoundTrips) {
  EXPECT_TRUE(batch_kernel_available(BatchKernel::Scalar));
  const BatchKernel automatic = active_batch_kernel();
  {
    const ForcedKernel pin(BatchKernel::Scalar);
    EXPECT_EQ(active_batch_kernel(), BatchKernel::Scalar);
  }
  EXPECT_EQ(active_batch_kernel(), automatic);
  if (!batch_kernel_available(BatchKernel::Avx2)) {
    EXPECT_THROW(force_batch_kernel(BatchKernel::Avx2), InvalidArgument);
  }
}

// --------------------------------------------- guarded batch vs scalar fold

/// Builds a chaos batch: valid lanes interleaved with NaN counts, zero and
/// negative elapsed, Inf counts, and negative voltage, deterministically
/// from `seed`.
std::vector<DenseSample> chaos_samples(const ModelLayout& layout,
                                       std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DenseSample> samples;
  for (std::size_t k = 0; k < n; ++k) {
    DenseSample dense = layout.make_sample();
    layout.to_dense_guarded(varied_sample(rng), dense);
    const double roll = rng.uniform();
    if (roll < 0.10) {
      dense.counts[rng.uniform() < 0.5 ? 0 : 1] = kNaN;
    } else if (roll < 0.15) {
      dense.elapsed_s = 0.0;
    } else if (roll < 0.20) {
      dense.counts[0] = kInf;
    } else if (roll < 0.25) {
      dense.voltage = -dense.voltage;
    } else if (roll < 0.30) {
      dense.counts[1] = -5.0;
    }
    samples.push_back(dense);
  }
  return samples;
}

class GuardedBatchFold : public ::testing::TestWithParam<double> {};

TEST_P(GuardedBatchFold, MatchesSequentialEstimateGuarded) {
  const double smoothing = GetParam();
  const ModelLayout layout(test_model());
  for (std::size_t n = 1; n <= 3 * kBatchLaneWidth; ++n) {
    OnlineEstimator scalar(test_model(), smoothing);
    OnlineEstimator batched(test_model(), smoothing);
    const auto samples = chaos_samples(layout, n, 0x5EED + n);
    SampleBatch batch;
    batch.reset(layout, n);
    std::vector<double> expected;
    std::vector<HealthState> expected_health;
    for (const DenseSample& s : samples) {
      expected.push_back(scalar.estimate_guarded(s));
      expected_health.push_back(scalar.health());
      batch.append(s);
    }
    std::vector<double> out(n);
    std::vector<HealthState> health(n);
    batched.estimate_batch_guarded(batch, out, health);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(out[k], expected[k]) << "n=" << n << " lane " << k;
      EXPECT_EQ(health[k], expected_health[k]) << "n=" << n << " lane " << k;
    }
    EXPECT_EQ(batched.health(), scalar.health()) << "n=" << n;
    // The next single-sample estimate must agree too: the terminal
    // GuardedState (invalid streak, last_good, smoothed) carried over.
    DenseSample probe = layout.make_sample();
    Rng rng(n);
    layout.to_dense_guarded(varied_sample(rng), probe);
    EXPECT_EQ(batched.estimate_guarded(probe), scalar.estimate_guarded(probe))
        << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(SmoothingSweep, GuardedBatchFold,
                         ::testing::Values(0.0, 0.5));

TEST(GuardedBatch, AllInvalidBatchDegradesThenFails) {
  const ModelLayout layout(test_model());
  OnlineEstimator estimator(test_model());
  SampleBatch batch;
  batch.reset(layout);
  DenseSample bad = layout.make_sample();
  Rng rng(21);
  const std::size_t n = kMaxConsecutiveInvalid + 4;
  for (std::size_t k = 0; k < n; ++k) {
    layout.to_dense_guarded(varied_sample(rng), bad);
    bad.elapsed_s = -1.0;
    batch.append(bad);
  }
  std::vector<double> out(n);
  std::vector<HealthState> health(n);
  estimator.estimate_batch_guarded(batch, out, health);
  EXPECT_EQ(health.front(), HealthState::Degraded);
  EXPECT_EQ(health.back(), HealthState::Failed);
  EXPECT_EQ(estimator.health(), HealthState::Failed);
}

TEST(GuardedBatch, TelemetryCountsBatchLanes) {
  const ModelLayout layout(test_model());
  OnlineEstimator estimator(test_model());
  SampleBatch batch;
  batch.reset(layout);
  const auto samples = chaos_samples(layout, 3 * kBatchLaneWidth, 0xFACE);
  std::size_t invalid = 0;
  for (const DenseSample& s : samples) {
    batch.append(s);
    invalid += layout.try_predict(s).has_value() ? 0 : 1;
  }
  ASSERT_GT(invalid, 0u) << "chaos seed produced no invalid lanes";
  obs::set_enabled(true);
  auto& samples_counter = obs::registry().counter(
      "estimate.batch.samples", "samples estimated through the batched path");
  auto& invalid_counter = obs::registry().counter(
      "estimate.batch.lanes_invalid",
      "batched-path lanes rejected by sample validation");
  const std::uint64_t samples_before = samples_counter.value();
  const std::uint64_t invalid_before = invalid_counter.value();
  std::vector<double> out(samples.size());
  estimator.estimate_batch_guarded(batch, out);
  obs::set_enabled(false);
  EXPECT_EQ(samples_counter.value() - samples_before, samples.size());
  EXPECT_EQ(invalid_counter.value() - invalid_before, invalid);
}

TEST(GuardedBatch, CounterSampleSpanOverloadMatchesBatchOverload) {
  const ModelLayout layout(test_model());
  Rng rng(31);
  std::vector<CounterSample> samples;
  for (std::size_t k = 0; k < 7; ++k) {
    CounterSample s = varied_sample(rng);
    if (k == 2) {
      s.counts.erase(pmc::Preset::PRF_DM);  // guarded conversion -> NaN lane
    }
    if (k == 5) {
      s.elapsed_s = 0.0;
    }
    samples.push_back(s);
  }
  OnlineEstimator a(test_model());
  OnlineEstimator b(test_model());
  SampleBatch manual;
  manual.reset(layout, samples.size());
  DenseSample dense = layout.make_sample();
  for (const CounterSample& s : samples) {
    layout.to_dense_guarded(s, dense);
    manual.append(dense);
  }
  std::vector<double> out_a(samples.size());
  std::vector<double> out_b(samples.size());
  a.estimate_batch_guarded(manual, out_a);
  SampleBatch scratch;
  b.estimate_batch_guarded(samples, scratch, out_b);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    EXPECT_EQ(out_a[k], out_b[k]) << "lane " << k;
  }
  EXPECT_EQ(a.health(), b.health());
}

TEST(GuardedBatch, SlotMismatchMakesEveryLaneInvalid) {
  const ModelLayout layout(test_model());
  OnlineEstimator estimator(test_model());
  SampleBatch batch;
  // Bind the batch to a different slot count than the estimator's layout:
  // the hot-swap race the slot check guards against.
  FeatureSpec narrow;
  narrow.events = {pmc::Preset::PRF_DM};
  const PowerModel other = train_model(exact_dataset(32, 5), narrow);
  const ModelLayout other_layout(other);
  batch.reset(other_layout, 2);
  DenseSample dense = other_layout.make_sample();
  Rng rng(41);
  CounterSample cs = varied_sample(rng);
  other_layout.to_dense_guarded(cs, dense);
  batch.append(dense);
  batch.append(dense);
  std::vector<double> out(2);
  std::vector<HealthState> health(2);
  estimator.estimate_batch_guarded(batch, out, health);
  EXPECT_EQ(health[0], HealthState::Degraded);
  EXPECT_EQ(estimator.health(), HealthState::Degraded);
}

TEST(GuardedBatch, OutputSpanTooSmallThrows) {
  const ModelLayout layout(test_model());
  OnlineEstimator estimator(test_model());
  SampleBatch batch;
  batch.reset(layout);
  DenseSample dense = layout.make_sample();
  Rng rng(43);
  layout.to_dense_guarded(varied_sample(rng), dense);
  batch.append(dense);
  batch.append(dense);
  std::vector<double> out(1);
  EXPECT_THROW(estimator.estimate_batch_guarded(batch, out), InvalidArgument);
}

// ----------------------------------------------------- cross-kernel digest

TEST(KernelDigest, ForcedScalarAndAvx2AgreeUnderFaultPlanChaos) {
  if (!batch_kernel_available(BatchKernel::Avx2)) {
    GTEST_SKIP() << "AVX2 kernel unavailable on this machine/build";
  }
  const ModelLayout layout(test_model());
  // Seeded FaultPlan drives the corruption: NaN deltas, negative deltas,
  // and zeroed intervals land on deterministic lanes, so both kernels see
  // the exact same damaged sample stream.
  fault::FaultPlan plan;
  plan.seed = 0xD16E57;
  plan.specs.push_back({fault::FaultKind::NanDelta, 0.1, 1.0});
  plan.specs.push_back({fault::FaultKind::NegativeDelta, 0.1, 1.0});
  plan.specs.push_back({fault::FaultKind::DropSample, 0.1, 1.0});
  const fault::FaultInjector injector(plan);
  std::vector<std::uint64_t> digests;
  for (BatchKernel kernel : {BatchKernel::Scalar, BatchKernel::Avx2}) {
    const ForcedKernel pin(kernel);
    OnlineEstimator estimator(test_model(), 0.25);
    Rng rng(99);
    std::vector<double> all;
    std::uint64_t index = 0;
    for (std::uint64_t round = 0; round < 16; ++round) {
      const std::size_t n = 1 + (round * 7) % (3 * kBatchLaneWidth);
      SampleBatch batch;
      batch.reset(layout, n);
      for (std::size_t k = 0; k < n; ++k, ++index) {
        DenseSample dense = layout.make_sample();
        layout.to_dense_guarded(varied_sample(rng), dense);
        if (injector.fires(fault::FaultKind::NanDelta, "batch", index)) {
          dense.counts[0] = kNaN;
        }
        if (injector.fires(fault::FaultKind::NegativeDelta, "batch", index)) {
          dense.counts[1] = -4.0;
        }
        if (injector.fires(fault::FaultKind::DropSample, "batch", index)) {
          dense.elapsed_s = 0.0;  // a dropped interval reads as empty
        }
        batch.append(dense);
      }
      std::vector<double> out(n);
      estimator.estimate_batch_guarded(batch, out);
      all.insert(all.end(), out.begin(), out.end());
    }
    digests.push_back(fnv1a_bits(all));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace pwx::core
