// Epoch-based model hot-swap: LayoutEpoch publication semantics, estimator
// adoption on the scalar and the convert-and-batch path, and the
// multi-threaded soaks proving that readers never drop an estimate or emit
// NaN while hot swaps race them.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "acquire/dataset.hpp"
#include "common/rng.hpp"
#include "core/epoch.hpp"
#include "core/estimator.hpp"
#include "core/model.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

const std::vector<pmc::Preset> kEventsA{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC,
                                        pmc::Preset::BR_MSP};
const std::vector<pmc::Preset> kEventsB{pmc::Preset::TOT_CYC, pmc::Preset::BR_MSP};
const std::vector<pmc::Preset> kEventsC{pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS};
const std::vector<pmc::Preset> kAllEvents{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC,
                                          pmc::Preset::BR_MSP, pmc::Preset::TOT_INS};

/// Synthetic Eq.1-representable model over the given events (fleet_test's
/// generator, parameterized so different generations are genuinely
/// different models).
PowerModel make_model(const std::vector<pmc::Preset>& events, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> coeffs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    coeffs.push_back(rng.uniform(3.0, 25.0));
  }
  Dataset ds;
  for (std::size_t i = 0; i < 150; ++i) {
    DataRow row;
    row.workload = "w" + std::to_string(i % 6);
    row.phase = "main";
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    double power = 8.0 * v2f + 12.0 * row.avg_voltage + 6.0;
    for (std::size_t e = 0; e < events.size(); ++e) {
      const double rate = rng.uniform(0.1, 3.0);
      row.counter_rates[events[e]] = rate * row.frequency_ghz * 1e9;
      power += coeffs[e] * rate * v2f;
    }
    row.avg_power_watts = power + rng.normal(0.0, 0.3);
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  FeatureSpec spec;
  spec.events = events;
  return train_model(ds, spec);
}

/// A valid sample carrying every event any test model uses.
CounterSample union_sample(Rng& rng) {
  CounterSample sample;
  sample.elapsed_s = rng.uniform(0.05, 2.0);
  sample.frequency_ghz = rng.uniform(1.0, 3.5);
  sample.voltage = rng.uniform(0.7, 1.2);
  for (pmc::Preset p : kAllEvents) {
    sample.counts[p] = rng.uniform(0.0, 5e9);
  }
  return sample;
}

// --------------------------------------------------------- epoch semantics

TEST(LayoutEpoch, ConstructionPublishesGenerationOne) {
  LayoutEpoch epoch(make_model(kEventsA, 1));
  EXPECT_EQ(epoch.generation(), 1u);
  EXPECT_EQ(epoch.swap_count(), 0u);
  ASSERT_NE(epoch.current(), nullptr);
  EXPECT_EQ(epoch.current()->generation, 1u);
  EXPECT_EQ(epoch.current()->model.spec().events, kEventsA);
}

TEST(LayoutEpoch, PublishAdvancesGenerationAndRetainsHistory) {
  LayoutEpoch epoch(make_model(kEventsA, 1));
  const auto gen1 = epoch.current();
  EXPECT_EQ(epoch.publish(make_model(kEventsB, 2)), 2u);
  EXPECT_EQ(epoch.generation(), 2u);
  EXPECT_EQ(epoch.swap_count(), 1u);
  // A reader still holding generation 1 keeps a fully usable publication.
  EXPECT_EQ(gen1->generation, 1u);
  EXPECT_EQ(gen1->model.spec().events, kEventsA);
  EXPECT_EQ(gen1->layout.events(), kEventsA);
  EXPECT_EQ(epoch.current()->generation, 2u);
  EXPECT_EQ(epoch.current()->model.spec().events, kEventsB);
}

TEST(LayoutEpoch, TryPublishRejectsStaleExpectation) {
  LayoutEpoch epoch(make_model(kEventsA, 1));
  // A slower retrainer observed generation 1, but another publish landed.
  epoch.publish(make_model(kEventsB, 2));
  const auto rejected = epoch.try_publish(make_model(kEventsA, 3), 1);
  EXPECT_FALSE(rejected.has_value());
  EXPECT_EQ(epoch.generation(), 2u);  // nothing was published
  EXPECT_EQ(epoch.current()->model.spec().events, kEventsB);

  const auto accepted = epoch.try_publish(make_model(kEventsA, 3), 2);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(*accepted, 3u);
  EXPECT_EQ(epoch.generation(), 3u);
}

// ----------------------------------------------------- estimator adoption

TEST(EpochEstimator, AdoptsPublishedModelOnNextEstimate) {
  auto epoch = std::make_shared<LayoutEpoch>(make_model(kEventsA, 1));
  OnlineEstimator serving(epoch);
  PowerModel model_b = make_model(kEventsB, 2);
  OnlineEstimator pinned_a(make_model(kEventsA, 1));
  OnlineEstimator pinned_b(model_b);

  Rng rng(7);
  const CounterSample sample = union_sample(rng);
  EXPECT_DOUBLE_EQ(serving.estimate(sample), pinned_a.estimate(sample));
  EXPECT_EQ(serving.generation(), 1u);

  epoch->publish(model_b);
  // Adoption happens on the next call, lock-free; the result must be
  // bit-identical to an estimator that always had model B.
  EXPECT_DOUBLE_EQ(serving.estimate(sample), pinned_b.estimate(sample));
  EXPECT_EQ(serving.generation(), 2u);
  EXPECT_EQ(serving.required_events(), kEventsB);
}

TEST(EpochEstimator, PinnedEstimatorNeverAdopts) {
  auto epoch = std::make_shared<LayoutEpoch>(make_model(kEventsA, 1));
  OnlineEstimator pinned(make_model(kEventsA, 1));
  Rng rng(8);
  const CounterSample sample = union_sample(rng);
  const double before = pinned.estimate(sample);
  epoch->publish(make_model(kEventsB, 2));
  EXPECT_DOUBLE_EQ(pinned.estimate(sample), before);
  EXPECT_EQ(pinned.generation(), 1u);
}

TEST(EpochEstimator, GuardedStateSurvivesSwap) {
  auto epoch = std::make_shared<LayoutEpoch>(make_model(kEventsA, 1));
  OnlineEstimator serving(epoch);
  Rng rng(9);
  const CounterSample good = union_sample(rng);
  const double held = serving.estimate_guarded(good);
  EXPECT_EQ(serving.health(), HealthState::Ok);

  CounterSample bad = good;
  bad.elapsed_s = 0.0;
  EXPECT_DOUBLE_EQ(serving.estimate_guarded(bad), held);
  EXPECT_EQ(serving.health(), HealthState::Degraded);

  // The swap must not reset the degradation bookkeeping: the stream is
  // continuous even though the model changed.
  epoch->publish(make_model(kEventsB, 2));
  EXPECT_DOUBLE_EQ(serving.estimate_guarded(bad), held);
  EXPECT_EQ(serving.health(), HealthState::Degraded);
  EXPECT_EQ(serving.consecutive_invalid(), 2u);
  EXPECT_EQ(serving.generation(), 2u);

  // A good sample on the new model restores OK.
  const double recovered = serving.estimate_guarded(good);
  EXPECT_TRUE(std::isfinite(recovered));
  EXPECT_EQ(serving.health(), HealthState::Ok);
}

// The convert-and-batch overload pwx-ingestd serves through. kEventsB and
// kEventsC both compile to 2 slots, so a batch converted against the old
// layout and scored by the new one would read BR_MSP counts as TOT_INS
// without any slot-count error: only adopting before converting keeps the
// output right.
TEST(EpochEstimator, BatchConvertAdoptsSwapBeforeConverting) {
  auto epoch = std::make_shared<LayoutEpoch>(make_model(kEventsB, 2));
  OnlineEstimator serving(epoch);
  PowerModel model_c = make_model(kEventsC, 3);
  OnlineEstimator pinned_c(model_c);

  Rng rng(15);
  std::vector<CounterSample> samples;
  for (std::size_t i = 0; i < 9; ++i) {
    samples.push_back(union_sample(rng));
  }
  SampleBatch scratch;  // reused across the swap
  std::vector<double> out(samples.size());
  std::vector<HealthState> health(samples.size());
  serving.estimate_batch_guarded(samples, scratch, out, health);
  EXPECT_EQ(serving.generation(), 1u);

  epoch->publish(model_c);
  serving.estimate_batch_guarded(samples, scratch, out, health);

  SampleBatch pinned_scratch;
  std::vector<double> expected(samples.size());
  pinned_c.estimate_batch_guarded(samples, pinned_scratch, expected);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "lane " << i;
    EXPECT_EQ(health[i], HealthState::Ok) << "lane " << i;
  }
  EXPECT_EQ(serving.health(), HealthState::Ok);
  EXPECT_EQ(serving.generation(), 2u);
}

// ------------------------------------------------------------------- soak

// Readers estimate continuously while a swapper publishes new models. No
// estimate may be dropped, NaN, or outside the guard range, and each
// reader's observed generation must be monotone non-decreasing.
TEST(EpochSoak, ReadersNeverSeeNaNWhileSwapsRace) {
  auto epoch = std::make_shared<LayoutEpoch>(make_model(kEventsA, 1));
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kEstimatesPerReader = 4000;
  constexpr std::size_t kSwaps = 40;

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      OnlineEstimator estimator(epoch);
      Rng rng(100 + r);
      std::uint64_t last_generation = 0;
      for (std::size_t i = 0; i < kEstimatesPerReader; ++i) {
        const double watts = estimator.estimate_guarded(union_sample(rng));
        const std::uint64_t generation = estimator.generation();
        if (!std::isfinite(watts) || watts < kMinWatts || watts > kMaxWatts ||
            generation < last_generation) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        last_generation = generation;
      }
    });
  }
  std::thread swapper([&] {
    for (std::size_t s = 0; s < kSwaps; ++s) {
      epoch->publish(
          make_model(s % 2 == 0 ? kEventsB : kEventsA, 1000 + s));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : readers) {
    t.join();
  }
  swapper.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(epoch->generation(), 1 + kSwaps);
}

// Barrier-synchronized swap schedule: with swaps pinned to known sample
// boundaries, the concurrent run must be bit-identical to a serial replay of
// the same schedule — hot swapping adds no nondeterminism of its own.
TEST(EpochSoak, BarrieredSwapScheduleMatchesSerialReplayBitExactly) {
  constexpr std::size_t kPhases = 6;
  constexpr std::size_t kSamplesPerPhase = 50;

  // Pre-generate the deterministic inputs and swap schedule.
  std::vector<CounterSample> samples;
  {
    Rng rng(321);
    for (std::size_t i = 0; i < kPhases * kSamplesPerPhase; ++i) {
      samples.push_back(union_sample(rng));
    }
  }
  const auto model_for_phase = [](std::size_t phase) {
    return make_model(phase % 2 == 0 ? kEventsA : kEventsB, 4000 + phase);
  };

  // Serial replay: estimate each phase's samples, then swap.
  std::vector<double> serial;
  {
    auto epoch = std::make_shared<LayoutEpoch>(model_for_phase(0));
    OnlineEstimator estimator(epoch);
    for (std::size_t phase = 0; phase < kPhases; ++phase) {
      if (phase > 0) {
        epoch->publish(model_for_phase(phase));
      }
      for (std::size_t i = 0; i < kSamplesPerPhase; ++i) {
        serial.push_back(
            estimator.estimate_guarded(samples[phase * kSamplesPerPhase + i]));
      }
    }
  }

  // Concurrent run: a reader thread and a swapper thread synchronized by a
  // barrier at every phase boundary.
  std::vector<double> concurrent(serial.size());
  {
    auto epoch = std::make_shared<LayoutEpoch>(model_for_phase(0));
    std::barrier<> phase_barrier(2);
    std::thread reader([&] {
      OnlineEstimator estimator(epoch);
      for (std::size_t phase = 0; phase < kPhases; ++phase) {
        phase_barrier.arrive_and_wait();  // swapper published phase's model
        for (std::size_t i = 0; i < kSamplesPerPhase; ++i) {
          const std::size_t index = phase * kSamplesPerPhase + i;
          concurrent[index] = estimator.estimate_guarded(samples[index]);
        }
        phase_barrier.arrive_and_wait();  // phase fully estimated
      }
    });
    std::thread swapper([&] {
      for (std::size_t phase = 0; phase < kPhases; ++phase) {
        if (phase > 0) {
          epoch->publish(model_for_phase(phase));
        }
        phase_barrier.arrive_and_wait();
        phase_barrier.arrive_and_wait();
      }
    });
    reader.join();
    swapper.join();
  }

  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(concurrent[i], serial[i]) << "sample " << i;
  }
}

}  // namespace
}  // namespace pwx::core
