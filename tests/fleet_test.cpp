// Equivalence and scaling tests for the dense serving path and the sharded
// FleetEstimator: the dense (ModelLayout/DenseSample) representation must be
// bit-identical to the map-based one, and batched/sharded/parallel fleet
// ingestion must be bit-identical to one guarded OnlineEstimator per node
// for any shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"
#include "test_support.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

const std::vector<pmc::Preset> kEvents{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC,
                                       pmc::Preset::BR_MSP};

/// Synthetic Eq.1-representable model over three events (same generator idea
/// as extensions_test).
const PowerModel& test_model() {
  static const PowerModel model = [] {
    Rng rng(31);
    Dataset ds;
    for (std::size_t i = 0; i < 150; ++i) {
      DataRow row;
      row.workload = "w" + std::to_string(i % 6);
      row.phase = "main";
      row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
      row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
      const double e1 = rng.uniform(0.1, 2.0);
      const double e2 = rng.uniform(0.0, 5.0);
      row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
      row.counter_rates[pmc::Preset::TOT_CYC] = e2 * row.frequency_ghz * 1e9;
      row.counter_rates[pmc::Preset::BR_MSP] = rng.uniform(0, 1e7);
      const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
      row.avg_power_watts = 20.0 * e1 * v2f + 5.0 * e2 * v2f + 8.0 * v2f +
                            12.0 * row.avg_voltage + 6.0 + rng.normal(0.0, 0.5);
      row.elapsed_s = 1.0;
      ds.append(row);
    }
    FeatureSpec spec;
    spec.events = kEvents;
    return train_model(ds, spec);
  }();
  return model;
}

CounterSample random_sample(Rng& rng) {
  CounterSample sample;
  sample.elapsed_s = rng.uniform(0.05, 2.0);
  sample.frequency_ghz = rng.uniform(1.0, 3.5);
  sample.voltage = rng.uniform(0.7, 1.2);
  for (pmc::Preset p : kEvents) {
    sample.counts[p] = rng.uniform(0.0, 5e9);
  }
  return sample;
}

/// Randomly corrupts a sample the way flaky telemetry does.
CounterSample corrupt_sample(Rng& rng, CounterSample sample) {
  switch (static_cast<int>(rng.uniform(0.0, 5.0))) {
    case 0: sample.elapsed_s = 0.0; break;
    case 1: sample.voltage = -0.1; break;
    case 2: sample.counts.erase(kEvents[1]); break;
    case 3: sample.counts[kEvents[0]] = std::numeric_limits<double>::quiet_NaN(); break;
    default: sample.counts[kEvents[2]] = -4.0; break;
  }
  return sample;
}

// --------------------------------------------------- dense <-> map identity

TEST(DenseLayout, SlotOrderFollowsModelSpec) {
  const ModelLayout layout(test_model());
  ASSERT_EQ(layout.slots(), kEvents.size());
  for (std::size_t i = 0; i < kEvents.size(); ++i) {
    EXPECT_EQ(layout.events()[i], kEvents[i]);
  }
}

TEST(DenseLayout, PredictBitIdenticalToModelPredictRow) {
  const PowerModel& model = test_model();
  const ModelLayout layout(model);
  Rng rng(77);
  DenseSample dense = layout.make_sample();
  for (int i = 0; i < 200; ++i) {
    const CounterSample sample = random_sample(rng);
    layout.to_dense(sample, dense);
    // Independent oracle: the training-side prediction on a one-row Dataset
    // holding the equivalent DataRow (rates formed by the same counts/elapsed
    // division).
    DataRow row;
    row.frequency_ghz = sample.frequency_ghz;
    row.avg_voltage = sample.voltage;
    row.elapsed_s = sample.elapsed_s;
    for (const auto& [preset, counts] : sample.counts) {
      row.counter_rates[preset] = counts / sample.elapsed_s;
    }
    EXPECT_EQ(layout.predict(dense), model.predict(Dataset({row})).front())
        << "sample " << i;
  }
}

TEST(DenseLayout, StrictConversionThrowsOnMissingEvent) {
  const ModelLayout layout(test_model());
  Rng rng(5);
  CounterSample sample = random_sample(rng);
  sample.counts.erase(kEvents[0]);
  DenseSample dense;
  EXPECT_THROW(layout.to_dense(sample, dense), InvalidArgument);
}

TEST(OnlineEstimatorDense, GuardedPathBitIdenticalToMapUnderFaults) {
  Rng rng(4321);
  OnlineEstimator map_based(test_model(), /*smoothing=*/0.4);
  OnlineEstimator dense_based(test_model(), /*smoothing=*/0.4);
  DenseSample dense = dense_based.layout().make_sample();
  for (int i = 0; i < 500; ++i) {
    CounterSample sample = random_sample(rng);
    if (rng.uniform() < 0.3) {  // fault bursts drive DEGRADED -> FAILED -> OK
      sample = corrupt_sample(rng, sample);
    }
    dense_based.layout().to_dense_guarded(sample, dense);
    EXPECT_EQ(map_based.estimate_guarded(sample),
              dense_based.estimate_guarded(dense))
        << "diverged at sample " << i;
    EXPECT_EQ(map_based.health(), dense_based.health()) << "sample " << i;
    EXPECT_EQ(map_based.consecutive_invalid(), dense_based.consecutive_invalid());
  }
}

// --------------------------------------------------- fleet batch equivalence

struct BatchRound {
  std::vector<NodeSample> samples;
};

/// A seeded multi-round fleet workload with out-of-order node times within a
/// round, repeated nodes, and injected faults.
std::vector<BatchRound> make_workload(const ModelLayout& layout,
                                      const std::vector<NodeId>& ids,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchRound> rounds(8);
  double base = 0.0;
  for (BatchRound& round : rounds) {
    base += 10.0;
    for (NodeId id : ids) {
      if (rng.uniform() < 0.15) {
        continue;  // node misses this round
      }
      NodeSample ns;
      ns.node = id;
      ns.now_s = base + rng.uniform(0.0, 5.0);
      CounterSample sample = random_sample(rng);
      if (rng.uniform() < 0.25) {
        sample = corrupt_sample(rng, sample);
      }
      layout.to_dense_guarded(sample, ns.sample);
      round.samples.push_back(ns);
      if (rng.uniform() < 0.1) {  // occasional double report, later timestamp
        NodeSample again = ns;
        again.now_s += 1.0;
        round.samples.push_back(again);
      }
    }
  }
  return rounds;
}

class FleetBatchEquivalence
    : public ::testing::TestWithParam<std::pair<std::size_t, bool>> {};

TEST_P(FleetBatchEquivalence, BatchBitIdenticalToSerialIngest) {
  const auto [shard_count, parallel] = GetParam();
  FleetOptions options;
  options.shard_count = shard_count;
  options.parallel_ingest = parallel;
  const double smoothing = 0.5;
  const double horizon = 1e9;
  FleetEstimator batched(test_model(), smoothing, horizon, options);

  // Independent reference: one guarded OnlineEstimator per node (same
  // model, smoothing and guards), fed the same dense samples one at
  // a time in batch order — the scalar try_predict plus the guarded fold.
  const std::size_t node_count = 40;
  std::vector<NodeId> ids;
  std::vector<OnlineEstimator> reference;
  std::vector<std::optional<double>> reference_estimate(node_count);
  for (std::size_t n = 0; n < node_count; ++n) {
    ids.push_back(batched.intern("node" + std::to_string(n)));
    EXPECT_EQ(ids.back(), n);
    reference.emplace_back(test_model(), smoothing);
  }

  const auto rounds = make_workload(batched.layout(), ids, 0xABCD);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const BatchRound& round = rounds[r];
    for (const NodeSample& ns : round.samples) {
      reference_estimate[ns.node] = reference[ns.node].estimate_guarded(ns.sample);
    }
    EXPECT_EQ(batched.ingest_batch(round.samples), round.samples.size());

    for (std::size_t n = 0; n < node_count; ++n) {
      const auto be = batched.node_estimate(ids[n]);
      ASSERT_EQ(reference_estimate[n].has_value(), be.has_value())
          << "round " << r << " node " << n;
      if (be.has_value()) {
        EXPECT_EQ(*reference_estimate[n], *be)  // bit-identical
            << "round " << r << " node " << n;
        EXPECT_EQ(batched.node_health(ids[n]), reference[n].health())
            << "round " << r << " node " << n;
      } else {
        EXPECT_FALSE(batched.node_health(ids[n]).has_value());
      }
    }
  }

  // The snapshot aggregates exactly the reference's non-failed streams
  // (nothing is stale under a 1e9 s horizon); only the total's summation
  // order is the fleet's own.
  std::size_t reporting = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  double total = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t n = 0; n < node_count; ++n) {
    if (!reference_estimate[n].has_value()) {
      continue;
    }
    if (reference[n].health() == HealthState::Failed) {
      failed += 1;
      continue;
    }
    reporting += 1;
    degraded += reference[n].health() == HealthState::Degraded ? 1 : 0;
    total += *reference_estimate[n];
    lo = std::min(lo, *reference_estimate[n]);
    hi = std::max(hi, *reference_estimate[n]);
  }
  const FleetSnapshot bs = batched.snapshot(100.0);
  EXPECT_EQ(bs.nodes_reporting, reporting);
  EXPECT_EQ(bs.nodes_degraded, degraded);
  EXPECT_EQ(bs.nodes_failed, failed);
  EXPECT_EQ(bs.max_node_watts, hi);
  EXPECT_EQ(bs.min_node_watts, lo);
  EXPECT_NEAR(bs.total_watts, total, 1e-9 * std::abs(total));
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndParallelSweep, FleetBatchEquivalence,
    ::testing::Values(std::pair<std::size_t, bool>{1, false},
                      std::pair<std::size_t, bool>{1, true},
                      std::pair<std::size_t, bool>{4, false},
                      std::pair<std::size_t, bool>{4, true},
                      std::pair<std::size_t, bool>{16, false},
                      std::pair<std::size_t, bool>{16, true}));

TEST(FleetSharding, NodeEstimatesAreShardCountIndependent) {
  // Per-node estimates are bit-identical across shard counts; the snapshot
  // total only changes by summation order (tolerance compare).
  std::vector<FleetSnapshot> snaps;
  std::vector<std::vector<double>> estimates;
  for (std::size_t shard_count : {1u, 4u, 16u}) {
    FleetOptions options;
    options.shard_count = shard_count;
    FleetEstimator fleet(test_model(), 0.5, 1e9, options);
    std::vector<NodeId> ids;
    for (std::size_t n = 0; n < 40; ++n) {
      ids.push_back(fleet.intern("node" + std::to_string(n)));
    }
    for (const BatchRound& round : make_workload(fleet.layout(), ids, 0xABCD)) {
      fleet.ingest_batch(round.samples);
    }
    std::vector<double> est;
    for (NodeId id : ids) {
      est.push_back(fleet.node_estimate(id).value_or(
          std::numeric_limits<double>::quiet_NaN()));
    }
    estimates.push_back(std::move(est));
    snaps.push_back(fleet.snapshot(100.0));
  }
  for (std::size_t c = 1; c < estimates.size(); ++c) {
    for (std::size_t n = 0; n < estimates[0].size(); ++n) {
      if (std::isnan(estimates[0][n])) {
        EXPECT_TRUE(std::isnan(estimates[c][n]));
      } else {
        EXPECT_EQ(estimates[0][n], estimates[c][n]) << "node " << n;
      }
    }
    EXPECT_EQ(snaps[0].nodes_reporting, snaps[c].nodes_reporting);
    EXPECT_EQ(snaps[0].nodes_degraded, snaps[c].nodes_degraded);
    EXPECT_EQ(snaps[0].nodes_failed, snaps[c].nodes_failed);
    EXPECT_DOUBLE_EQ(snaps[0].max_node_watts, snaps[c].max_node_watts);
    EXPECT_DOUBLE_EQ(snaps[0].min_node_watts, snaps[c].min_node_watts);
    EXPECT_NEAR(snaps[0].total_watts, snaps[c].total_watts,
                1e-9 * std::abs(snaps[0].total_watts));
  }
}

TEST(FleetSharding, BatchRejectsTimeGoingBackwardsLikeSerial) {
  FleetEstimator fleet(test_model());
  Rng rng(3);
  const NodeId id = fleet.intern("n");
  DenseSample dense = fleet.layout().make_sample();
  fleet.layout().to_dense_guarded(random_sample(rng), dense);
  std::vector<NodeSample> batch{{id, 10.0, dense}, {id, 5.0, dense}};
  EXPECT_THROW(fleet.ingest_batch(batch), InvalidArgument);
  // The first (valid) sample was applied before the throw, like a loop.
  EXPECT_TRUE(fleet.node_estimate(id).has_value());
}

TEST(FleetSharding, InternSurvivesHashGrowthAndRoundTrips) {
  FleetEstimator fleet(test_model());
  std::vector<NodeId> ids;
  for (std::size_t n = 0; n < 500; ++n) {  // well past the initial table size
    ids.push_back(fleet.intern("host-" + std::to_string(n)));
    EXPECT_EQ(ids.back(), n);  // dense handles in intern order
  }
  EXPECT_EQ(fleet.snapshot(0.0).nodes_interned, 500u);
  for (std::size_t n = 0; n < 500; ++n) {
    // Idempotent across every growth step: the same name, the same handle.
    EXPECT_EQ(fleet.intern("host-" + std::to_string(n)), ids[n]);
  }
  EXPECT_EQ(fleet.snapshot(0.0).nodes_interned, 500u);
}

// --------------------------------------------------- snapshot edge cases

TEST(FleetSnapshotExtremes, EmptyFleetHasNaNExtremes) {
  FleetEstimator fleet(test_model());
  const FleetSnapshot snap = fleet.snapshot(0.0);
  EXPECT_EQ(snap.nodes_reporting, 0u);
  EXPECT_EQ(snap.total_watts, 0.0);
  EXPECT_TRUE(std::isnan(snap.min_node_watts));
  EXPECT_TRUE(std::isnan(snap.max_node_watts));
}

TEST(FleetSnapshotExtremes, AllStaleFleetHasNaNExtremes) {
  FleetEstimator fleet(test_model(), 0.0, /*staleness_horizon_s=*/5.0);
  Rng rng(8);
  test::ingest_one(fleet, fleet.intern("a"), random_sample(rng), 0.0);
  test::ingest_one(fleet, fleet.intern("b"), random_sample(rng), 1.0);
  const FleetSnapshot snap = fleet.snapshot(100.0);
  EXPECT_EQ(snap.nodes_reporting, 0u);
  EXPECT_EQ(snap.nodes_stale, 2u);
  EXPECT_EQ(snap.total_watts, 0.0);
  EXPECT_TRUE(std::isnan(snap.min_node_watts));
  EXPECT_TRUE(std::isnan(snap.max_node_watts));
}

TEST(FleetSnapshotExtremes, ExtremesRecomputeWhenHolderGoesStale) {
  FleetEstimator fleet(test_model(), 0.0, /*staleness_horizon_s=*/50.0);
  Rng rng(12);
  // Three nodes with distinct estimates; the freshest reports are later.
  const double a = test::ingest_one(fleet, fleet.intern("a"), random_sample(rng), 0.0);
  const double b = test::ingest_one(fleet, fleet.intern("b"), random_sample(rng), 60.0);
  const double c = test::ingest_one(fleet, fleet.intern("c"), random_sample(rng), 60.0);
  // At t=100, node "a" (t=0) is stale; extremes must cover only {b, c}.
  const FleetSnapshot snap = fleet.snapshot(100.0);
  EXPECT_EQ(snap.nodes_reporting, 2u);
  EXPECT_EQ(snap.nodes_stale, 1u);
  EXPECT_DOUBLE_EQ(snap.max_node_watts, std::max(b, c));
  EXPECT_DOUBLE_EQ(snap.min_node_watts, std::min(b, c));
  EXPECT_NEAR(snap.total_watts, b + c, 1e-9);
  (void)a;
}

}  // namespace
}  // namespace pwx::core
