// Hierarchical fleet aggregation: the two-level FleetTree and the shard-delta
// wire format must reproduce a flat FleetEstimator's snapshot bit-for-bit —
// across tree shapes, OpenMP on/off and process boundaries (encode → decode
// → merge). Plus the decoder's hostile-input
// contract (deterministic typed rejections with exact byte offsets), the
// sparse active-set accounting that keeps snapshot cost proportional to live
// nodes, a golden digest chain that pins the shared arithmetic itself, and
// snapshots and interning racing ingestion.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"
#include "fleet/delta.hpp"
#include "fleet/tree.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "trace/format.hpp"

namespace pwx::fleet {
namespace {

using acquire::DataRow;
using acquire::Dataset;
using core::CounterSample;
using core::FeatureSpec;
using core::FleetEstimator;
using core::FleetOptions;
using core::FleetSnapshot;
using core::NodeId;
using core::NodeSample;
using core::PowerModel;
using core::snapshot_digest;
using pwx::Rng;

const std::vector<pmc::Preset> kEventsA{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC,
                                        pmc::Preset::BR_MSP};

/// Synthetic Eq.1-representable model (epoch_test's generator).
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
  return core::train_model(ds, spec);
}

const PowerModel& test_model() {
  static const PowerModel model = make_model(kEventsA, 31);
  return model;
}

/// A sample carrying every event any test model uses, so it converts against
/// either generation's layout.
CounterSample union_sample(Rng& rng) {
  CounterSample sample;
  sample.elapsed_s = rng.uniform(0.05, 2.0);
  sample.frequency_ghz = rng.uniform(1.0, 3.5);
  sample.voltage = rng.uniform(0.7, 1.2);
  for (pmc::Preset p : kEventsA) {
    sample.counts[p] = rng.uniform(0.0, 5e9);
  }
  return sample;
}

// ------------------------------------------------- deterministic workload
//
// Everything below is a pure function of (node index, round) so flat, tree,
// and per-leaf estimators can regenerate the identical stream independently
// — the same trick the pwx-fleetd multi-process smoke test relies on.

std::string node_name(std::size_t i) { return "node-" + std::to_string(i); }

/// Reporting pattern with silent, intermittent, and one-shot nodes.
bool node_reports(std::size_t i, std::size_t round) {
  if (i % 11 == 5) return false;              // interned, never reports
  if (i % 7 == 3) return round % 2 == 0;      // every other round
  if (i % 10 == 9) return round == 0;         // reports once, then goes stale
  return true;
}

CounterSample sample_for(std::size_t i, std::size_t round) {
  Rng rng(1000 * i + round + 7);
  CounterSample s = union_sample(rng);
  if ((i * 13 + round) % 17 == 0) {
    s.counts[kEventsA[0]] = std::numeric_limits<double>::quiet_NaN();  // faulty
  }
  return s;
}

double round_time(std::size_t round) { return 0.5 * static_cast<double>(round + 1); }

constexpr double kHorizon = 0.8;
constexpr std::size_t kNodes = 60;
constexpr std::size_t kRounds = 5;

/// Flat reference: one estimator with G*S shards over the whole stream.
std::vector<std::uint64_t> run_flat(std::size_t groups, std::size_t shards,
                                    bool parallel) {
  FleetOptions options;
  options.shard_count = groups * shards;
  options.parallel_ingest = parallel;
  FleetEstimator est(test_model(), 0.0, kHorizon, options);
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ids.push_back(est.intern(node_name(i)));
  }
  std::vector<std::uint64_t> digests;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const double now = round_time(round);
    std::vector<NodeSample> batch;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (!node_reports(i, round)) continue;
      NodeSample ns;
      ns.node = ids[i];
      ns.now_s = now;
      est.layout().to_dense(sample_for(i, round), ns.sample);
      batch.push_back(ns);
    }
    est.ingest_batch(batch);
    digests.push_back(snapshot_digest(est.snapshot(now)));
  }
  return digests;
}

/// The same stream through a two-level tree.
std::vector<std::uint64_t> run_tree(std::size_t groups, std::size_t shards,
                                    bool parallel) {
  TreeOptions options;
  options.group_count = groups;
  options.shards_per_group = shards;
  options.parallel = parallel;
  FleetTree tree(test_model(), 0.0, kHorizon, options);
  std::vector<TreeNodeId> ids;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ids.push_back(tree.intern(node_name(i)));
  }
  std::vector<std::uint64_t> digests;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const double now = round_time(round);
    std::vector<TreeSample> batch;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (!node_reports(i, round)) continue;
      TreeSample ts;
      ts.group = ids[i].group;
      ts.sample.node = ids[i].local;
      ts.sample.now_s = now;
      tree.layout().to_dense(sample_for(i, round), ts.sample.sample);
      batch.push_back(ts);
    }
    tree.ingest_batch(batch);
    digests.push_back(snapshot_digest(tree.snapshot(now)));
  }
  return digests;
}

/// The same stream as L independent leaf processes streaming encoded deltas
/// to a DeltaMerger (the pwx-fleetd topology, in-process).
std::vector<std::uint64_t> run_multiprocess(std::size_t leaves, std::size_t shards) {
  const std::size_t total = leaves * shards;
  std::vector<std::unique_ptr<FleetEstimator>> procs;
  for (std::size_t l = 0; l < leaves; ++l) {
    FleetOptions options;
    options.shard_count = shards;
    procs.push_back(
        std::make_unique<FleetEstimator>(test_model(), 0.0, kHorizon, options));
  }
  std::vector<std::size_t> leaf_of(kNodes);
  std::vector<NodeId> ids(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    leaf_of[i] = (FleetEstimator::name_hash(node_name(i)) % total) / shards;
    ids[i] = procs[leaf_of[i]]->intern(node_name(i));
  }
  std::vector<std::uint64_t> digests;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const double now = round_time(round);
    std::vector<std::vector<NodeSample>> batches(leaves);
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (!node_reports(i, round)) continue;
      NodeSample ns;
      ns.node = ids[i];
      ns.now_s = now;
      procs[leaf_of[i]]->layout().to_dense(sample_for(i, round), ns.sample);
      batches[leaf_of[i]].push_back(ns);
    }
    DeltaMerger merger;
    for (std::size_t l = 0; l < leaves; ++l) {
      procs[l]->ingest_batch(batches[l]);
      // Full wire round trip per leaf: encode -> bytes -> decode -> merge.
      const std::string frame = encode_delta(
          make_delta(*procs[l], static_cast<std::uint32_t>(l),
                     static_cast<std::uint32_t>(leaves), now, round + 1));
      merger.add(decode_delta(frame));
    }
    EXPECT_TRUE(merger.complete());
    digests.push_back(snapshot_digest(merger.merge()));
  }
  return digests;
}

// ------------------------------------------------------ tree == flat

TEST(FleetTree, GroupPlacementFollowsPartitionMath) {
  TreeOptions options;
  options.group_count = 3;
  options.shards_per_group = 5;
  FleetTree tree(test_model(), 0.0, kHorizon, options);
  for (std::size_t i = 0; i < 100; ++i) {
    const std::string name = node_name(i);
    const std::uint64_t hash = FleetEstimator::name_hash(name);
    const std::uint32_t expected =
        static_cast<std::uint32_t>((hash % tree.total_shards()) /
                                   tree.shards_per_group());
    EXPECT_EQ(tree.group_of(name), expected) << name;
    EXPECT_EQ(tree.intern(name).group, expected) << name;
  }
}

TEST(FleetTree, SnapshotBitIdenticalToFlatAcrossShapes) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 4}, {2, 8}, {3, 5}, {4, 4}};
  for (const auto& [groups, shards] : shapes) {
    const auto flat = run_flat(groups, shards, /*parallel=*/false);
    const auto tree = run_tree(groups, shards, /*parallel=*/false);
    ASSERT_EQ(flat.size(), tree.size());
    for (std::size_t r = 0; r < flat.size(); ++r) {
      EXPECT_EQ(flat[r], tree[r])
          << groups << "x" << shards << " round " << r;
    }
  }
}

TEST(FleetTree, ParallelGroupIngestBitIdenticalToSerial) {
  const auto flat = run_flat(4, 4, /*parallel=*/false);
  const auto serial = run_tree(4, 4, /*parallel=*/false);
  const auto parallel = run_tree(4, 4, /*parallel=*/true);
  EXPECT_EQ(flat, serial);
  EXPECT_EQ(serial, parallel);
}

TEST(FleetTree, GroupDeltasMergeBackToTreeSnapshot) {
  TreeOptions options;
  options.group_count = 3;
  options.shards_per_group = 4;
  FleetTree tree(test_model(), 0.0, kHorizon, options);
  std::vector<TreeNodeId> ids;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ids.push_back(tree.intern(node_name(i)));
  }
  std::vector<TreeSample> batch;
  for (std::size_t i = 0; i < kNodes; ++i) {
    TreeSample ts;
    ts.group = ids[i].group;
    ts.sample.node = ids[i].local;
    ts.sample.now_s = 1.0;
    tree.layout().to_dense(sample_for(i, 0), ts.sample.sample);
    batch.push_back(ts);
  }
  tree.ingest_batch(batch);

  DeltaMerger merger;
  for (std::uint32_t g = 0; g < tree.group_count(); ++g) {
    merger.add(tree.group_delta(g, 1.0, 1));
  }
  EXPECT_TRUE(merger.complete());
  EXPECT_EQ(snapshot_digest(merger.merge()), snapshot_digest(tree.snapshot(1.0)));
}

// ------------------------------------------- multi-process bit-identity

TEST(FleetDeltaWire, MultiProcessMergeMatchesFlatEveryRound) {
  const std::pair<std::size_t, std::size_t> shapes[] = {{2, 4}, {3, 4}, {4, 2}};
  for (const auto& [leaves, shards] : shapes) {
    const auto flat = run_flat(leaves, shards, /*parallel=*/false);
    const auto merged = run_multiprocess(leaves, shards);
    ASSERT_EQ(flat.size(), merged.size());
    for (std::size_t r = 0; r < flat.size(); ++r) {
      EXPECT_EQ(flat[r], merged[r])
          << leaves << " leaves x " << shards << " shards, round " << r;
    }
  }
}

TEST(FleetDeltaWire, RoundTripIsCanonical) {
  FleetOptions options;
  options.shard_count = 6;
  FleetEstimator est(test_model(), 0.0, kHorizon, options);
  Rng rng(5);
  for (std::size_t i = 0; i < 20; ++i) {
    test::ingest_one(est, est.intern(node_name(i)), union_sample(rng), 1.0);
  }
  const FleetDelta delta = make_delta(est, 0, 1, 1.0, 42);
  const std::string frame = encode_delta(delta);
  EXPECT_EQ(frame.size(), encoded_delta_size(delta.shards.size()));

  const FleetDelta decoded = decode_delta(frame);
  EXPECT_EQ(decoded.leaf_index, 0u);
  EXPECT_EQ(decoded.leaf_count, 1u);
  EXPECT_EQ(decoded.sequence, 42u);
  EXPECT_EQ(decoded.now_s, 1.0);
  ASSERT_EQ(decoded.shards.size(), delta.shards.size());
  EXPECT_EQ(encode_delta(decoded), frame);  // byte-for-byte canonical

  // A single full-partition delta merges to the estimator's own snapshot.
  DeltaMerger merger;
  merger.add(decoded);
  EXPECT_EQ(snapshot_digest(merger.merge()), snapshot_digest(est.snapshot(1.0)));
}

TEST(FleetDeltaWire, MergerKeepsNewestSequencePerLeaf) {
  FleetOptions options;
  options.shard_count = 4;
  FleetEstimator est(test_model(), 0.0, kHorizon, options);
  Rng rng(9);
  const NodeId id = est.intern("node-a");
  test::ingest_one(est, id, union_sample(rng), 1.0);
  const FleetDelta old_delta = make_delta(est, 0, 1, 1.0, 1);
  test::ingest_one(est, id, union_sample(rng), 2.0);
  const FleetDelta new_delta = make_delta(est, 0, 1, 2.0, 2);

  DeltaMerger old_only;
  old_only.add(old_delta);
  DeltaMerger merger;
  merger.add(new_delta);
  const std::uint64_t digest = snapshot_digest(merger.merge());
  ASSERT_NE(snapshot_digest(old_only.merge()), digest);  // the frames differ
  merger.add(old_delta);  // stale replay: silently ignored
  EXPECT_EQ(snapshot_digest(merger.merge()), digest);
}

// ------------------------------------------------------- golden digests
//
// Every other bit-identity test compares two aggregation paths with each
// other, so a change to the arithmetic they share (the guarded fold, the
// incremental shard aggregates, the stale-prefix walk, min/max repair,
// fold_shard_delta, the digest) would pass them all. This one runs one
// seeded stream through every path at once and chains all their snapshot
// digests into a constant.

constexpr std::size_t kGoldenNodes = 2000;
constexpr std::size_t kGoldenLateNodes = 200;  ///< interned mid-stream
constexpr std::size_t kGoldenLateTick = 60;
constexpr std::size_t kGoldenTicks = 150;
constexpr std::size_t kGoldenGroups = 3;
constexpr std::size_t kGoldenShards = 4;  ///< per group: 12 shards in all
constexpr double kGoldenHorizon = 0.6;    ///< 2.4 ticks
constexpr double kGoldenSmoothing = 0.25;
/// Captured from the engine's earlier seqlock snapshot path. A mismatch
/// means the shared fleet arithmetic changed, not just one path.
constexpr std::uint64_t kGoldenChain = 0xb3a18a1a69dec532ULL;

/// Fixed Eq. 1 coefficients, so the chain pins the fleet's arithmetic and
/// not the trainer's.
PowerModel golden_model() {
  FeatureSpec spec;
  spec.events = kEventsA;
  regress::OlsResult fit;
  fit.beta = {6.0, 11.5, 4.25, 17.75, 8.0, 12.0};  // δ, α×3, β, γ
  return PowerModel(spec, fit);
}

/// Silent, late-joining and intermittently stale nodes.
bool golden_reports(std::size_t i, std::size_t tick) {
  if (i % 13 == 0) return false;                   // interned, never reports
  if (i % 17 == 8) return tick >= 40;              // joins late
  if (i % 7 == 2) return (tick / 4 + i) % 3 != 0;  // 4 silent ticks in 12
  return true;
}

/// Fleet time of a node's reading: nodes within a tick report slightly out
/// of step, so the last-seen lists see out-of-order inserts.
double golden_time(std::size_t i, std::size_t tick) {
  return 0.25 * static_cast<double>(tick) + 0.01 * static_cast<double>(i % 5);
}

core::DenseSample golden_sample(const core::ModelLayout& layout, std::size_t i,
                                std::size_t tick) {
  Rng rng(100003 * i + tick + 1);
  CounterSample s;
  s.elapsed_s = rng.uniform(0.1, 1.0);
  s.frequency_ghz = rng.uniform(1.2, 3.4);
  s.voltage = rng.uniform(0.75, 1.15);
  const double cycles = s.elapsed_s * s.frequency_ghz * 1e9;
  for (pmc::Preset p : kEventsA) {
    s.counts[p] = rng.uniform(0.05, 3.0) * cycles;
  }
  // Persistently invalid for 60 ticks (FAILED, then recovers), or a one-tick
  // glitch (DEGRADED while the last good estimate is held).
  const bool failing = i % 29 == 4 && tick >= 30 && tick < 90;
  const bool glitch = (i * 31 + tick * 7) % 23 == 0;
  if (failing || glitch) {
    s.counts[kEventsA[0]] = std::numeric_limits<double>::quiet_NaN();
  }
  core::DenseSample dense;
  layout.to_dense(s, dense);
  return dense;
}

TEST(FleetTree, GoldenDigestChainAcrossAllPaths) {
  const PowerModel model = golden_model();
  FleetOptions flat_options;
  flat_options.shard_count = kGoldenGroups * kGoldenShards;
  FleetEstimator scalar(model, kGoldenSmoothing, kGoldenHorizon, flat_options);
  FleetEstimator serial(model, kGoldenSmoothing, kGoldenHorizon, flat_options);
  flat_options.parallel_ingest = true;
  FleetEstimator parallel(model, kGoldenSmoothing, kGoldenHorizon, flat_options);
  TreeOptions tree_options;
  tree_options.group_count = kGoldenGroups;
  tree_options.shards_per_group = kGoldenShards;
  tree_options.parallel = true;
  FleetTree tree(model, kGoldenSmoothing, kGoldenHorizon, tree_options);
  FleetOptions leaf_options;
  leaf_options.shard_count = kGoldenShards;
  std::vector<std::unique_ptr<FleetEstimator>> leaves;
  for (std::size_t l = 0; l < kGoldenGroups; ++l) {
    leaves.push_back(std::make_unique<FleetEstimator>(model, kGoldenSmoothing,
                                                      kGoldenHorizon, leaf_options));
  }

  std::vector<NodeId> flat_ids(kGoldenNodes);
  std::vector<TreeNodeId> tree_ids(kGoldenNodes);
  std::vector<NodeId> leaf_ids(kGoldenNodes);
  const auto intern = [&](std::size_t i) {
    const std::string name = "golden-" + std::to_string(i);
    flat_ids[i] = serial.intern(name);
    EXPECT_EQ(scalar.intern(name), flat_ids[i]);
    EXPECT_EQ(parallel.intern(name), flat_ids[i]);
    tree_ids[i] = tree.intern(name);
    leaf_ids[i] = leaves[tree_ids[i].group]->intern(name);
  };
  const std::size_t early = kGoldenNodes - kGoldenLateNodes;
  for (std::size_t i = 0; i < early; ++i) {
    intern(i);
  }

  std::uint64_t chain = 1469598103934665603ULL;  // FNV-1a over the digests
  const auto link = [&chain](std::uint64_t digest) {
    chain = (chain ^ digest) * 1099511628211ULL;
  };
  bool saw_degraded = false;
  bool saw_failed = false;
  bool saw_stale_active = false;
  const auto check_and_link = [&](double now, const DeltaMerger& merger) {
    const FleetSnapshot snap = serial.snapshot(now);
    saw_degraded |= snap.nodes_degraded > 0;
    saw_failed |= snap.nodes_failed > 0;
    saw_stale_active |= snap.nodes_stale > snap.nodes_interned - snap.nodes_active;
    const std::uint64_t digests[] = {
        snapshot_digest(snap), snapshot_digest(scalar.snapshot(now)),
        snapshot_digest(parallel.snapshot(now)), snapshot_digest(tree.snapshot(now)),
        snapshot_digest(merger.merge())};
    for (const std::uint64_t digest : digests) {
      EXPECT_EQ(digest, digests[0]) << "at fleet time " << now;
      link(digest);
    }
  };

  DeltaMerger merger;
  double now = 0.0;
  for (std::size_t tick = 0; tick < kGoldenTicks; ++tick) {
    if (tick == kGoldenLateTick) {
      for (std::size_t i = early; i < kGoldenNodes; ++i) {
        intern(i);
      }
    }
    const std::size_t known = tick < kGoldenLateTick ? early : kGoldenNodes;
    std::vector<NodeSample> batch;
    std::vector<TreeSample> tree_batch;
    std::vector<std::vector<NodeSample>> leaf_batches(kGoldenGroups);
    for (std::size_t i = 0; i < known; ++i) {
      if (!golden_reports(i, tick)) continue;
      NodeSample ns;
      ns.node = flat_ids[i];
      ns.now_s = golden_time(i, tick);
      ns.sample = golden_sample(serial.layout(), i, tick);
      batch.push_back(ns);
      TreeSample ts;
      ts.group = tree_ids[i].group;
      ts.sample = ns;
      ts.sample.node = tree_ids[i].local;
      tree_batch.push_back(ts);
      ns.node = leaf_ids[i];
      leaf_batches[tree_ids[i].group].push_back(ns);
    }
    for (const NodeSample& ns : batch) {
      scalar.ingest_batch(std::span<const NodeSample>(&ns, 1));
    }
    serial.ingest_batch(batch);
    parallel.ingest_batch(batch);
    tree.ingest_batch(tree_batch);
    now = 0.25 * static_cast<double>(tick) + 0.04;
    for (std::size_t l = 0; l < kGoldenGroups; ++l) {
      leaves[l]->ingest_batch(leaf_batches[l]);
      const auto leaf = static_cast<std::uint32_t>(l);
      const std::string frame = encode_delta(make_delta(
          *leaves[l], leaf, static_cast<std::uint32_t>(kGoldenGroups), now, tick + 1));
      // Leaf daemon == group: the tree's shard range reads the same records.
      EXPECT_EQ(encode_delta(tree.group_delta(leaf, now, tick + 1)), frame)
          << "group " << l << " at tick " << tick;
      merger.add(decode_delta(frame));
    }
    check_and_link(now, merger);
  }

  // Past the horizon every active node is stale and the extremes are NaN.
  now += 10.0;
  DeltaMerger late;
  for (std::size_t l = 0; l < kGoldenGroups; ++l) {
    late.add(make_delta(*leaves[l], static_cast<std::uint32_t>(l),
                        static_cast<std::uint32_t>(kGoldenGroups), now, 1));
  }
  check_and_link(now, late);

  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_stale_active);
  EXPECT_EQ(chain, kGoldenChain) << std::hex << "chain 0x" << chain;
}

// ------------------------------------------------- hostile-input contract

struct Rejection {
  std::string what;
  std::int64_t byte_offset = -1;
  std::int64_t record_index = -1;
};

Rejection expect_reject(const std::string& bytes) {
  Rejection first;
  bool threw = false;
  try {
    decode_delta(bytes);
  } catch (const IoError& e) {
    threw = true;
    first = {e.what(), e.byte_offset(), e.record_index()};
  }
  EXPECT_TRUE(threw) << "decoder accepted a hostile frame of " << bytes.size()
                     << " bytes";
  // Determinism: the identical bytes must produce the identical diagnosis.
  try {
    decode_delta(bytes);
    ADD_FAILURE() << "accepted on second decode";
  } catch (const IoError& e) {
    EXPECT_EQ(first.what, std::string(e.what()));
    EXPECT_EQ(first.byte_offset, e.byte_offset());
    EXPECT_EQ(first.record_index, e.record_index());
  }
  return first;
}

std::string valid_frame() {
  FleetOptions options;
  options.shard_count = 3;
  FleetEstimator est(test_model(), 0.0, kHorizon, options);
  Rng rng(21);
  for (std::size_t i = 0; i < 12; ++i) {
    test::ingest_one(est, est.intern(node_name(i)), union_sample(rng), 1.0);
  }
  return encode_delta(make_delta(est, 1, 4, 1.0, 7));
}

/// Recompute the trailing checksum so a hostile header/record mutation is
/// exercised on its own (semantic checks run before the checksum).
std::string with_fresh_checksum(std::string bytes) {
  const std::size_t footer = bytes.size() - kDeltaFooterBytes;
  const std::uint64_t sum = trace::format::fnv1a_lanes(
      bytes.data() + sizeof(kDeltaMagic), footer - sizeof(kDeltaMagic));
  std::memcpy(bytes.data() + footer, &sum, sizeof(sum));
  return bytes;
}

std::string mutate_u32(std::string bytes, std::size_t at, std::uint32_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  return with_fresh_checksum(std::move(bytes));
}

std::string mutate_f64(std::string bytes, std::size_t at, double value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  return with_fresh_checksum(std::move(bytes));
}

std::string mutate_u64(std::string bytes, std::size_t at, std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  return with_fresh_checksum(std::move(bytes));
}

TEST(FleetDeltaHostile, EveryTruncationRejectsDeterministically) {
  const std::string frame = valid_frame();
  ASSERT_NO_THROW(decode_delta(frame));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const Rejection r = expect_reject(frame.substr(0, len));
    EXPECT_GE(r.byte_offset, 0) << "length " << len;
    EXPECT_LE(r.byte_offset, static_cast<std::int64_t>(len)) << "length " << len;
  }
  // Trailing garbage is rejected at the first excess byte.
  const Rejection extra = expect_reject(frame + '\0');
  EXPECT_EQ(extra.byte_offset, static_cast<std::int64_t>(frame.size()));
}

TEST(FleetDeltaHostile, EveryByteFlipRejects) {
  const std::string frame = valid_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string flipped = frame;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    expect_reject(flipped);  // magic, checksum, or semantic check fires
  }
}

TEST(FleetDeltaHostile, HeaderViolationsCarryExactOffsets) {
  const std::string frame = valid_frame();

  EXPECT_EQ(expect_reject(mutate_u32(frame, 8, 2)).byte_offset, 8);  // version
  EXPECT_EQ(expect_reject(mutate_u32(frame, 16, 0)).byte_offset, 16);  // 0 leaves
  // leaf_index out of range: index 1 of a 1-leaf partition.
  EXPECT_EQ(expect_reject(mutate_u32(frame, 16, 1)).byte_offset, 12);
  EXPECT_EQ(expect_reject(mutate_u32(frame, 20, 0)).byte_offset, 20);  // 0 shards
  EXPECT_EQ(expect_reject(mutate_u32(frame, 20, kMaxDeltaShards + 1)).byte_offset,
            20);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(expect_reject(mutate_f64(frame, 24, nan)).byte_offset, 24);  // now_s
}

TEST(FleetDeltaHostile, RecordViolationsCarryExactOffsetAndIndex) {
  const std::string frame = valid_frame();
  // Record 1 of the 3-shard frame; the min/max cases below need it to have
  // reporting nodes so the "while reporting" branch is the one exercised.
  ASSERT_GT(decode_delta(frame).shards[1].reporting, 0u);
  const std::size_t base = kDeltaHeaderBytes + 1 * kDeltaRecordBytes;
  const double nan = std::numeric_limits<double>::quiet_NaN();

  struct Case {
    std::string frame;
    std::int64_t offset;
  };
  const Case cases[] = {
      // active > interned
      {mutate_u64(frame, base + 56, 1u << 20), static_cast<std::int64_t>(base + 56)},
      // reporting > active
      {mutate_u64(frame, base + 24, 1u << 20), static_cast<std::int64_t>(base + 24)},
      // degraded > reporting
      {mutate_u64(frame, base + 40, 1u << 20), static_cast<std::int64_t>(base + 40)},
      // failed > active
      {mutate_u64(frame, base + 48, 1u << 20), static_cast<std::int64_t>(base + 48)},
      // stale > interned
      {mutate_u64(frame, base + 32, 1u << 20), static_cast<std::int64_t>(base + 32)},
      // non-finite sum
      {mutate_f64(frame, base + 0, nan), static_cast<std::int64_t>(base + 0)},
      // min > max while reporting
      {mutate_f64(frame, base + 8, 1e9), static_cast<std::int64_t>(base + 8)},
      // NaN extreme while reporting
      {mutate_f64(frame, base + 16, nan), static_cast<std::int64_t>(base + 8)},
  };
  for (const Case& c : cases) {
    const Rejection r = expect_reject(c.frame);
    EXPECT_EQ(r.byte_offset, c.offset);
    EXPECT_EQ(r.record_index, 1);
  }

  // Empty-shard invariants: reporting == 0 forbids finite extremes and a
  // nonzero sum.
  FleetDelta empty;
  empty.leaf_count = 1;
  empty.now_s = 1.0;
  empty.shards.resize(2);
  empty.shards[1].min_watts = 3.0;
  empty.shards[1].max_watts = 3.0;
  const std::size_t b1 = kDeltaHeaderBytes + kDeltaRecordBytes;
  Rejection r = expect_reject(encode_delta(empty));
  EXPECT_EQ(r.byte_offset, static_cast<std::int64_t>(b1 + 8));
  EXPECT_EQ(r.record_index, 1);

  empty.shards[1] = core::ShardDeltaRecord{};
  empty.shards[1].fresh_sum = 0.25;
  r = expect_reject(encode_delta(empty));
  EXPECT_EQ(r.byte_offset, static_cast<std::int64_t>(b1 + 0));
  EXPECT_EQ(r.record_index, 1);
}

TEST(FleetDeltaHostile, ChecksumIsCheckedLast) {
  // A frame that is structurally and semantically valid but carries a bad
  // checksum is rejected at the footer offset — proving the semantic layer
  // never depends on checksum integrity and vice versa.
  std::string frame = valid_frame();
  const std::size_t footer = frame.size() - kDeltaFooterBytes;
  frame[footer] = static_cast<char>(frame[footer] ^ 0x01);
  const Rejection r = expect_reject(frame);
  EXPECT_EQ(r.byte_offset, static_cast<std::int64_t>(footer));
  EXPECT_NE(r.what.find("checksum"), std::string::npos);
}

TEST(FleetDeltaHostile, MergerRejectsTopologyMismatch) {
  FleetOptions options;
  options.shard_count = 4;
  FleetEstimator est(test_model(), 0.0, kHorizon, options);
  Rng rng(3);
  test::ingest_one(est, est.intern("node-a"), union_sample(rng), 1.0);

  DeltaMerger merger;
  merger.add(make_delta(est, 0, 2, 1.0, 1));

  // Different leaf_count.
  EXPECT_THROW(merger.add(make_delta(est, 0, 3, 1.0, 1)), IoError);
  // Different shard_count.
  FleetOptions narrow;
  narrow.shard_count = 2;
  FleetEstimator other(test_model(), 0.0, kHorizon, narrow);
  test::ingest_one(other, other.intern("node-b"), union_sample(rng), 1.0);
  EXPECT_THROW(merger.add(make_delta(other, 1, 2, 1.0, 1)), IoError);
  // The merger state survives rejected adds.
  EXPECT_EQ(merger.leaves_present(), 1u);
}

// --------------------------------------------- sparse active-set accounting

TEST(FleetSparse, NeverReportedNodesAreStaleNotScanned) {
  FleetOptions options;
  options.shard_count = 8;
  FleetEstimator est(test_model(), 0.0, kHorizon, options);
  constexpr std::size_t kInterned = 500;
  constexpr std::size_t kActive = 10;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < kInterned; ++i) {
    ids.push_back(est.intern(node_name(i)));
  }
  Rng rng(17);
  for (std::size_t i = 0; i < kActive; ++i) {
    test::ingest_one(est, ids[i], union_sample(rng), 1.0);
  }

  FleetSnapshot snap = est.snapshot(1.0);
  EXPECT_EQ(snap.nodes_interned, kInterned);
  EXPECT_EQ(snap.nodes_active, kActive);
  EXPECT_EQ(snap.nodes_reporting, kActive);
  EXPECT_EQ(snap.nodes_stale, kInterned - kActive);
  EXPECT_TRUE(std::isfinite(snap.min_node_watts));
  EXPECT_TRUE(std::isfinite(snap.max_node_watts));
  EXPECT_LE(snap.min_node_watts, snap.max_node_watts);

  // Past the horizon the active nodes go stale too — but stay "active"
  // (they have state worth scanning), unlike the never-reported bulk.
  snap = est.snapshot(1.0 + kHorizon + 1.0);
  EXPECT_EQ(snap.nodes_reporting, 0u);
  EXPECT_EQ(snap.nodes_stale, kInterned);
  EXPECT_EQ(snap.nodes_active, kActive);
  EXPECT_TRUE(std::isnan(snap.min_node_watts));
  EXPECT_TRUE(std::isnan(snap.max_node_watts));
  EXPECT_EQ(snap.total_watts, 0.0);
}

TEST(FleetSparse, ActiveAndInternedGaugesPublished) {
  obs::set_enabled(true);
  FleetOptions options;
  options.shard_count = 4;
  FleetEstimator est(test_model(), 0.0, kHorizon, options);
  Rng rng(23);
  for (std::size_t i = 0; i < 40; ++i) {
    const NodeId id = est.intern(node_name(i));
    if (i < 6) {
      test::ingest_one(est, id, union_sample(rng), 1.0);
    }
  }
  est.snapshot(1.0);
  obs::set_enabled(false);
  EXPECT_EQ(obs::registry().gauge("fleet.nodes_active").value(), 6.0);
  EXPECT_EQ(obs::registry().gauge("fleet.nodes_interned").value(), 40.0);
}

// ---------------------------------------------- snapshot and intern races

TEST(FleetConcurrency, SnapshotsRaceIngestWithoutTearing) {
  FleetOptions options;
  options.shard_count = 4;
  FleetEstimator est(test_model(), 0.0, 1e9, options);
  constexpr std::size_t kRaceNodes = 16;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < kRaceNodes; ++i) {
    ids.push_back(est.intern(node_name(i)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const FleetSnapshot snap = est.snapshot(1e6);
        // Invariants that hold at every publication point; a torn read
        // would violate them.
        if (!std::isfinite(snap.total_watts) ||
            snap.nodes_reporting > snap.nodes_active ||
            snap.nodes_active > snap.nodes_interned ||
            snap.nodes_interned > kRaceNodes ||
            (snap.nodes_reporting > 0 &&
             !(snap.min_node_watts <= snap.max_node_watts))) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  Rng rng(99);
  for (std::size_t round = 0; round < 2000; ++round) {
    const double now = 1.0 + 0.001 * static_cast<double>(round);
    test::ingest_one(est, ids[round % kRaceNodes], union_sample(rng), now);
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0u);

  const FleetSnapshot final_snap = est.snapshot(1e6);
  EXPECT_EQ(final_snap.nodes_reporting, kRaceNodes);
  EXPECT_TRUE(std::isfinite(final_snap.total_watts));
}

TEST(FleetConcurrency, InternRacesIngestAndSnapshots) {
  // One thread grows the namespace past 65,536 handles while this thread
  // ingests into and reads back pre-interned nodes and a third takes
  // snapshots. Handle lookups share the intern lock with interning; shard
  // state is only touched under its shard lock.
  FleetOptions options;
  options.shard_count = 8;
  FleetEstimator est(test_model(), 0.0, 1e9, options);
  constexpr std::size_t kLive = 64;
  constexpr std::size_t kLate = 70000;
  std::vector<NodeId> ids;
  std::vector<core::DenseSample> samples;
  Rng rng(41);
  for (std::size_t i = 0; i < kLive; ++i) {
    ids.push_back(est.intern(node_name(i)));
    est.layout().to_dense(union_sample(rng), samples.emplace_back());
  }

  std::atomic<bool> interned_all{false};
  std::atomic<std::size_t> bad{0};
  std::thread interner([&] {
    for (std::size_t i = 0; i < kLate; ++i) {
      est.intern("late-" + std::to_string(i));
    }
    interned_all.store(true);
  });
  std::thread reader([&] {
    std::size_t last_interned = 0;
    do {
      // With a 1e9 s horizon no active node is stale, so every stale node
      // is a never-reported one, and the namespace only grows.
      const FleetSnapshot snap = est.snapshot(1e6);
      if (!std::isfinite(snap.total_watts) ||
          snap.nodes_reporting > snap.nodes_active || snap.nodes_active > kLive ||
          snap.nodes_interned < last_interned ||
          snap.nodes_interned > kLive + kLate ||
          snap.nodes_stale != snap.nodes_interned - snap.nodes_active ||
          (snap.nodes_reporting > 0 &&
           !(snap.min_node_watts <= snap.max_node_watts))) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
      last_interned = snap.nodes_interned;
    } while (!interned_all.load());
  });

  std::size_t round = 0;
  do {
    std::vector<NodeSample> batch;
    for (std::size_t k = 0; k < kLive; ++k) {
      batch.push_back(NodeSample{ids[k], 1.0 + 0.001 * static_cast<double>(round),
                                 samples[k]});
    }
    est.ingest_batch(batch);
    for (const NodeId id : ids) {
      const std::optional<double> estimate = est.node_estimate(id);
      if (!estimate.has_value() || !std::isfinite(*estimate)) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ++round;
  } while (!interned_all.load());
  interner.join();
  reader.join();
  EXPECT_EQ(bad.load(), 0u);

  // Interning a known name returns its handle and adds nothing.
  EXPECT_EQ(est.intern("late-" + std::to_string(kLate - 1)), kLive + kLate - 1);
  const FleetSnapshot final_snap = est.snapshot(1e6);
  EXPECT_EQ(final_snap.nodes_interned, kLive + kLate);
  EXPECT_EQ(final_snap.nodes_active, kLive);
  EXPECT_EQ(final_snap.nodes_reporting, kLive);
}

}  // namespace
}  // namespace pwx::fleet
