// Two-level fleet aggregation tree: leaf shards → per-socket/NUMA group
// aggregators → global snapshot.
//
// A FleetTree is a group view over one FleetEstimator of T = G*S shards
// (G "groups" — one per socket, NUMA domain, or leaf daemon — of S shards
// each). Placement is a pure function of the node name:
//
//   global shard = name_hash(name) % T
//   group        = global shard / S      (contiguous blocks of S shards)
//   local shard  = global shard % S  ==  name_hash(name) % S   (since S | T)
//
// So group g is just the estimator's shard range [g*S, (g+1)*S): intern,
// ingest_batch and snapshot forward to the estimator, and group_delta(g)
// reads that range's shard records. The last identity is the load-bearing
// one across processes: a leaf daemon's own S-shard FleetEstimator over
// group g's nodes — which shards by name_hash % S — places every node on
// exactly the local shard the global partition assigns it, and sees the
// same per-shard sample stream in the same order. So the leaf's delta frame
// is byte-identical to group_delta(g), and DeltaMerger folding the leaves in
// (leaf, shard) order reproduces the tree's snapshot bit-for-bit: leaf
// daemon == group. tests/fleet_tree_test.cpp pins flat ≡ tree ≡
// multi-process down to the FNV-1a snapshot digest.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "core/fleet.hpp"
#include "fleet/delta.hpp"

namespace pwx::fleet {

/// Shape of the aggregation tree.
struct TreeOptions {
  /// Intermediate aggregators (per-socket/NUMA groups or leaf daemons).
  std::size_t group_count = 2;
  /// Shards within each group.
  std::size_t shards_per_group = 8;
  /// Run ingest_batch's shard loop in parallel
  /// (FleetOptions::parallel_ingest). Bit-identical to the serial loop.
  bool parallel = false;
};

/// A node handle inside a tree: the group the partition assigns it, and its
/// id in the tree's estimator.
struct TreeNodeId {
  std::uint32_t group = 0;
  core::NodeId local = 0;
};

/// One node's reading for tree batch ingestion (`sample.node` is the
/// TreeNodeId's `local` id).
struct TreeSample {
  std::uint32_t group = 0;
  core::NodeSample sample;
};

class FleetTree {
public:
  /// Every group serves `node_model` for the tree's lifetime.
  FleetTree(core::PowerModel node_model, double smoothing = 0.0,
            double staleness_horizon_s = 10.0, TreeOptions options = {});

  std::size_t group_count() const { return group_count_; }
  std::size_t shards_per_group() const { return shards_per_group_; }
  std::size_t total_shards() const { return group_count_ * shards_per_group_; }

  /// Group the global partition assigns a node name to.
  std::uint32_t group_of(std::string_view node) const;

  /// Get-or-create the tree handle for a node name.
  TreeNodeId intern(std::string_view node);

  /// Batch ingest through the estimator's shard-sorted batch path. Returns
  /// the number of samples ingested. Same partial-application error
  /// contract as FleetEstimator::ingest_batch.
  std::size_t ingest_batch(std::span<const TreeSample> batch);

  /// Global snapshot: the estimator's, which folds its shards in (group,
  /// local shard) order.
  core::FleetSnapshot snapshot(double now_s) const;

  /// One group's wire-ready delta (leaf_index = group, leaf_count =
  /// group_count): what a leaf daemon hosting this group would stream.
  FleetDelta group_delta(std::uint32_t group, double now_s,
                         std::uint64_t sequence) const;

  /// The served model's layout.
  const core::ModelLayout& layout() const { return estimator_.layout(); }

private:
  std::size_t group_count_;
  std::size_t shards_per_group_;
  core::FleetEstimator estimator_;
};

}  // namespace pwx::fleet
