// Two-level fleet aggregation tree: leaf shards → per-socket/NUMA group
// aggregators → global snapshot.
//
// A FleetTree owns G FleetEstimators ("groups" — one per socket, NUMA
// domain, or rack-level aggregator thread) of S shards each, and presents
// the same intern/ingest/snapshot surface over G*S global shards. Placement
// is a pure function of the node name: with T = G*S total shards,
//
//   global shard = name_hash(name) % T
//   group        = global shard / S      (contiguous blocks of S shards)
//   local shard  = global shard % S  ==  name_hash(name) % S   (since S | T)
//
// The last identity is the load-bearing one: a group's own FleetEstimator —
// which shards by name_hash % S — places every node on exactly the local
// shard the global partition assigns it. So one sample stream routed
// through the tree hits the same (group, shard) substreams, in the same
// order, as a flat T-shard estimator's shards 0..T-1 — and folding group
// deltas in (group, local shard) order reproduces the flat snapshot
// bit-for-bit. The same arithmetic holds when the groups are separate
// *processes* streaming encoded deltas (fleet/delta.hpp): group == leaf,
// and DeltaMerger folds in the identical order. tests/fleet_tree_test.cpp
// pins flat ≡ tree ≡ multi-process down to the FNV-1a snapshot digest.
//
// ingest_batch partitions one fleet-wide batch by group with a stable
// counting sort and hands each group its slice of a shared index array (no
// sample copies); groups are independent, so with TreeOptions::parallel the
// group loop runs under OpenMP — the locality partition IS the parallel
// decomposition, samples for one socket's aggregator never touch another
// group's locks or cache lines.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/fleet.hpp"
#include "fleet/delta.hpp"

namespace pwx::fleet {

/// Shape of the aggregation tree.
struct TreeOptions {
  /// Intermediate aggregators (per-socket/NUMA groups or leaf daemons).
  std::size_t group_count = 2;
  /// Shards within each group's estimator.
  std::size_t shards_per_group = 8;
  /// Run ingest_batch's group loop in parallel (OpenMP; no-op without it).
  /// Bit-identical to the serial loop: groups are independent.
  bool parallel = false;
};

/// A node handle inside a tree: which group holds it, and its id there.
struct TreeNodeId {
  std::uint32_t group = 0;
  core::NodeId local = 0;
};

/// One node's reading for tree batch ingestion: the group routes the
/// embedded sample (whose `node` is the group-local id).
struct TreeSample {
  std::uint32_t group = 0;
  core::NodeSample sample;
};

class FleetTree {
public:
  /// Every group serves `node_model` for the tree's lifetime.
  FleetTree(core::PowerModel node_model, double smoothing = 0.0,
            double staleness_horizon_s = 10.0, TreeOptions options = {});

  std::size_t group_count() const { return groups_.size(); }
  std::size_t shards_per_group() const { return shards_per_group_; }
  std::size_t total_shards() const { return groups_.size() * shards_per_group_; }

  /// Group the global partition assigns a node name to.
  std::uint32_t group_of(std::string_view node) const;

  /// Get-or-create the tree handle for a node name.
  TreeNodeId intern(std::string_view node);

  /// Single-sample ingest through the owning group.
  double ingest(TreeNodeId node, const core::DenseSample& sample, double now_s);

  /// Batch ingest: stable counting sort by group, each group ingests its
  /// slice (in batch order) via the indexed batch path; with
  /// TreeOptions::parallel the groups run under OpenMP. Returns the number
  /// of samples ingested. Same partial-application error contract as
  /// FleetEstimator::ingest_batch.
  std::size_t ingest_batch(std::span<const TreeSample> batch);

  /// Global snapshot: fold every group's shard deltas in (group, shard)
  /// order — bit-identical to a flat estimator with total_shards() shards
  /// over the same sample stream. Takes each shard's lock in turn.
  core::FleetSnapshot snapshot(double now_s) const;

  /// Append all groups' shard deltas in canonical (group, shard) order.
  void shard_deltas(double now_s, std::vector<core::ShardDeltaRecord>& out) const;

  /// One group's wire-ready delta (leaf_index = group, leaf_count =
  /// group_count): what a leaf daemon hosting this group would stream.
  FleetDelta group_delta(std::uint32_t group, double now_s,
                         std::uint64_t sequence) const;

  /// Direct access to a group's estimator (e.g. for node_estimate lookups).
  core::FleetEstimator& group(std::size_t g) { return *groups_[g]; }
  const core::FleetEstimator& group(std::size_t g) const { return *groups_[g]; }

  /// Total interned nodes across groups.
  std::size_t node_count() const;

  /// The served model's layout (every group's is identical).
  const core::ModelLayout& layout() const { return groups_.front()->layout(); }

private:
  std::size_t shards_per_group_;
  bool parallel_;
  std::vector<std::unique_ptr<core::FleetEstimator>> groups_;
};

}  // namespace pwx::fleet
