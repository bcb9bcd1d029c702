// Fleet-scale power estimation.
//
// The paper's outlook asks for "the adaptation of the model to a larger
// scale such that it can be applied to peta- or exa-scale systems instead of
// individual nodes". The FleetEstimator applies one trained node model to
// counter streams from many nodes and maintains the aggregate: per-node
// estimates, the fleet total, and staleness bookkeeping so that nodes whose
// telemetry stopped do not silently freeze the total. A fleet serves the one
// model it is constructed with for its whole lifetime; the single-stream
// OnlineEstimator is what hot-swaps models (core/epoch.hpp).
//
// Scaling architecture (see DESIGN.md "Hierarchical fleet aggregation"):
//
//   * Node names are hash-interned once into stable NodeId handles with
//     contiguous string storage; the per-sample path never touches a string.
//   * Node state is sharded across `FleetOptions::shard_count` tables with
//     per-shard mutexes. A node's shard is a pure function of its *name*
//     (FNV-1a hash modulo the shard count), never of intern order, so any
//     two estimators that agree on a shard count assign every node to the
//     same shard — the property that makes multi-process aggregation
//     bit-identical to a single estimator (see fleet/delta.hpp).
//   * Each shard keeps incremental running aggregates over the *active* set
//     (nodes that ever reported): sum/reporting/degraded/failed, min/max
//     holders with cheap lazy repair, and a last-seen-ordered intrusive
//     list. Interned-but-never-reported nodes cost one counter, not a list
//     entry, so aggregation scales with live nodes, not with the interned
//     namespace (the sparse-directory idea Graphite uses for coherence).
//   * Every read and write of a shard takes that shard's mutex, and every
//     handle lookup takes the interner's mutex; a thread that needs both
//     takes the intern mutex first. snapshot() and shard_delta() lock one
//     shard at a time and read its incremental aggregates, walking only the
//     stale prefix of the seen list and, when an extremum holder moved, the
//     active nodes.
//   * ingest_batch() is the one way samples enter: it groups them by shard
//     and processes each shard's group under one lock acquisition; with
//     FleetOptions::parallel_ingest the shard groups run under OpenMP.
//     Samples of one node stay in batch order, and nodes in different
//     shards are independent, so any shard count, serial or parallel,
//     produces node estimates bit-identical to one guarded OnlineEstimator
//     per node (pinned by tests/fleet_test.cpp).
//
// The node model transfers across machines of the same type because it is a
// function of architecture-level rates (Equation 1), not of one part's
// calibration — `integration_test` and the cluster example quantify the
// transfer error across simulated part variation.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dense.hpp"
#include "core/estimator.hpp"
#include "core/model.hpp"

namespace pwx::obs {
class Gauge;
}  // namespace pwx::obs

namespace pwx::core {

/// Stable handle for an interned node name (dense, assigned in intern order).
using NodeId = std::uint32_t;

/// Tuning knobs of the sharded fleet engine.
struct FleetOptions {
  /// Shards node state is spread across. More shards = less lock contention
  /// and more ingest_batch parallelism; per-node estimates are shard-count
  /// independent (bit-identical for any value).
  std::size_t shard_count = 16;
  /// Process ingest_batch shard groups in parallel (OpenMP; no-op without
  /// it). Results are bit-identical to serial ingestion.
  bool parallel_ingest = false;
};

/// Aggregated view of the fleet at a point in time.
struct FleetSnapshot {
  double total_watts = 0.0;          ///< sum over nodes with fresh estimates
  std::size_t nodes_reporting = 0;   ///< nodes included in the total
  std::size_t nodes_stale = 0;       ///< nodes beyond the staleness horizon
  std::size_t nodes_degraded = 0;    ///< reporting nodes on held/repaired data
  std::size_t nodes_failed = 0;      ///< nodes whose estimator gave up (excluded)
  /// Extremes over reporting nodes; NaN when no node reports.
  double max_node_watts = std::numeric_limits<double>::quiet_NaN();
  double min_node_watts = std::numeric_limits<double>::quiet_NaN();
  /// Namespace accounting: nodes that ever reported vs nodes interned.
  std::size_t nodes_active = 0;
  std::size_t nodes_interned = 0;
};

/// One shard's contribution to a FleetSnapshot, evaluated at a fixed fleet
/// time. This is the unit of hierarchical aggregation: a flat snapshot, a
/// two-level fleet tree, and a cross-process delta merge all fold the same
/// records with fold_shard_delta(), which is what makes the three paths
/// bit-identical over the same samples. Also the payload of the shard-delta
/// wire format (fleet/delta.hpp).
struct ShardDeltaRecord {
  double fresh_sum = 0.0;  ///< Σ last_estimate over fresh included nodes
  /// Extremes over fresh included nodes; NaN when none report.
  double min_watts = std::numeric_limits<double>::quiet_NaN();
  double max_watts = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t reporting = 0;  ///< fresh nodes included in fresh_sum
  std::uint64_t stale = 0;      ///< stale active + never-reported interned
  std::uint64_t degraded = 0;   ///< fresh included nodes in DEGRADED health
  std::uint64_t failed = 0;     ///< fresh reported nodes excluded as FAILED
  std::uint64_t active = 0;     ///< nodes that ever reported
  std::uint64_t interned = 0;   ///< nodes interned into the shard
};

/// Fold one shard's record into a snapshot. The one definition of the
/// aggregation arithmetic: callers must fold records in canonical shard
/// order (leaf-major, shard-minor for a tree) for bit-identical totals.
void fold_shard_delta(FleetSnapshot& snap, const ShardDeltaRecord& rec);

/// FNV-1a digest over a snapshot's semantic fields (bit patterns of the
/// doubles, so two snapshots digest equal iff they are bit-identical).
std::uint64_t snapshot_digest(const FleetSnapshot& snap);

/// One node's reading for batch ingestion.
struct NodeSample {
  NodeId node = 0;
  double now_s = 0.0;   ///< fleet time of the reading
  DenseSample sample;   ///< counts in the fleet model's layout order
};

/// Applies a per-node power model across a fleet of nodes.
class FleetEstimator {
public:
  /// `staleness_horizon_s`: a node whose last sample is older than this (in
  /// fleet time) is excluded from totals and counted as stale. The node
  /// model is pinned for the fleet's lifetime.
  explicit FleetEstimator(PowerModel node_model, double smoothing = 0.0,
                          double staleness_horizon_s = 10.0,
                          FleetOptions options = {});

  FleetEstimator(const FleetEstimator&) = delete;
  FleetEstimator& operator=(const FleetEstimator&) = delete;

  /// FNV-1a hash of a node name — the one hash every fleet component
  /// derives node placement from. A node's shard is name_hash(name) %
  /// shard_count; a fleet tree's group and a leaf daemon's slice are
  /// derived from the same value (fleet/tree.hpp), so placement agrees
  /// across processes without shared state.
  static std::uint64_t name_hash(std::string_view node);

  /// Get-or-create the stable handle for a node name. Interning is the only
  /// string-touching operation; do it once at node discovery and ingest by
  /// handle. Thread-safe.
  NodeId intern(std::string_view node);

  /// Ingest a batch: samples are grouped by shard and each shard's group is
  /// processed under a single lock acquisition, in batch order (so multiple
  /// samples of one node apply in order). Each sample runs through the
  /// guarded estimation path: telemetry faults never throw, an invalid
  /// sample holds the node's last good estimate and degrades its health.
  /// With options.parallel_ingest the shard groups run in parallel; results
  /// are bit-identical to serial ingestion. Returns the number of samples
  /// ingested. Node handles must come from intern(); per-node time must be
  /// non-decreasing (on violation the batch throws after a partial
  /// application: the offending shard keeps every sample before the
  /// violating one, and every other shard's group is applied).
  std::size_t ingest_batch(std::span<const NodeSample> batch);

  /// Pointer-batch ingest: applies *batch[0], *batch[1], ... in that order,
  /// without copying the samples. This is how a fleet tree hands over the
  /// samples embedded in its TreeSample batch. Same contract as the value
  /// overload.
  std::size_t ingest_batch(std::span<const NodeSample* const> batch);

  /// Aggregate over all known nodes at fleet time `now_s`. Nodes whose
  /// estimator reports FAILED are excluded from the total (counted in
  /// nodes_failed); DEGRADED nodes stay included but are counted.
  /// Implemented as a fold of shard_delta() over every shard: one lock per
  /// shard, cost O(shards + stale active nodes) in the common case, never
  /// O(interned namespace).
  FleetSnapshot snapshot(double now_s) const;

  /// One shard's contribution at `now_s`, under that shard's lock: the
  /// record snapshot() folds, what a leaf daemon encodes onto the wire for
  /// each of its shards (fleet/delta.hpp), and what a fleet tree reads for
  /// each shard of a group's range (fleet/tree.hpp).
  ShardDeltaRecord shard_delta(std::size_t shard, double now_s) const;

  /// Last estimate of one node (nullopt when the node never reported).
  std::optional<double> node_estimate(NodeId node) const;

  /// Health of one node's estimate stream (nullopt when never reported).
  std::optional<HealthState> node_health(NodeId node) const;

  /// The served model and its compiled layout, fixed for the fleet's
  /// lifetime. Build DenseSamples against layout().
  const PowerModel& model() const { return model_; }
  const ModelLayout& layout() const { return layout_; }
  const FleetOptions& options() const { return options_; }

private:
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

  /// State of one node: guarded-estimator stream state plus staleness links.
  struct NodeState {
    GuardedState guard;
    double last_estimate = 0.0;
    double last_seen_s = -1.0;
    std::uint32_t seen_prev = kNil;  ///< intrusive list over *active* nodes
    std::uint32_t seen_next = kNil;
    NodeId id = 0;                          ///< global intern handle
    const std::string* name = nullptr;      ///< stable deque storage
    obs::Gauge* staleness_gauge = nullptr;  ///< preallocated at intern (or null)
  };

  /// One shard: the states of its nodes (assigned by name hash), a
  /// last-seen-ordered intrusive list over *active* (ever-reported) nodes,
  /// and incremental aggregates over the included set, all guarded by
  /// `mutex`.
  struct Shard {
    mutable std::mutex mutex;
    /// Fused-ingest scratch (guarded by mutex): ingest_batch packs each
    /// chunk of this shard's group into the SoA batch, runs one vector
    /// predict into raw/valid, then folds lanes through the guarded state
    /// machine. reset()/resize() keep capacity, so steady-state batches
    /// allocate nothing.
    SampleBatch batch_scratch;
    std::vector<double> raw_scratch;
    std::vector<std::uint8_t> valid_scratch;
    std::vector<NodeState> nodes;
    std::uint32_t seen_head = kNil;  ///< oldest last_seen_s among active nodes
    std::uint32_t seen_tail = kNil;  ///< freshest last_seen_s
    double sum_watts = 0.0;          ///< Σ last_estimate over included nodes
    std::size_t included = 0;        ///< reported && !failed
    std::size_t degraded = 0;        ///< included && DEGRADED
    std::size_t failed = 0;          ///< reported && FAILED
    std::size_t active = 0;          ///< reported at least once
    // Extremes over included nodes (valid when min_slot != kNil and
    // !minmax_stale); mutable because snapshot() repairs them lazily.
    mutable double min_watts = 0.0;
    mutable double max_watts = 0.0;
    mutable std::uint32_t min_slot = kNil;   ///< holder of min_watts
    mutable std::uint32_t max_slot = kNil;   ///< holder of max_watts
    mutable bool minmax_stale = false;       ///< lazily repaired on snapshot
  };

  /// Where an interned node lives.
  struct Loc {
    std::uint32_t shard;
    std::uint32_t slot;
  };
  /// (shard, slot) of a handle, under the intern mutex (nullopt if unknown).
  std::optional<Loc> locate(NodeId node) const;

  /// Apply one node's *precomputed* prediction (the batch kernel's guarded
  /// verdict and value) to a locked shard: guarded fold, running aggregates,
  /// min/max maintenance, seen-list moves.
  void ingest_locked(Shard& shard, std::uint32_t slot, bool valid, double raw,
                     double now_s);
  std::size_t ingest_batch_impl(std::span<const NodeSample* const> samples);
  void detach_seen(Shard& shard, std::uint32_t slot);
  void attach_seen_sorted(Shard& shard, std::uint32_t slot);
  void repair_minmax(const Shard& shard) const;
  /// Write per-node staleness gauges for gauge-carrying nodes (the first
  /// nodes interned; see kPerNodeGaugeLimit in fleet.cpp). Called by
  /// snapshot() when telemetry is enabled; cost is bounded by the limit,
  /// not the fleet size.
  void update_staleness_gauges(double now_s) const;
  bool stale_at(const NodeState& state, double now_s) const {
    return state.last_seen_s < 0.0 ||
           now_s - state.last_seen_s > staleness_horizon_s_;
  }

  PowerModel model_;
  ModelLayout layout_;  ///< compiled from model_; read-only after construction
  double smoothing_;
  double staleness_horizon_s_;
  FleetOptions options_;

  // Interner: open-addressed FNV-1a hash table over stable name storage
  // (deque: NodeState::name pointers survive growth), plus each handle's
  // location. All three are guarded by intern_mutex_.
  mutable std::mutex intern_mutex_;
  std::deque<std::string> names_;           ///< names_[id] = node name
  std::vector<std::uint32_t> hash_slots_;   ///< open addressing: id + 1, 0 = empty
  std::vector<Loc> locs_;                   ///< locs_[id] = node's shard and slot

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pwx::core
