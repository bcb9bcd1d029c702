// Shard-delta wire format: how fleet aggregation crosses process boundaries.
//
// A leaf daemon (pwx-fleetd) runs a FleetEstimator over its slice of the
// fleet and periodically encodes the estimator's per-shard delta records
// into one small frame; an aggregator decodes frames from every leaf and
// folds them — with the same fold_shard_delta() the in-process snapshot
// uses, in the same canonical order — into a global FleetSnapshot that is
// bit-identical to a single estimator ingesting the full stream (given the
// hash-compatible partitioning FleetTree/partitioning helpers define; see
// DESIGN.md "Hierarchical fleet aggregation & delta wire format").
//
// Frame layout (little-endian, version 1):
//
//   offset  size  field
//        0     8  magic "PWXFDLT1"
//        8     4  u32 version (1)
//       12     4  u32 leaf_index          (< leaf_count)
//       16     4  u32 leaf_count          (>= 1)
//       20     4  u32 shard_count         (1 .. kMaxDeltaShards)
//       24     8  f64 now_s               (fleet time the deltas answer at)
//       32     8  u64 sequence            (monotonic per leaf; newest wins)
//       40   72*S shard records, shard order 0..S-1:
//                   f64 fresh_sum, f64 min_watts, f64 max_watts,
//                   u64 reporting, u64 stale, u64 degraded, u64 failed,
//                   u64 active, u64 interned
//   40+72*S     8  u64 FNV-1a lane checksum over bytes [8, 40+72*S)
//
// Same robustness contract as the v4 trace format: structural and
// semantic validation first, checksum last, every rejection a
// pwx::IoError(Corruption) carrying the byte offset (and record index for
// per-record faults) of the first invalid byte — identical across repeated
// runs on identical input, so hostile frames are rejected deterministically
// (fuzz/read_delta_fuzz.cpp pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fleet.hpp"

namespace pwx::fleet {

inline constexpr char kDeltaMagic[8] = {'P', 'W', 'X', 'F', 'D', 'L', 'T', '1'};
inline constexpr std::uint32_t kDeltaVersion = 1;
/// Frame size bookkeeping: fixed header (incl. magic), per-shard record,
/// trailing checksum.
inline constexpr std::size_t kDeltaHeaderBytes = 40;
inline constexpr std::size_t kDeltaRecordBytes = 72;
inline constexpr std::size_t kDeltaFooterBytes = 8;
/// Upper bound on shard_count a decoder accepts: rejects absurd frames
/// before allocating (1M shards = a 72MB frame).
inline constexpr std::uint32_t kMaxDeltaShards = 1u << 20;

/// One leaf's decoded (or to-be-encoded) contribution.
struct FleetDelta {
  std::uint32_t leaf_index = 0;  ///< this leaf's position in the partition
  std::uint32_t leaf_count = 1;  ///< total leaves in the partition
  std::uint64_t sequence = 0;    ///< monotonic per leaf; aggregators keep the newest
  double now_s = 0.0;            ///< fleet time the records were evaluated at
  std::vector<core::ShardDeltaRecord> shards;  ///< shard order 0..S-1
};

/// Total encoded frame size for a shard count.
std::size_t encoded_delta_size(std::size_t shard_count);

/// Encode a delta into a version-1 frame.
std::string encode_delta(const FleetDelta& delta);

/// Decode and fully validate a frame. Throws pwx::IoError (Corruption) with
/// the byte offset of the first invalid byte on any structural, semantic, or
/// checksum fault.
FleetDelta decode_delta(std::span<const char> bytes);

/// Build a leaf's delta from its estimator at fleet time `now_s`: one
/// FleetEstimator::shard_delta record per shard, in shard order (one lock
/// per shard).
FleetDelta make_delta(const core::FleetEstimator& estimator,
                      std::uint32_t leaf_index, std::uint32_t leaf_count,
                      double now_s, std::uint64_t sequence);

/// Merges leaf deltas into a global snapshot. Keeps the highest-sequence
/// delta per leaf, validates that every delta agrees on the partition
/// topology (leaf_count, shard_count), and folds leaves in leaf-index order
/// — the canonical order that makes the merged snapshot bit-identical to a
/// flat estimator over the same samples.
class DeltaMerger {
public:
  /// Incorporate one delta. A delta for an already-seen leaf replaces the
  /// stored one only when its sequence is >= the stored sequence. Throws
  /// pwx::IoError (Corruption) on topology mismatch with what was
  /// previously added.
  void add(FleetDelta delta);

  /// Leaves a delta has been added for.
  std::size_t leaves_present() const { return present_; }
  /// Partition width (0 before the first add).
  std::uint32_t leaf_count() const { return leaf_count_; }
  /// Shards per leaf (0 before the first add).
  std::uint32_t shard_count() const { return shard_count_; }
  /// True once every leaf of the partition has reported at least once.
  bool complete() const { return leaf_count_ > 0 && present_ == leaf_count_; }
  /// Newest fleet time over stored deltas (0 before the first add).
  double now_s() const { return now_s_; }

  /// Fold the stored deltas (leaf-index order, shard order within each
  /// leaf) into a snapshot. Missing leaves contribute nothing — check
  /// complete() when partial fleets must not be reported.
  core::FleetSnapshot merge() const;

private:
  std::uint32_t leaf_count_ = 0;
  std::uint32_t shard_count_ = 0;
  std::size_t present_ = 0;
  double now_s_ = 0.0;
  std::vector<std::optional<FleetDelta>> leaves_;
};

}  // namespace pwx::fleet
