#include "fleet/delta.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "trace/format.hpp"

namespace pwx::fleet {

namespace {

// The codebase targets little-endian hosts throughout (the trace formats
// write native doubles/integers and declare the files little-endian); the
// delta frame follows the same convention via memcpy of native values.
void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(buf));
  out.append(buf, sizeof(buf));
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  out.append(buf, sizeof(buf));
}

void put_f64(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  out.append(buf, sizeof(buf));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double get_f64(const char* p) {
  double v = 0.0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

[[noreturn]] void reject(const std::string& what, std::int64_t byte_offset,
                         std::int64_t record_index = -1) {
  throw IoError(what, byte_offset, record_index, ErrorCode::Corruption);
}

}  // namespace

std::size_t encoded_delta_size(std::size_t shard_count) {
  return kDeltaHeaderBytes + shard_count * kDeltaRecordBytes + kDeltaFooterBytes;
}

std::string encode_delta(const FleetDelta& delta) {
  PWX_REQUIRE(delta.leaf_count > 0, "delta leaf_count must be positive");
  PWX_REQUIRE(delta.leaf_index < delta.leaf_count, "delta leaf_index ",
              delta.leaf_index, " out of range for ", delta.leaf_count,
              " leaves");
  PWX_REQUIRE(!delta.shards.empty(), "delta must carry at least one shard");
  PWX_REQUIRE(delta.shards.size() <= kMaxDeltaShards,
              "delta shard count exceeds the format limit");
  PWX_REQUIRE(std::isfinite(delta.now_s), "delta now_s must be finite");

  std::string out;
  out.reserve(encoded_delta_size(delta.shards.size()));
  out.append(kDeltaMagic, sizeof(kDeltaMagic));
  put_u32(out, kDeltaVersion);
  put_u32(out, delta.leaf_index);
  put_u32(out, delta.leaf_count);
  put_u32(out, static_cast<std::uint32_t>(delta.shards.size()));
  put_f64(out, delta.now_s);
  put_u64(out, delta.sequence);
  for (const core::ShardDeltaRecord& rec : delta.shards) {
    put_f64(out, rec.fresh_sum);
    put_f64(out, rec.min_watts);
    put_f64(out, rec.max_watts);
    put_u64(out, rec.reporting);
    put_u64(out, rec.stale);
    put_u64(out, rec.degraded);
    put_u64(out, rec.failed);
    put_u64(out, rec.active);
    put_u64(out, rec.interned);
  }
  // Checksum over everything after the magic (header fields + records), the
  // same FNV-1a lane fold the v4 trace footer uses.
  put_u64(out, trace::format::fnv1a_lanes(out.data() + sizeof(kDeltaMagic),
                                          out.size() - sizeof(kDeltaMagic)));
  return out;
}

FleetDelta decode_delta(std::span<const char> bytes) {
  // Structure first, checksum last (the v4 trace contract): every rejection
  // names the first invalid byte, so corruption is located, not just
  // detected — and located identically on every run.
  if (bytes.size() < sizeof(kDeltaMagic) ||
      std::memcmp(bytes.data(), kDeltaMagic, sizeof(kDeltaMagic)) != 0) {
    reject("not a fleet-delta frame (bad magic)", 0);
  }
  if (bytes.size() < kDeltaHeaderBytes) {
    reject("truncated fleet-delta header", static_cast<std::int64_t>(bytes.size()));
  }
  const char* p = bytes.data();
  const std::uint32_t version = get_u32(p + 8);
  if (version != kDeltaVersion) {
    reject("unsupported fleet-delta version " + std::to_string(version), 8);
  }
  const std::uint32_t leaf_index = get_u32(p + 12);
  const std::uint32_t leaf_count = get_u32(p + 16);
  if (leaf_count == 0) {
    reject("fleet-delta leaf_count is zero", 16);
  }
  if (leaf_index >= leaf_count) {
    reject("fleet-delta leaf_index " + std::to_string(leaf_index) +
               " out of range for " + std::to_string(leaf_count) + " leaves",
           12);
  }
  const std::uint32_t shard_count = get_u32(p + 20);
  if (shard_count == 0 || shard_count > kMaxDeltaShards) {
    reject("fleet-delta shard_count " + std::to_string(shard_count) +
               " outside [1, " + std::to_string(kMaxDeltaShards) + "]",
           20);
  }
  const std::size_t expected = encoded_delta_size(shard_count);
  if (bytes.size() < expected) {
    reject("truncated fleet delta (need " + std::to_string(expected) +
               " bytes, have " + std::to_string(bytes.size()) + ")",
           static_cast<std::int64_t>(bytes.size()));
  }
  if (bytes.size() > expected) {
    reject("trailing bytes after fleet delta",
           static_cast<std::int64_t>(expected));
  }
  const double now_s = get_f64(p + 24);
  if (!std::isfinite(now_s)) {
    reject("fleet-delta now_s is not finite", 24);
  }

  FleetDelta delta;
  delta.leaf_index = leaf_index;
  delta.leaf_count = leaf_count;
  delta.now_s = now_s;
  delta.sequence = get_u64(p + 32);
  delta.shards.resize(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    const std::size_t base = kDeltaHeaderBytes + i * kDeltaRecordBytes;
    const char* r = p + base;
    core::ShardDeltaRecord& rec = delta.shards[i];
    rec.fresh_sum = get_f64(r + 0);
    rec.min_watts = get_f64(r + 8);
    rec.max_watts = get_f64(r + 16);
    rec.reporting = get_u64(r + 24);
    rec.stale = get_u64(r + 32);
    rec.degraded = get_u64(r + 40);
    rec.failed = get_u64(r + 48);
    rec.active = get_u64(r + 56);
    rec.interned = get_u64(r + 64);

    // Semantic invariants a real estimator maintains; a frame that violates
    // them is corrupt (or forged) even if its checksum matches.
    const auto off = static_cast<std::int64_t>(base);
    const auto idx = static_cast<std::int64_t>(i);
    if (rec.active > rec.interned) {
      reject("shard record active exceeds interned", off + 56, idx);
    }
    if (rec.reporting > rec.active) {
      reject("shard record reporting exceeds active", off + 24, idx);
    }
    if (rec.degraded > rec.reporting) {
      reject("shard record degraded exceeds reporting", off + 40, idx);
    }
    if (rec.failed > rec.active) {
      reject("shard record failed exceeds active", off + 48, idx);
    }
    if (rec.stale > rec.interned) {
      reject("shard record stale exceeds interned", off + 32, idx);
    }
    if (!std::isfinite(rec.fresh_sum)) {
      reject("shard record sum is not finite", off + 0, idx);
    }
    if (rec.reporting > 0) {
      if (!std::isfinite(rec.min_watts) || !std::isfinite(rec.max_watts)) {
        reject("shard record extremes not finite with nodes reporting",
               off + 8, idx);
      }
      if (rec.min_watts > rec.max_watts) {
        reject("shard record min exceeds max", off + 8, idx);
      }
    } else {
      if (!std::isnan(rec.min_watts) || !std::isnan(rec.max_watts)) {
        reject("shard record extremes present with no nodes reporting",
               off + 8, idx);
      }
      if (rec.fresh_sum != 0.0) {
        reject("shard record sum nonzero with no nodes reporting", off + 0,
               idx);
      }
    }
  }

  const std::size_t footer_at = expected - kDeltaFooterBytes;
  const std::uint64_t stored = get_u64(p + footer_at);
  const std::uint64_t computed = trace::format::fnv1a_lanes(
      p + sizeof(kDeltaMagic), footer_at - sizeof(kDeltaMagic));
  if (stored != computed) {
    reject("fleet delta checksum mismatch",
           static_cast<std::int64_t>(footer_at));
  }
  return delta;
}

FleetDelta make_delta(const core::FleetEstimator& estimator,
                      std::uint32_t leaf_index, std::uint32_t leaf_count,
                      double now_s, std::uint64_t sequence) {
  FleetDelta delta;
  delta.leaf_index = leaf_index;
  delta.leaf_count = leaf_count;
  delta.now_s = now_s;
  delta.sequence = sequence;
  const std::size_t shards = estimator.options().shard_count;
  delta.shards.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    delta.shards.push_back(estimator.shard_delta(shard, now_s));
  }
  return delta;
}

void DeltaMerger::add(FleetDelta delta) {
  if (leaf_count_ == 0) {
    leaf_count_ = delta.leaf_count;
    shard_count_ = static_cast<std::uint32_t>(delta.shards.size());
    leaves_.resize(leaf_count_);
  }
  if (delta.leaf_count != leaf_count_) {
    reject("fleet delta leaf_count " + std::to_string(delta.leaf_count) +
               " disagrees with aggregation topology (" +
               std::to_string(leaf_count_) + ")",
           16);
  }
  if (delta.shards.size() != shard_count_) {
    reject("fleet delta shard_count " + std::to_string(delta.shards.size()) +
               " disagrees with aggregation topology (" +
               std::to_string(shard_count_) + ")",
           20);
  }
  std::optional<FleetDelta>& slot = leaves_[delta.leaf_index];
  if (slot.has_value() && slot->sequence > delta.sequence) {
    return;  // an older frame arriving late never rolls a leaf back
  }
  if (!slot.has_value()) {
    present_ += 1;
  }
  now_s_ = std::max(now_s_, delta.now_s);
  slot = std::move(delta);
}

core::FleetSnapshot DeltaMerger::merge() const {
  core::FleetSnapshot snap;
  for (const std::optional<FleetDelta>& leaf : leaves_) {
    if (!leaf.has_value()) {
      continue;
    }
    for (const core::ShardDeltaRecord& rec : leaf->shards) {
      core::fold_shard_delta(snap, rec);
    }
  }
  return snap;
}

}  // namespace pwx::fleet
