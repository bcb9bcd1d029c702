#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace pwx::core {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Per-node staleness gauges ("fleet.node.<name>.staleness_s") are created at
/// intern time for the first this-many nodes (while telemetry is enabled);
/// later nodes get none, so the metric registry and snapshot cost stay
/// bounded on large fleets. Aggregate fleet gauges are always maintained.
constexpr std::size_t kPerNodeGaugeLimit = 1024;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t FleetEstimator::name_hash(std::string_view node) {
  std::uint64_t hash = kFnvOffset;
  for (const char c : node) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

void fold_shard_delta(FleetSnapshot& snap, const ShardDeltaRecord& rec) {
  snap.nodes_reporting += rec.reporting;
  snap.nodes_stale += rec.stale;
  snap.nodes_degraded += rec.degraded;
  snap.nodes_failed += rec.failed;
  snap.nodes_active += rec.active;
  snap.nodes_interned += rec.interned;
  if (rec.reporting > 0) {
    snap.total_watts += rec.fresh_sum;
    if (std::isnan(snap.min_node_watts)) {
      snap.min_node_watts = rec.min_watts;
      snap.max_node_watts = rec.max_watts;
    } else {
      snap.min_node_watts = std::min(snap.min_node_watts, rec.min_watts);
      snap.max_node_watts = std::max(snap.max_node_watts, rec.max_watts);
    }
  }
}

std::uint64_t snapshot_digest(const FleetSnapshot& snap) {
  const auto bits = [](double d) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, bits(snap.total_watts));
  fnv_mix(hash, snap.nodes_reporting);
  fnv_mix(hash, snap.nodes_stale);
  fnv_mix(hash, snap.nodes_degraded);
  fnv_mix(hash, snap.nodes_failed);
  fnv_mix(hash, bits(snap.max_node_watts));
  fnv_mix(hash, bits(snap.min_node_watts));
  fnv_mix(hash, snap.nodes_active);
  fnv_mix(hash, snap.nodes_interned);
  return hash;
}

FleetEstimator::FleetEstimator(PowerModel node_model, double smoothing,
                               double staleness_horizon_s, FleetOptions options)
    : model_(std::move(node_model)), layout_(model_), smoothing_(smoothing),
      staleness_horizon_s_(staleness_horizon_s), options_(options) {
  PWX_REQUIRE(staleness_horizon_s_ > 0.0, "staleness horizon must be positive");
  PWX_REQUIRE(smoothing_ >= 0.0 && smoothing_ < 1.0, "smoothing must be in [0,1)");
  if (options_.shard_count == 0) {
    options_.shard_count = 1;
  }
  shards_.reserve(options_.shard_count);
  for (std::size_t s = 0; s < options_.shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  hash_slots_.assign(64, 0);
}

NodeId FleetEstimator::intern(std::string_view node) {
  PWX_REQUIRE(!node.empty(), "node name must not be empty");
  const std::uint64_t hash = name_hash(node);
  std::lock_guard lock(intern_mutex_);
  std::size_t mask = hash_slots_.size() - 1;
  std::size_t i = hash & mask;
  while (hash_slots_[i] != 0) {
    const NodeId candidate = hash_slots_[i] - 1;
    if (names_[candidate] == node) {
      return candidate;
    }
    i = (i + 1) & mask;
  }
  PWX_REQUIRE(names_.size() < kNil, "fleet node capacity exhausted");
  const auto id = static_cast<NodeId>(names_.size());
  names_.emplace_back(node);
  hash_slots_[i] = id + 1;
  // Grow at 70% load; rehash every name into the doubled table.
  if ((names_.size() + 1) * 10 >= hash_slots_.size() * 7) {
    std::vector<std::uint32_t> grown(hash_slots_.size() * 2, 0);
    mask = grown.size() - 1;
    for (NodeId n = 0; n < names_.size(); ++n) {
      std::size_t j = name_hash(names_[n]) & mask;
      while (grown[j] != 0) {
        j = (j + 1) & mask;
      }
      grown[j] = n + 1;
    }
    hash_slots_ = std::move(grown);
  }

  // Per-node staleness gauge: preallocated here, written by snapshot().
  // Only while the fleet is small (and telemetry is on) — unbounded
  // per-node registry growth is exactly what large fleets must avoid.
  obs::Gauge* gauge = nullptr;
  if (obs::enabled() && id < kPerNodeGaugeLimit) {
    gauge = &obs::registry().gauge(
        "fleet.node." + names_[id] + ".staleness_s",
        "seconds since this node last reported (-1 = never)");
  }

  // Shard by name hash, not intern order: every estimator (or leaf process)
  // that agrees on a shard count places this node identically.
  const auto shard_index =
      static_cast<std::uint32_t>(hash % options_.shard_count);
  Shard& shard = *shards_[shard_index];
  {
    std::lock_guard shard_lock(shard.mutex);
    const auto slot = static_cast<std::uint32_t>(shard.nodes.size());
    shard.nodes.emplace_back();
    NodeState& state = shard.nodes.back();
    state.id = id;
    state.name = &names_[id];
    state.staleness_gauge = gauge;
    // Never-reported nodes stay off the seen list: they cost one counter in
    // the shard aggregate, not a list entry, so snapshot/repair walks scale
    // with the active set.
    locs_.push_back(Loc{shard_index, slot});
  }
  return id;
}

std::optional<FleetEstimator::Loc> FleetEstimator::locate(NodeId node) const {
  std::lock_guard lock(intern_mutex_);
  if (node >= locs_.size()) {
    return std::nullopt;
  }
  return locs_[node];
}

void FleetEstimator::detach_seen(Shard& shard, std::uint32_t slot) {
  NodeState& state = shard.nodes[slot];
  if (state.seen_prev != kNil) {
    shard.nodes[state.seen_prev].seen_next = state.seen_next;
  } else {
    shard.seen_head = state.seen_next;
  }
  if (state.seen_next != kNil) {
    shard.nodes[state.seen_next].seen_prev = state.seen_prev;
  } else {
    shard.seen_tail = state.seen_prev;
  }
  state.seen_prev = state.seen_next = kNil;
}

void FleetEstimator::attach_seen_sorted(Shard& shard, std::uint32_t slot) {
  NodeState& state = shard.nodes[slot];
  // Walk back from the tail until the predecessor is not newer. Telemetry
  // time is usually non-decreasing across the fleet, so this is O(1); an
  // out-of-order timestamp pays a backward walk.
  std::uint32_t after = shard.seen_tail;
  while (after != kNil && shard.nodes[after].last_seen_s > state.last_seen_s) {
    after = shard.nodes[after].seen_prev;
  }
  if (after == kNil) {
    state.seen_prev = kNil;
    state.seen_next = shard.seen_head;
    if (shard.seen_head != kNil) {
      shard.nodes[shard.seen_head].seen_prev = slot;
    }
    shard.seen_head = slot;
    if (shard.seen_tail == kNil) {
      shard.seen_tail = slot;
    }
  } else {
    state.seen_prev = after;
    state.seen_next = shard.nodes[after].seen_next;
    shard.nodes[after].seen_next = slot;
    if (state.seen_next != kNil) {
      shard.nodes[state.seen_next].seen_prev = slot;
    } else {
      shard.seen_tail = slot;
    }
  }
}

void FleetEstimator::repair_minmax(const Shard& shard) const {
  // Walk the seen list (active nodes only): a never-reported node can hold
  // no extremum, so repair cost scales with the active set, not the
  // interned namespace.
  shard.min_slot = shard.max_slot = kNil;
  for (std::uint32_t slot = shard.seen_head; slot != kNil;
       slot = shard.nodes[slot].seen_next) {
    const NodeState& state = shard.nodes[slot];
    if (state.guard.health == HealthState::Failed) {
      continue;
    }
    const double est = state.last_estimate;
    if (shard.min_slot == kNil || est < shard.min_watts) {
      shard.min_watts = est;
      shard.min_slot = slot;
    }
    if (shard.max_slot == kNil || est > shard.max_watts) {
      shard.max_watts = est;
      shard.max_slot = slot;
    }
  }
  shard.minmax_stale = false;
}

void FleetEstimator::ingest_locked(Shard& shard, std::uint32_t slot,
                                   bool valid, double raw, double now_s) {
  NodeState& state = shard.nodes[slot];
  PWX_REQUIRE(now_s >= state.last_seen_s, "fleet time went backwards for node '",
              *state.name, "'");

  const bool was_reported = state.last_seen_s >= 0.0;
  const bool was_included =
      was_reported && state.guard.health != HealthState::Failed;
  const bool was_degraded =
      was_included && state.guard.health == HealthState::Degraded;
  const double old_estimate = state.last_estimate;

  const double estimate =
      guarded_fold_raw(smoothing_, valid, raw, state.guard);
  state.last_estimate = estimate;

  const bool now_included = state.guard.health != HealthState::Failed;
  const bool now_degraded =
      now_included && state.guard.health == HealthState::Degraded;

  // Running aggregates: remove the old contribution, add the new one.
  if (was_included) {
    shard.sum_watts -= old_estimate;
    shard.included -= 1;
    if (was_degraded) {
      shard.degraded -= 1;
    }
  } else if (was_reported) {
    shard.failed -= 1;
  }
  if (now_included) {
    shard.sum_watts += estimate;
    shard.included += 1;
    if (now_degraded) {
      shard.degraded += 1;
    }
  } else {
    shard.failed += 1;
  }

  // Min/max maintenance with cheap repair: extending updates are applied
  // eagerly; an update that may have dethroned the current holder marks the
  // shard for a lazy rescan on the next snapshot.
  if (!shard.minmax_stale) {
    if (was_included && !now_included) {
      if (shard.included == 0) {
        shard.min_slot = shard.max_slot = kNil;
      } else if (slot == shard.min_slot || slot == shard.max_slot) {
        shard.minmax_stale = true;
      }
    } else if (now_included) {
      if (shard.min_slot == kNil) {
        shard.min_watts = shard.max_watts = estimate;
        shard.min_slot = shard.max_slot = slot;
      } else {
        if (estimate <= shard.min_watts) {
          shard.min_watts = estimate;
          shard.min_slot = slot;
        } else if (slot == shard.min_slot) {
          shard.minmax_stale = true;
        }
        if (estimate >= shard.max_watts) {
          shard.max_watts = estimate;
          shard.max_slot = slot;
        } else if (slot == shard.max_slot) {
          shard.minmax_stale = true;
        }
      }
    }
  }

  state.last_seen_s = now_s;
  if (was_reported) {
    detach_seen(shard, slot);
  } else {
    shard.active += 1;  // first report: the node joins the active set
  }
  attach_seen_sorted(shard, slot);
}

std::size_t FleetEstimator::ingest_batch(std::span<const NodeSample> batch) {
  if (batch.empty()) {
    return 0;
  }
  std::vector<const NodeSample*> samples(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    samples[k] = &batch[k];
  }
  return ingest_batch_impl(samples);
}

std::size_t FleetEstimator::ingest_batch(
    std::span<const NodeSample* const> batch) {
  return ingest_batch_impl(batch);
}

std::size_t FleetEstimator::ingest_batch_impl(
    std::span<const NodeSample* const> samples) {
  const std::size_t count = samples.size();
  if (count == 0) {
    return 0;
  }
  PWX_SPAN("fleet.ingest_batch");
  obs::span_attr("samples", static_cast<std::uint64_t>(count));
  const std::size_t shard_count = options_.shard_count;
  const auto sample_at = [&](std::size_t k) -> const NodeSample& {
    return *samples[k];
  };

  // Validate handles and resolve (shard, slot) up front, under one intern
  // lock released before any shard lock is taken: no error is raised inside
  // the (possibly parallel) shard loop, and the lock order stays intern ->
  // shard.
  std::vector<Loc> locs(count);
  {
    std::lock_guard lock(intern_mutex_);
    for (std::size_t k = 0; k < count; ++k) {
      PWX_REQUIRE(samples[k] != nullptr, "null sample in batch");
      const NodeId node = sample_at(k).node;
      PWX_REQUIRE(node < locs_.size(), "unknown node id ", node);
      locs[k] = locs_[node];
    }
  }

  // Stable counting sort by shard: each shard's group preserves batch order,
  // so repeated samples of one node apply in sequence.
  std::vector<std::uint32_t> offsets(shard_count + 1, 0);
  for (std::size_t k = 0; k < count; ++k) {
    offsets[locs[k].shard + 1] += 1;
  }
  for (std::size_t s = 1; s <= shard_count; ++s) {
    offsets[s] += offsets[s - 1];
  }
  std::vector<std::uint32_t> order(count);
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t k = 0; k < count; ++k) {
      order[cursor[locs[k].shard]++] = k;
    }
  }

  // One lock acquisition per shard; shards are independent, so the parallel
  // path is bit-identical to the serial one. A group that throws mid-way
  // leaves its partial application visible; the other groups still run.
  //
  // Each shard's group runs fused: chunks of the group are packed into the
  // shard's SoA scratch batch, one vector predict evaluates all lanes, and
  // the guarded/aggregate bookkeeping folds per lane in group order. The
  // predict has no side effects, so a time-monotonicity violation throws at
  // exactly the offending sample, after every earlier sample of the group
  // was applied.
  constexpr std::uint32_t kChunkLanes = 1024;
  std::vector<std::exception_ptr> errors(shard_count);
  const auto n_shards = static_cast<std::ptrdiff_t>(shard_count);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (options_.parallel_ingest)
#endif
  for (std::ptrdiff_t s = 0; s < n_shards; ++s) {
    const std::uint32_t begin = offsets[static_cast<std::size_t>(s)];
    const std::uint32_t end = offsets[static_cast<std::size_t>(s) + 1];
    if (begin == end) {
      continue;
    }
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    std::lock_guard lock(shard.mutex);
    try {
      std::uint32_t k = begin;
      while (k < end) {
        const std::uint32_t chunk_end =
            end - k < kChunkLanes ? end : k + kChunkLanes;
        SampleBatch& batch = shard.batch_scratch;
        batch.reset(layout_, chunk_end - k);
        for (std::uint32_t j = k; j < chunk_end; ++j) {
          batch.append(sample_at(order[j]).sample);
        }
        const std::size_t lanes = batch.size();
        shard.raw_scratch.resize(lanes);
        shard.valid_scratch.resize(lanes);
        predict_batch_guarded(layout_, batch, shard.raw_scratch,
                              shard.valid_scratch);
        std::size_t invalid = 0;
        for (std::uint32_t j = k; j < chunk_end; ++j) {
          const std::size_t lane = j - k;
          const NodeSample& ns = sample_at(order[j]);
          const std::uint32_t slot = locs[order[j]].slot;
          const bool lane_valid = shard.valid_scratch[lane] != 0;
          invalid += lane_valid ? 0 : 1;
          ingest_locked(shard, slot, lane_valid, shard.raw_scratch[lane],
                        ns.now_s);
        }
        note_batch_lanes(lanes, invalid);
        k = chunk_end;
      }
    } catch (...) {
      errors[static_cast<std::size_t>(s)] = std::current_exception();
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return count;
}

ShardDeltaRecord FleetEstimator::shard_delta(std::size_t index,
                                             double now_s) const {
  PWX_REQUIRE(index < shards_.size(), "unknown shard ", index);
  const Shard& shard = *shards_[index];
  std::lock_guard lock(shard.mutex);
  if (shard.minmax_stale) {
    repair_minmax(shard);
  }

  // Stale prefix: the last-seen list is sorted and holds only active nodes,
  // so the stale-active set at `now_s` is exactly a prefix and the walk is
  // O(stale active), independent of the interned namespace.
  std::size_t stale_active = 0;
  std::size_t stale_included = 0;
  std::size_t stale_degraded = 0;
  std::size_t stale_failed = 0;
  double stale_sum = 0.0;
  bool extremum_stale = false;
  for (std::uint32_t slot = shard.seen_head; slot != kNil;
       slot = shard.nodes[slot].seen_next) {
    const NodeState& state = shard.nodes[slot];
    if (!stale_at(state, now_s)) {
      break;
    }
    stale_active += 1;
    if (state.guard.health == HealthState::Failed) {
      stale_failed += 1;
      continue;
    }
    stale_included += 1;
    if (state.guard.health == HealthState::Degraded) {
      stale_degraded += 1;
    }
    stale_sum += state.last_estimate;
    if (shard.min_slot != kNil && (state.last_estimate <= shard.min_watts ||
                                   state.last_estimate >= shard.max_watts)) {
      extremum_stale = true;
    }
  }

  ShardDeltaRecord rec;
  rec.active = shard.active;
  rec.interned = shard.nodes.size();
  rec.stale = (rec.interned - rec.active) + stale_active;
  rec.reporting = shard.included - stale_included;
  rec.degraded = shard.degraded - stale_degraded;
  rec.failed = shard.failed - stale_failed;
  // With nothing reporting, fresh_sum stays exactly 0: the incremental sum
  // may carry a floating-point residue from add/remove churn, and the wire
  // decoder requires an empty shard's record to be zero.
  if (rec.reporting > 0) {
    rec.fresh_sum =
        stale_included > 0 ? shard.sum_watts - stale_sum : shard.sum_watts;
    double shard_min = shard.min_watts;
    double shard_max = shard.max_watts;
    if (extremum_stale) {
      // A stale node may hold the shard extremum: rescan the fresh suffix of
      // the seen list (still O(active)).
      bool first = true;
      for (std::uint32_t slot = shard.seen_head; slot != kNil;
           slot = shard.nodes[slot].seen_next) {
        const NodeState& state = shard.nodes[slot];
        if (stale_at(state, now_s) ||
            state.guard.health == HealthState::Failed) {
          continue;
        }
        if (first || state.last_estimate < shard_min) {
          shard_min = state.last_estimate;
        }
        if (first || state.last_estimate > shard_max) {
          shard_max = state.last_estimate;
        }
        first = false;
      }
    }
    rec.min_watts = shard_min;
    rec.max_watts = shard_max;
  }
  return rec;
}

void FleetEstimator::update_staleness_gauges(double now_s) const {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    // Per-node staleness gauges exist only for nodes interned below
    // kPerNodeGaugeLimit, so this loop is bounded by the limit, not the
    // fleet size. Gauge-carrying slots are a prefix of each shard (ids grow
    // with slots).
    for (std::uint32_t slot = 0;
         slot < shard.nodes.size() && shard.nodes[slot].id < kPerNodeGaugeLimit;
         ++slot) {
      const NodeState& state = shard.nodes[slot];
      if (state.staleness_gauge == nullptr) {
        continue;
      }
      const double staleness =
          state.last_seen_s < 0.0 ? -1.0 : now_s - state.last_seen_s;
      state.staleness_gauge->set(staleness);
    }
  }
}

FleetSnapshot FleetEstimator::snapshot(double now_s) const {
  PWX_SPAN("fleet.snapshot");
  FleetSnapshot snap;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    fold_shard_delta(snap, shard_delta(shard, now_s));
  }

  if (obs::enabled()) {
    update_staleness_gauges(now_s);
    obs::MetricRegistry& reg = obs::registry();
    reg.gauge("fleet.nodes_reporting", "nodes contributing to the fleet total")
        .set(static_cast<double>(snap.nodes_reporting));
    reg.gauge("fleet.nodes_stale", "nodes past the staleness horizon")
        .set(static_cast<double>(snap.nodes_stale));
    reg.gauge("fleet.nodes_degraded", "reporting nodes in DEGRADED health")
        .set(static_cast<double>(snap.nodes_degraded));
    reg.gauge("fleet.nodes_failed", "nodes excluded as FAILED")
        .set(static_cast<double>(snap.nodes_failed));
    reg.gauge("fleet.total_watts", "fleet-wide power estimate")
        .set(snap.total_watts);
    reg.gauge("fleet.nodes_active", "nodes that ever reported a sample")
        .set(static_cast<double>(snap.nodes_active));
    reg.gauge("fleet.nodes_interned", "node names interned into the fleet")
        .set(static_cast<double>(snap.nodes_interned));
  }
  return snap;
}

std::optional<double> FleetEstimator::node_estimate(NodeId node) const {
  const std::optional<Loc> loc = locate(node);
  if (!loc.has_value()) {
    return std::nullopt;
  }
  const Shard& shard = *shards_[loc->shard];
  std::lock_guard lock(shard.mutex);
  const NodeState& state = shard.nodes[loc->slot];
  if (state.last_seen_s < 0.0) {
    return std::nullopt;
  }
  return state.last_estimate;
}

std::optional<HealthState> FleetEstimator::node_health(NodeId node) const {
  const std::optional<Loc> loc = locate(node);
  if (!loc.has_value()) {
    return std::nullopt;
  }
  const Shard& shard = *shards_[loc->shard];
  std::lock_guard lock(shard.mutex);
  const NodeState& state = shard.nodes[loc->slot];
  if (state.last_seen_s < 0.0) {
    return std::nullopt;
  }
  return state.guard.health;
}

}  // namespace pwx::core
