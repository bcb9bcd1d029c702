#include "fleet/tree.hpp"

#include <utility>
#include <vector>

#include "common/error.hpp"

namespace pwx::fleet {

namespace {

std::size_t at_least_one(std::size_t n) { return n == 0 ? 1 : n; }

}  // namespace

FleetTree::FleetTree(core::PowerModel node_model, double smoothing,
                     double staleness_horizon_s, TreeOptions options)
    : group_count_(at_least_one(options.group_count)),
      shards_per_group_(at_least_one(options.shards_per_group)),
      estimator_(std::move(node_model), smoothing, staleness_horizon_s,
                 core::FleetOptions{.shard_count = group_count_ * shards_per_group_,
                                    .parallel_ingest = options.parallel}) {}

std::uint32_t FleetTree::group_of(std::string_view node) const {
  // Global shard = hash % (G*S); contiguous blocks of S shards per group.
  const std::uint64_t global =
      core::FleetEstimator::name_hash(node) % total_shards();
  return static_cast<std::uint32_t>(global / shards_per_group_);
}

TreeNodeId FleetTree::intern(std::string_view node) {
  return TreeNodeId{group_of(node), estimator_.intern(node)};
}

std::size_t FleetTree::ingest_batch(std::span<const TreeSample> batch) {
  std::vector<const core::NodeSample*> samples;
  samples.reserve(batch.size());
  for (const TreeSample& s : batch) {
    PWX_REQUIRE(s.group < group_count_, "unknown tree group ", s.group);
    samples.push_back(&s.sample);
  }
  return estimator_.ingest_batch(
      std::span<const core::NodeSample* const>(samples));
}

core::FleetSnapshot FleetTree::snapshot(double now_s) const {
  return estimator_.snapshot(now_s);
}

FleetDelta FleetTree::group_delta(std::uint32_t group, double now_s,
                                  std::uint64_t sequence) const {
  PWX_REQUIRE(group < group_count_, "unknown tree group ", group);
  FleetDelta delta;
  delta.leaf_index = group;
  delta.leaf_count = static_cast<std::uint32_t>(group_count_);
  delta.now_s = now_s;
  delta.sequence = sequence;
  delta.shards.reserve(shards_per_group_);
  const std::size_t first = group * shards_per_group_;
  for (std::size_t shard = first; shard < first + shards_per_group_; ++shard) {
    delta.shards.push_back(estimator_.shard_delta(shard, now_s));
  }
  return delta;
}

}  // namespace pwx::fleet
