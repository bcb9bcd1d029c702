#include "fleet/tree.hpp"

#include <exception>

#include "common/error.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace pwx::fleet {

namespace {

core::FleetOptions group_options(const TreeOptions& options) {
  core::FleetOptions out;
  out.shard_count = options.shards_per_group;
  // Group-level OpenMP is the outer loop; each group's own batch path stays
  // serial so the tree never nests parallel regions.
  out.parallel_ingest = false;
  return out;
}

TreeOptions sanitize(TreeOptions options) {
  if (options.group_count == 0) {
    options.group_count = 1;
  }
  if (options.shards_per_group == 0) {
    options.shards_per_group = 1;
  }
  return options;
}

}  // namespace

FleetTree::FleetTree(core::PowerModel node_model, double smoothing,
                     double staleness_horizon_s, TreeOptions options)
    : shards_per_group_((options = sanitize(options)).shards_per_group),
      parallel_(options.parallel) {
  groups_.reserve(options.group_count);
  for (std::size_t g = 0; g < options.group_count; ++g) {
    groups_.push_back(std::make_unique<core::FleetEstimator>(
        node_model, smoothing, staleness_horizon_s, group_options(options)));
  }
}

std::uint32_t FleetTree::group_of(std::string_view node) const {
  // Global shard = hash % (G*S); contiguous blocks of S shards per group.
  const std::uint64_t global =
      core::FleetEstimator::name_hash(node) % total_shards();
  return static_cast<std::uint32_t>(global / shards_per_group_);
}

TreeNodeId FleetTree::intern(std::string_view node) {
  const std::uint32_t g = group_of(node);
  return TreeNodeId{g, groups_[g]->intern(node)};
}

double FleetTree::ingest(TreeNodeId node, const core::DenseSample& sample,
                         double now_s) {
  PWX_REQUIRE(node.group < groups_.size(), "unknown tree group ", node.group);
  return groups_[node.group]->ingest(node.local, sample, now_s);
}

std::size_t FleetTree::ingest_batch(std::span<const TreeSample> batch) {
  if (batch.empty()) {
    return 0;
  }
  PWX_SPAN("fleet.tree.ingest_batch");
  obs::span_attr("samples", static_cast<std::uint64_t>(batch.size()));
  const std::size_t group_count = groups_.size();
  for (const TreeSample& s : batch) {
    PWX_REQUIRE(s.group < group_count, "unknown tree group ", s.group);
  }

  // Stable counting sort by group into one shared pointer array: each
  // group's slice preserves batch order (so repeated samples of one node
  // apply in sequence) and no sample is copied. The slice then goes through
  // the group's full batch path — shard-sorted, one lock per shard —
  // exactly like a flat estimator's.
  std::vector<std::uint32_t> offsets(group_count + 1, 0);
  for (const TreeSample& s : batch) {
    offsets[s.group + 1] += 1;
  }
  for (std::size_t g = 1; g <= group_count; ++g) {
    offsets[g] += offsets[g - 1];
  }
  std::vector<const core::NodeSample*> routed(batch.size());
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const TreeSample& s : batch) {
      routed[cursor[s.group]++] = &s.sample;
    }
  }

  std::vector<std::exception_ptr> errors(group_count);
  const auto n_groups = static_cast<std::ptrdiff_t>(group_count);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (parallel_)
#endif
  for (std::ptrdiff_t g = 0; g < n_groups; ++g) {
    const std::uint32_t begin = offsets[static_cast<std::size_t>(g)];
    const std::uint32_t end = offsets[static_cast<std::size_t>(g) + 1];
    if (begin == end) {
      continue;
    }
    try {
      groups_[static_cast<std::size_t>(g)]->ingest_batch(
          std::span<const core::NodeSample* const>(routed.data() + begin,
                                                   end - begin));
    } catch (...) {
      errors[static_cast<std::size_t>(g)] = std::current_exception();
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return batch.size();
}

core::FleetSnapshot FleetTree::snapshot(double now_s) const {
  PWX_SPAN("fleet.tree.snapshot");
  core::FleetSnapshot snap;
  std::vector<core::ShardDeltaRecord> records;
  records.reserve(total_shards());
  shard_deltas(now_s, records);
  for (const core::ShardDeltaRecord& rec : records) {
    core::fold_shard_delta(snap, rec);
  }
  return snap;
}

void FleetTree::shard_deltas(double now_s,
                             std::vector<core::ShardDeltaRecord>& out) const {
  for (const std::unique_ptr<core::FleetEstimator>& leaf : groups_) {
    leaf->shard_deltas(now_s, out);
  }
}

FleetDelta FleetTree::group_delta(std::uint32_t group, double now_s,
                                  std::uint64_t sequence) const {
  PWX_REQUIRE(group < groups_.size(), "unknown tree group ", group);
  return make_delta(*groups_[group], group,
                    static_cast<std::uint32_t>(groups_.size()), now_s,
                    sequence);
}

std::size_t FleetTree::node_count() const {
  std::size_t total = 0;
  for (const std::unique_ptr<core::FleetEstimator>& leaf : groups_) {
    total += leaf->node_count();
  }
  return total;
}

}  // namespace pwx::fleet
