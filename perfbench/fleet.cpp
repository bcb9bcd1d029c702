// `fleet`: run-time estimation over a fleet, modelled on pwx-fleetd. A
// FleetTree of 4 groups x 4 shards (groups ingested in parallel) holds 16k
// interned nodes. One job is one tick: about 13k reporting nodes' counter
// samples go through ModelLayout::to_dense_guarded and
// FleetTree::ingest_batch (batched Eq. 1 and the guarded fold); then each
// group's delta is encoded, every frame is decoded and merged, and the tree
// takes its own snapshot. The merged digest must equal the snapshot's.
//
// The stream follows pwx-fleetd's pattern: 10% of nodes never report, 10% go
// stale after the first tick, and ~1% of samples carry NaN counts, which the
// guarded path must hold rather than fail on. Counter readings are generated
// in setup, so the generator is never timed.
//
// The fleet is sized so that a tick's data (one reading per node, the dense
// batch and the node state) stays close to a core's L2: on a shared host,
// memory-bound ticks slow down by up to 2x for seconds at a time whenever
// neighbours load the memory system, and a 30 s run does not average that
// away.
#include <array>
#include <deque>
#include <iostream>
#include <limits>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"
#include "fleet/delta.hpp"
#include "fleet/tree.hpp"
#include "stats/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pwx;

namespace {

constexpr std::size_t kNodes = 16'000;
constexpr std::size_t kGroups = 4;
constexpr std::size_t kShardsPerGroup = 4;
constexpr double kTickS = 0.25;
constexpr double kStalenessHorizonS = 0.6;  // a node missing two ticks is stale

const std::vector<pmc::Preset> kEvents{
    pmc::Preset::TOT_INS, pmc::Preset::L2_TCM, pmc::Preset::BR_MSP,
    pmc::Preset::RES_STL, pmc::Preset::FP_INS, pmc::Preset::L3_TCM,
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

/// The node model the fleet serves: Eq. 1 fit on a fixed synthetic
/// calibration set (as pwx-fleetd does), with a holdout for its MAPE. The
/// workload seed varies the sample stream, not the model.
struct ServedModel {
  core::PowerModel model;
  double holdout_mape_pct = 0.0;
};

ServedModel train_fleet_model() {
  Rng rng(0xF1EE7D);
  acquire::Dataset ds;
  for (std::size_t i = 0; i < 256; ++i) {
    acquire::DataRow row;
    row.workload = "synthetic";
    row.phase = "p" + std::to_string(i);
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.avg_voltage = 0.75 + 0.05 * static_cast<double>(i % 7);
    row.elapsed_s = 1.0;
    double power = 60.0 + 25.0 * row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    for (std::size_t e = 0; e < kEvents.size(); ++e) {
      const double rate = (1.0 + rng.uniform()) * 1e8 * static_cast<double>(e + 1);
      row.counter_rates[kEvents[e]] = rate;
      power += rate * 1e-8 * (0.5 + 0.1 * static_cast<double>(e));
    }
    row.avg_power_watts = power * (1.0 + 0.04 * (rng.uniform() - 0.5));
    ds.append(row);
  }
  const acquire::HoldoutSplit split = acquire::split_holdout(ds, 0.25, 0x5EED);
  core::FeatureSpec spec;
  spec.events = kEvents;
  ServedModel served{core::train_model(split.train, spec), 0.0};
  served.holdout_mape_pct =
      stats::mape(split.holdout.power(), served.model.predict(split.holdout));
  return served;
}

/// The readings of one tick: which nodes report, and what. The steady ticks
/// share their valid readings and differ only in which nodes send NaN
/// counts, so alternating between them touches no more memory than one.
struct TickInput {
  std::vector<std::uint32_t> nodes;
  std::vector<const core::CounterSample*> samples;
};

class Fleet final : public Workload {
public:
  explicit Fleet(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    tree_.reset();
    served_ = train_fleet_model();

    fleet::TreeOptions options;
    options.group_count = kGroups;
    options.shards_per_group = kShardsPerGroup;
    options.parallel = true;
    tree_ = std::make_unique<fleet::FleetTree>(served_.model, 0.0, kStalenessHorizonS,
                                               options);
    ids_.resize(kNodes);
    for (std::size_t n = 0; n < kNodes; ++n) {
      ids_[n] = tree_->intern("node" + std::to_string(n));
    }

    make_inputs();
    batch_.resize(inputs_.front().nodes.size());
    for (fleet::TreeSample& slot : batch_) {
      slot.sample.sample = tree_->layout().make_sample();
    }
    tick_ = 0;
  }

  JobOutcome job() override { return tick(nullptr); }
  JobOutcome traced_job(SpanRecorder& spans) override { return tick(&spans); }

  void verify(Checks& checks) override {
    // The reference: one flat 16-shard estimator fed the same stream must
    // end on the tree's last digest. Its samples are converted once per
    // distinct reading; only the fleet time changes from tick to tick.
    if (tick_ == 0) {
      return;
    }
    core::FleetOptions options;
    options.shard_count = kGroups * kShardsPerGroup;
    options.parallel_ingest = true;
    core::FleetEstimator flat(served_.model, 0.0, kStalenessHorizonS, options);
    std::vector<core::NodeId> flat_ids(kNodes);
    for (std::size_t n = 0; n < kNodes; ++n) {
      flat_ids[n] = flat.intern("node" + std::to_string(n));
    }
    std::vector<std::vector<core::NodeSample>> batches;
    for (const TickInput& input : inputs_) {
      std::vector<core::NodeSample>& batch = batches.emplace_back(input.nodes.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].node = flat_ids[input.nodes[i]];
        batch[i].sample = flat.layout().make_sample();
        flat.layout().to_dense_guarded(*input.samples[i], batch[i].sample);
      }
    }
    for (std::size_t t = 0; t < tick_; ++t) {
      std::vector<core::NodeSample>& batch = batches[input_index(t)];
      for (core::NodeSample& sample : batch) {
        sample.now_s = now_s(t);
      }
      flat.ingest_batch(batch);
    }
    const std::uint64_t reference = core::snapshot_digest(flat.snapshot(now_s(tick_ - 1)));
    checks.record("flat 16-shard estimator reproduces the tree", reference == last_digest_,
                  "flat " + hex64(reference) + " vs tree " + hex64(last_digest_));
    std::cout << "reference: " << tick_ << " ticks, last digest " << hex64(last_digest_)
              << "\n";
  }

  double samples_per_job() const override {
    return static_cast<double>(inputs_.at(1).nodes.size());
  }
  double model_mape_pct() const override { return served_.holdout_mape_pct; }

  std::map<std::string, double> layer_counts() const override {
    const double ticks = traced_ticks_ == 0 ? 1.0 : static_cast<double>(traced_ticks_);
    return {{"fleet.samples", traced_.samples / ticks},
            {"fleet.nodes_degraded", traced_.degraded / ticks},
            {"fleet.nodes_stale", traced_.stale / ticks},
            {"fleet.frame_bytes", traced_.frame_bytes / ticks}};
  }

private:
  /// Node hash `h`'s reading at load `level`, with NaN counts if `faulty`.
  static core::CounterSample reading(std::uint64_t h, std::size_t level, bool faulty) {
    core::CounterSample sample;
    sample.elapsed_s = kTickS;
    sample.frequency_ghz = 1.2 + 0.35 * static_cast<double>((h >> 8) % 5);
    sample.voltage = 0.75 + 0.0005 * static_cast<double>((h >> 16) % 512);
    double scale = (0.5 + 0.001 * static_cast<double>((h >> 32) % 1000)) *
                   (1.0 + 0.05 * static_cast<double>(level));
    for (const pmc::Preset p : kEvents) {
      sample.counts[p] = faulty ? std::numeric_limits<double>::quiet_NaN() : 2.5e7 * scale;
      scale *= 1.7;
    }
    return sample;
  }

  static bool faulty(std::uint64_t h, std::size_t variant) { return mix(h, variant) % 100 == 0; }

  /// Tick 0 reads every node but the silent ones; later ticks alternate
  /// between two steady inputs without the nodes that went stale. Each pass
  /// allocates its readings in node order, so a tick reads memory in order.
  void make_inputs() {
    readings_.clear();
    inputs_.assign(3, TickInput{});
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      const std::uint64_t h = mix(seed_, n);
      if (h % 100 >= 10) {  // 10% are silent forever
        inputs_[0].nodes.push_back(n);
        inputs_[0].samples.push_back(&readings_.emplace_back(reading(h, 0, faulty(h, 0))));
      }
    }
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      const std::uint64_t h = mix(seed_, n);
      if (h % 100 < 20) {
        continue;  // silent, or stale after tick 0
      }
      const core::CounterSample& steady = readings_.emplace_back(reading(h, 1, false));
      for (std::size_t variant = 1; variant < 3; ++variant) {
        inputs_[variant].nodes.push_back(n);
        inputs_[variant].samples.push_back(
            faulty(h, variant) ? &readings_.emplace_back(reading(h, 1, true)) : &steady);
      }
    }
  }

  static std::size_t input_index(std::size_t tick) {
    return tick == 0 ? 0 : 1 + (tick + 1) % 2;
  }
  static double now_s(std::size_t tick) { return kTickS * static_cast<double>(tick + 1); }

  JobOutcome tick(SpanRecorder* spans) {
    const TickInput& input = inputs_[input_index(tick_)];
    const double now = now_s(tick_);
    const std::size_t count = input.nodes.size();
    std::array<std::string, kGroups> frames;
    core::FleetSnapshot merged;
    core::FleetSnapshot snap;
    bool complete = false;

    const std::int64_t start = now_ns();
    {
      const Span job(spans, "job");
      {
        const Span span(spans, "core.dense_convert");
        const core::ModelLayout& layout = tree_->layout();
        for (std::size_t i = 0; i < count; ++i) {
          const fleet::TreeNodeId id = ids_[input.nodes[i]];
          fleet::TreeSample& slot = batch_[i];
          slot.group = id.group;
          slot.sample.node = id.local;
          slot.sample.now_s = now;
          layout.to_dense_guarded(*input.samples[i], slot.sample.sample);
        }
      }
      {
        const Span span(spans, "fleet.ingest");
        tree_->ingest_batch(std::span<const fleet::TreeSample>(batch_.data(), count));
      }
      {
        const Span span(spans, "fleet.delta");
        for (std::uint32_t g = 0; g < kGroups; ++g) {
          frames[g] = fleet::encode_delta(tree_->group_delta(g, now, tick_ + 1));
        }
      }
      {
        const Span span(spans, "fleet.decode_merge");
        fleet::DeltaMerger merger;
        for (const std::string& frame : frames) {
          merger.add(fleet::decode_delta(frame));
        }
        merged = merger.merge();
        complete = merger.complete();
      }
      const Span span(spans, "fleet.snapshot");
      snap = tree_->snapshot(now);
    }
    const double ms = static_cast<double>(now_ns() - start) / 1e6;

    const std::uint64_t digest = core::snapshot_digest(snap);
    last_digest_ = digest;
    if (spans != nullptr) {
      ++traced_ticks_;
      traced_.samples += static_cast<double>(count);
      traced_.degraded += static_cast<double>(snap.nodes_degraded);
      traced_.stale += static_cast<double>(snap.nodes_stale);
      for (const std::string& frame : frames) {
        traced_.frame_bytes += static_cast<double>(frame.size());
      }
    }
    const std::size_t tick = tick_++;
    if (!complete || core::snapshot_digest(merged) != digest) {
      return {ms, false,
              "tick " + std::to_string(tick) + ": merged deltas " +
                  hex64(core::snapshot_digest(merged)) + " vs snapshot " + hex64(digest)};
    }
    return {ms, true, {}};
  }

  std::uint64_t seed_;
  ServedModel served_;
  std::unique_ptr<fleet::FleetTree> tree_;
  std::vector<fleet::TreeNodeId> ids_;
  std::deque<core::CounterSample> readings_;  ///< owns what inputs_ points to
  std::vector<TickInput> inputs_;
  std::vector<fleet::TreeSample> batch_;
  std::size_t tick_ = 0;
  std::uint64_t last_digest_ = 0;  ///< the latest tick's snapshot digest
  std::size_t traced_ticks_ = 0;
  struct {
    double samples = 0, degraded = 0, stale = 0, frame_bytes = 0;
  } traced_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(std::uint64_t seed) {
  return std::make_unique<Fleet>(seed);
}

}  // namespace perfbench
