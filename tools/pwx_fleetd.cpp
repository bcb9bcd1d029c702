// pwx-fleetd — multi-process fleet aggregation over the shard-delta wire
// format (fleet/delta.hpp).
//
// Three modes, together demonstrating (and smoke-testing) that aggregation
// across process boundaries is bit-identical to a single estimator:
//
//   Leaf:      pwx-fleetd --leaf I --leaves L [--shards S] [--nodes N]
//                         [--rounds R] --spool DIR
//     Runs a FleetEstimator over this leaf's slice of an N-node simulated
//     fleet — the slice the hash partition assigns it: a node belongs to
//     leaf I iff (name_hash(name) % (L*S)) / S == I, the same rule
//     fleet::FleetTree uses for its groups. Every round it batch-ingests
//     its nodes' samples and atomically publishes its encoded delta frame
//     to DIR/leaf-<I>.pwxd (write temp + rename, so the aggregator never
//     reads a torn frame).
//
//   Aggregate: pwx-fleetd --aggregate --spool DIR [--once] [--interval-s X]
//     Polls DIR for *.pwxd frames, decodes + validates each (corrupt frames
//     are reported with their byte offset; exit 3 under --once, matching
//     the pwx-trace-dump corruption contract), merges them with
//     DeltaMerger, and emits one {"event":"fleet",...} JSONL line per poll
//     with the merged snapshot and its FNV-1a semantic digest.
//
//   Flat:      pwx-fleetd --flat --leaves L [--shards S] [--nodes N]
//                         [--rounds R]
//     The reference: one FleetEstimator with L*S shards ingesting the whole
//     fleet, emitting the same JSONL line. Its digest must equal the
//     aggregator's over the same simulated rounds — the smoke test pins the
//     equality byte-for-byte.
//
// The simulated fleet is a pure function of (node index, round): every mode
// regenerates identical per-node sample streams with no shared state, which
// is exactly the situation of real leaf daemons watching disjoint node
// sets. Streams include deterministic fault injection (NaN counts) and
// nodes that stop reporting (staleness) so the merged snapshot exercises
// degraded/failed/stale accounting, not just happy-path sums.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "acquire/dataset.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"
#include "fleet/delta.hpp"

#include "cli.hpp"

namespace {

using namespace pwx;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --leaf I --leaves L --spool DIR [--shards S] [--nodes N]\n"
               "          [--rounds R]\n"
               "       %s --aggregate --spool DIR [--once] [--interval-s X]\n"
               "       %s --flat --leaves L [--shards S] [--nodes N] [--rounds R]\n",
               argv0, argv0, argv0);
  return 2;
}

// A small synthetic-trained model (the daemon serves the estimator; which
// model it serves is irrelevant to the aggregation contract). Deterministic,
// so every process builds the bit-identical model.
core::PowerModel fleet_model() {
  const std::vector<pmc::Preset> events{
      pmc::Preset::TOT_INS, pmc::Preset::L2_TCM, pmc::Preset::BR_MSP,
      pmc::Preset::RES_STL, pmc::Preset::FP_INS, pmc::Preset::L3_TCM,
  };
  Rng rng(0xF1EE7D);
  acquire::Dataset ds;
  for (std::size_t i = 0; i < 64; ++i) {
    acquire::DataRow row;
    row.workload = "synthetic";
    row.phase = "p" + std::to_string(i);
    row.frequency_ghz = 2.0 + 0.2 * static_cast<double>(i % 4);
    row.avg_voltage = 0.9 + 0.05 * static_cast<double>(i % 3);
    row.elapsed_s = 1.0;
    double power = 60.0;
    for (std::size_t e = 0; e < events.size(); ++e) {
      const double rate = (1.0 + rng.uniform()) * 1e8 * static_cast<double>(e + 1);
      row.counter_rates[events[e]] = rate;
      power += rate * 1e-8 * (0.5 + 0.1 * static_cast<double>(e));
    }
    row.avg_power_watts = power + rng.uniform();
    ds.append(row);
  }
  core::FeatureSpec spec;
  spec.events = events;
  return core::train_model(ds, spec);
}

// The simulated fleet: node `n`'s sample at `round` is a pure function of
// (n, round). Some nodes inject NaN counts (degraded health), some stop
// reporting after round 0 (staleness), some never report at all.
bool node_reports(std::size_t n, std::size_t round) {
  if (n % 10 == 3) {
    return false;  // interned but silent forever
  }
  if (n % 10 == 7) {
    return round == 0;  // goes stale after its first report
  }
  return true;
}

core::CounterSample sample_for(const core::PowerModel& model, std::size_t n,
                               std::size_t round) {
  core::CounterSample sample;
  sample.elapsed_s = 0.25;
  sample.frequency_ghz = 2.4;
  sample.voltage = 0.95 + 0.0001 * static_cast<double>(n % 512);
  double scale = 0.5 + 0.001 * static_cast<double>(n % 1024) +
                 0.01 * static_cast<double>(round);
  const bool faulty = (n * 7 + round) % 13 == 0;
  for (pmc::Preset p : model.spec().events) {
    sample.counts[p] =
        faulty ? std::numeric_limits<double>::quiet_NaN() : 2.5e7 * scale;
    scale *= 1.7;
  }
  return sample;
}

std::string digest_hex(const core::FleetSnapshot& snap) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(core::snapshot_digest(snap)));
  return std::string(buf);
}

void emit_fleet_line(const core::FleetSnapshot& snap, double t_s,
                     std::size_t leaves_present, std::size_t leaf_count) {
  Json line;
  line["event"] = "fleet";
  line["t_s"] = t_s;
  line["leaves"] = leaves_present;
  line["leaf_count"] = leaf_count;
  line["nodes_reporting"] = snap.nodes_reporting;
  line["nodes_stale"] = snap.nodes_stale;
  line["nodes_degraded"] = snap.nodes_degraded;
  line["nodes_failed"] = snap.nodes_failed;
  line["nodes_active"] = snap.nodes_active;
  line["nodes_interned"] = snap.nodes_interned;
  line["total_watts"] = snap.total_watts;
  if (!std::isnan(snap.min_node_watts)) {
    line["min_node_watts"] = snap.min_node_watts;
    line["max_node_watts"] = snap.max_node_watts;
  }
  line["digest"] = digest_hex(snap);
  std::cout << line.dump(-1) << "\n";
  std::cout.flush();
}

// Run the simulated fleet through one estimator covering leaves
// [leaf_begin, leaf_end) of an L-leaf partition. Leaf mode passes one leaf
// and publishes a frame per round; flat mode passes [0, L) and emits the
// reference snapshot line per round.
int run_estimator(std::uint32_t leaf_begin, std::uint32_t leaf_end,
                  std::uint32_t leaf_count, std::size_t shards,
                  std::size_t node_count, std::size_t rounds,
                  const std::string& spool) {
  const core::PowerModel model = fleet_model();
  core::FleetOptions options;
  // One leaf runs `shards` shards; the flat reference runs the whole
  // partition's L*S so its shard space matches the merged leaves exactly.
  options.shard_count = shards * (leaf_end - leaf_begin);
  core::FleetEstimator fleet(model, /*smoothing=*/0.0,
                             /*staleness_horizon_s=*/0.6, options);
  const std::uint64_t total_shards =
      static_cast<std::uint64_t>(shards) * leaf_count;

  // Intern this estimator's slice of the namespace (every provisioned node,
  // reporting or not), in global node order.
  struct SimNode {
    std::size_t index;
    core::NodeId id;
  };
  std::vector<SimNode> nodes;
  for (std::size_t n = 0; n < node_count; ++n) {
    const std::string name = "node" + std::to_string(n);
    const std::uint32_t leaf = static_cast<std::uint32_t>(
        (core::FleetEstimator::name_hash(name) % total_shards) / shards);
    if (leaf >= leaf_begin && leaf < leaf_end) {
      nodes.push_back(SimNode{n, fleet.intern(name)});
    }
  }

  std::vector<core::NodeSample> batch;
  core::DenseSample dense = fleet.layout().make_sample();
  for (std::size_t round = 0; round < rounds; ++round) {
    const double now_s = 0.25 * static_cast<double>(round + 1);
    batch.clear();
    for (const SimNode& node : nodes) {
      if (!node_reports(node.index, round)) {
        continue;
      }
      fleet.layout().to_dense_guarded(sample_for(model, node.index, round),
                                      dense);
      batch.push_back(core::NodeSample{node.id, now_s, dense});
    }
    fleet.ingest_batch(batch);

    if (!spool.empty()) {
      // Atomic publish: the aggregator either sees the previous complete
      // frame or this one, never a torn write.
      const fleet::FleetDelta delta = fleet::make_delta(
          fleet, leaf_begin, leaf_count, now_s, /*sequence=*/round + 1);
      const std::string encoded = fleet::encode_delta(delta);
      const std::filesystem::path path =
          std::filesystem::path(spool) /
          ("leaf-" + std::to_string(leaf_begin) + ".pwxd");
      const std::filesystem::path tmp = path.string() + ".tmp";
      {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", tmp.string().c_str());
          return 1;
        }
        out.write(encoded.data(),
                  static_cast<std::streamsize>(encoded.size()));
      }
      std::filesystem::rename(tmp, path);
    } else {
      emit_fleet_line(fleet.snapshot(now_s), now_s, leaf_count, leaf_count);
    }
  }
  if (!spool.empty()) {
    std::fprintf(stderr, "leaf %u published %zu rounds to %s\n", leaf_begin,
                 rounds, spool.c_str());
  }
  return 0;
}

int run_aggregate(const std::string& spool, bool once, double interval_s) {
  while (true) {
    fleet::DeltaMerger merger;
    std::vector<std::filesystem::path> frames;
    for (const auto& entry : std::filesystem::directory_iterator(spool)) {
      if (entry.path().extension() == ".pwxd") {
        frames.push_back(entry.path());
      }
    }
    std::sort(frames.begin(), frames.end());
    for (const std::filesystem::path& path : frames) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      const std::string frame = bytes.str();
      try {
        merger.add(fleet::decode_delta(frame));
      } catch (const IoError& e) {
        std::fprintf(stderr, "rejected %s: %s\n", path.string().c_str(),
                     e.what());
        if (once) {
          return 3;  // the trace-tool corruption exit code
        }
      }
    }
    if (merger.leaves_present() > 0) {
      emit_fleet_line(merger.merge(), merger.now_s(), merger.leaves_present(),
                      merger.leaf_count());
    } else {
      std::fprintf(stderr, "no frames in %s yet\n", spool.c_str());
    }
    if (once) {
      return merger.complete() ? 0 : (merger.leaves_present() > 0 ? 0 : 1);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.05, interval_s)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t leaf_index = 0;
  std::uint32_t leaf_count = 0;
  bool leaf_mode = false;
  bool flat_mode = false;
  bool aggregate_mode = false;
  bool once = false;
  std::size_t shards = 8;
  std::size_t node_count = 64;
  std::size_t rounds = 3;
  double interval_s = 1.0;
  std::string spool;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--leaf") {
      leaf_mode = true;
      if (!cli::parse_count(next(), leaf_index)) {
        return usage(argv[0]);
      }
    } else if (arg == "--leaves") {
      if (!cli::parse_count(next(), leaf_count)) {
        return usage(argv[0]);
      }
    } else if (arg == "--flat") {
      flat_mode = true;
    } else if (arg == "--aggregate") {
      aggregate_mode = true;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--shards") {
      if (!cli::parse_count(next(), shards)) {
        return usage(argv[0]);
      }
    } else if (arg == "--nodes") {
      if (!cli::parse_count(next(), node_count)) {
        return usage(argv[0]);
      }
    } else if (arg == "--rounds") {
      if (!cli::parse_count(next(), rounds)) {
        return usage(argv[0]);
      }
    } else if (arg == "--interval-s") {
      if (!cli::parse_real(next(), interval_s)) {
        return usage(argv[0]);
      }
    } else if (arg == "--spool") {
      spool = next();
    } else {
      return usage(argv[0]);
    }
  }

  try {
    if (aggregate_mode) {
      if (spool.empty()) {
        return usage(argv[0]);
      }
      return run_aggregate(spool, once, interval_s);
    }
    if (flat_mode) {
      if (leaf_count == 0 || shards == 0) {
        return usage(argv[0]);
      }
      return run_estimator(0, leaf_count, leaf_count, shards, node_count,
                           rounds, "");
    }
    if (leaf_mode) {
      if (leaf_count == 0 || leaf_index >= leaf_count || shards == 0 ||
          spool.empty()) {
        return usage(argv[0]);
      }
      std::filesystem::create_directories(spool);
      return run_estimator(leaf_index, leaf_index + 1, leaf_count, shards,
                           node_count, rounds, spool);
    }
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
