// Fleet-scale estimation (the paper's outlook: peta/exa-scale application).
//
// Simulates a small cluster of dual-socket Haswell-EP nodes — each a
// different physical part (own sensor calibration and VID offsets) — running
// a mixed workload, and drives all nodes' counter streams through one
// FleetEstimator built from a single node-trained model. Compares the
// estimated rack power against the simulated reference measurement, i.e.
// quantifies how well a node model transfers to a fleet.
//
// Build & run:  ./build/examples/cluster_estimation [nodes]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "acquire/campaign.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "host/sim_source.hpp"
#include "sim/engine.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace pwx;
  const std::size_t node_count = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;

  std::puts("training the node model on the standard campaign ...");
  core::SelectionOptions opt;
  opt.count = 6;
  opt.max_mean_vif = 8.0;
  core::FeatureSpec spec;
  spec.events = core::select_events(acquire::standard_selection_dataset(),
                                    pmc::haswell_ep_available_events(), opt)
                    .selected();
  const core::PowerModel model =
      core::train_model(acquire::standard_training_dataset(), spec);
  core::FleetEstimator fleet(model, /*smoothing=*/0.2, /*staleness_horizon_s=*/5.0);

  // One engine per node: a different part each (machine seed), running a
  // node-specific workload at a node-specific operating point.
  const std::vector<workloads::Workload> all = workloads::all_workloads();
  struct Node {
    core::NodeId id;
    host::SimulatedCounterSource source;
  };
  std::vector<Node> nodes;
  nodes.reserve(node_count);
  const std::vector<double> freqs{2.0, 2.4, 2.6};
  for (std::size_t n = 0; n < node_count; ++n) {
    const sim::Engine engine = sim::Engine::haswell_ep(0x1000 + n);
    sim::RunConfig rc;
    rc.frequency_ghz = freqs[n % freqs.size()];
    rc.threads = 24;
    rc.interval_s = 0.5;
    rc.duration_scale = 0.4;
    rc.seed = 77 + n;
    const workloads::Workload& workload = all[(n * 5 + 2) % all.size()];
    host::SimulatedCounterSource source(engine, workload, rc);
    std::printf("  node%02zu: %-12s @ %.1f GHz\n", n, workload.name.c_str(),
                rc.frequency_ghz);
    // Intern once at node discovery; the telemetry loop is handle-based.
    nodes.push_back(Node{fleet.intern("node" + std::to_string(n)), std::move(source)});
  }
  for (Node& node : nodes) {
    node.source.start(model.spec().events);
  }

  std::puts("\n  t[s]   nodes  est. total [W]  true total [W]  error");
  double now = 0.0;
  bool any = true;
  std::vector<core::NodeSample> batch;
  core::DenseSample dense = fleet.layout().make_sample();
  while (any) {
    any = false;
    double true_total = 0.0;
    batch.clear();
    // Collect one telemetry round, then ingest it as a single batch — one
    // lock acquisition per shard instead of one per sample.
    for (Node& node : nodes) {
      if (const auto sample = node.source.read()) {
        fleet.layout().to_dense_guarded(*sample, dense);
        batch.push_back(core::NodeSample{node.id, now, dense});
        true_total += node.source.last_interval_power();
        any = true;
      }
    }
    if (!any) {
      break;
    }
    fleet.ingest_batch(batch);
    now += 0.5;
    const core::FleetSnapshot snap = fleet.snapshot(now);
    std::printf("  %5.1f  %5zu  %14.1f  %14.1f  %+5.1f%%\n", now,
                snap.nodes_reporting, snap.total_watts, true_total,
                100.0 * (snap.total_watts - true_total) / true_total);
  }

  const core::FleetSnapshot final_snap = fleet.snapshot(now);
  if (std::isnan(final_snap.min_node_watts)) {
    std::puts("\nfinal fleet spread: no node reporting");
  } else {
    std::printf("\nfinal fleet spread: min node %.1f W, max node %.1f W\n",
                final_snap.min_node_watts, final_snap.max_node_watts);
  }
  return 0;
}
