// pwx-monitor — live power estimation with telemetry streaming.
//
// Trains the paper's model once, then streams a (simulated) counter source
// through the guarded online estimator, emitting one JSON line per sample
// (estimate, measured reference, health) interleaved with periodic
// obs::TelemetrySink metric snapshots. With --faults the source is wrapped
// in the seeded chaos decorator and hardened by RobustCounterSource, so the
// exported metrics show retries, clamps, and health transitions live.
//
// Usage:
//   pwx-monitor [--workload NAME] [--threads N] [--samples N]
//               [--interval-s X] [--format jsonl|prometheus|table]
//               [--faults SEED [--intensity X]] [--no-robust]
//               [--log-json] [--fleet N]
//               [--trace] [--trace-replay FILE]
//
// With --trace a structured tracing session (obs/trace.hpp) runs for the
// whole stream: every sample is wrapped in a "monitor.sample" root span,
// drained span records stream to stdout as {"event":"span",...} JSONL
// interleaved with the estimate lines, and a per-span latency attribution
// table (total/self time per span name) lands on stderr at the end.
// --trace-replay FILE skips the live stream entirely: it parses a recorded
// span JSONL file (e.g. a --trace capture) and prints the same attribution
// table to stdout, for offline "which stage owns the latency" analysis.
//
// With --fleet N the tool monitors N simulated nodes (each a different
// physical part running the same workload) through one sharded
// FleetEstimator: every round all node samples are ingested as one batch
// and a "fleet" JSON line carries the aggregate snapshot instead of the
// per-sample "estimate" lines. Default behavior (no --fleet) is unchanged.
//
// Time is stream time (the sum of sample intervals), not wall time, so the
// output is deterministic for a given seed and replays faithfully in tests.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "acquire/campaign.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/estimator.hpp"
#include "core/fleet.hpp"
#include "core/health.hpp"
#include "core/model.hpp"
#include "core/robust_source.hpp"
#include "core/selection.hpp"
#include "fault/fault.hpp"
#include "host/faulty_source.hpp"
#include "host/sim_source.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sim/engine.hpp"
#include "workloads/registry.hpp"

#include "cli.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME] [--threads N] [--samples N]\n"
               "          [--interval-s X] [--format jsonl|prometheus|table]\n"
               "          [--faults SEED [--intensity X]] [--no-robust]\n"
               "          [--log-json] [--fleet N]\n"
               "          [--trace] [--trace-replay FILE] [--aggregate FILE]\n",
               argv0);
  return 2;
}

// Aggregate replay: render the merged-snapshot JSONL an aggregator
// (pwx-fleetd --aggregate) emits, so the live-monitor workflow covers
// multi-process fleets. One human-readable line per fleet snapshot plus a
// trailing summary; non-fleet events interleaved in the stream are skipped.
// A fleet line must carry every field pwx-fleetd writes, counts as integers
// in [0, 2^53] and finite t_s/total_watts; anything else throws an IoError
// naming the 1-based line.
int run_aggregate_replay(const char* path) {
  using pwx::Json;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open aggregate file '%s'\n", path);
    return 1;
  }
  std::size_t snapshots = 0;
  std::size_t line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    const auto error = [&](const std::string& what) {
      return pwx::IoError("aggregate file '" + std::string(path) + "' line " +
                          std::to_string(line_no) + ": " + what);
    };
    Json event;
    try {
      event = Json::parse(line);
    } catch (const pwx::Error& e) {
      throw error(e.what());
    }
    const Json* kind = event.find("event");
    if (kind == nullptr || kind->type() != Json::Type::String ||
        kind->as_string() != "fleet") {
      continue;
    }
    const auto field = [&](const char* key, Json::Type type) -> const Json& {
      const Json* value = event.find(key);
      if (value == nullptr || value->type() != type) {
        throw error(std::string("missing or mistyped field '") + key + "'");
      }
      return *value;
    };
    const auto count = [&](const char* key) {
      constexpr double kMaxCount = 9007199254740992.0;  // 2^53
      const double n = field(key, Json::Type::Number).as_number();
      if (!(n >= 0.0 && n <= kMaxCount) || n != std::floor(n)) {
        throw error(std::string(key) + " must be an integer in [0, 2^53]");
      }
      return static_cast<std::size_t>(n);
    };
    const auto finite = [&](const char* key) {
      const double x = field(key, Json::Type::Number).as_number();
      if (!std::isfinite(x)) {
        throw error(std::string(key) + " must be finite");
      }
      return x;
    };
    const double t_s = finite("t_s");
    const std::size_t leaves = count("leaves");
    const std::size_t leaf_count = count("leaf_count");
    const std::size_t reporting = count("nodes_reporting");
    const std::size_t stale = count("nodes_stale");
    const std::size_t degraded = count("nodes_degraded");
    const std::size_t failed = count("nodes_failed");
    count("nodes_active");
    count("nodes_interned");
    const double total_watts = finite("total_watts");
    const std::string& digest = field("digest", Json::Type::String).as_string();
    snapshots += 1;
    std::printf(
        "t=%.3fs leaves=%zu/%zu reporting=%zu stale=%zu degraded=%zu "
        "failed=%zu total=%.3fW [digest %s]\n",
        t_s, leaves, leaf_count, reporting, stale, degraded, failed, total_watts,
        digest.c_str());
  }
  std::printf("aggregated %zu fleet snapshots from %s\n", snapshots, path);
  return snapshots > 0 ? 0 : 1;
}

// Offline replay: parse a recorded span JSONL stream and print the latency
// attribution table. The input may interleave non-span events (metrics
// lines from a --trace capture); the parser skips them.
int run_trace_replay(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open trace file '%s'\n", path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::vector<pwx::obs::SpanRecord> records =
      pwx::obs::parse_span_jsonl(text.str());
  std::fprintf(stderr, "replayed %zu spans from %s\n", records.size(), path);
  pwx::obs::print_attribution_table(pwx::obs::attribute_latency(records),
                                    std::cout);
  return 0;
}

// Stream freshly drained span records as JSONL and keep them for the final
// attribution table.
void drain_spans(std::vector<pwx::obs::SpanRecord>& all) {
  for (pwx::obs::SpanRecord& record : pwx::obs::tracer().drain()) {
    std::cout << pwx::obs::span_to_jsonl_line(record) << "\n";
    all.push_back(std::move(record));
  }
}

// Fleet mode: N simulated nodes through one FleetEstimator, one batch
// ingest and one snapshot line per telemetry round.
int run_fleet(pwx::core::PowerModel model, std::size_t fleet_nodes,
              const pwx::workloads::Workload& workload, std::size_t threads,
              std::size_t max_rounds, pwx::obs::TelemetrySink& sink) {
  using namespace pwx;
  core::FleetOptions options;
  options.shard_count = 8;
  core::FleetEstimator fleet(std::move(model), /*smoothing=*/0.3,
                             /*staleness_horizon_s=*/5.0, options);

  struct Node {
    core::NodeId id;
    host::SimulatedCounterSource source;
  };
  std::vector<Node> nodes;
  nodes.reserve(fleet_nodes);
  for (std::size_t n = 0; n < fleet_nodes; ++n) {
    const sim::Engine engine = sim::Engine::haswell_ep(0x2000 + n);
    sim::RunConfig rc;
    rc.threads = threads;
    rc.interval_s = 0.25;
    rc.seed = 2026 + n;
    host::SimulatedCounterSource source(engine, workload, rc);
    nodes.push_back(Node{fleet.intern("node" + std::to_string(n)), std::move(source)});
  }
  for (Node& node : nodes) {
    node.source.start(fleet.model().spec().events);
  }

  double stream_t = 0.0;
  std::size_t rounds = 0;
  std::vector<core::NodeSample> batch;
  core::DenseSample dense = fleet.layout().make_sample();
  while (max_rounds == 0 || rounds < max_rounds) {
    batch.clear();
    double interval = 0.0;
    for (Node& node : nodes) {
      if (const auto sample = node.source.read()) {
        fleet.layout().to_dense_guarded(*sample, dense);
        batch.push_back(core::NodeSample{node.id, stream_t, dense});
        interval = sample->elapsed_s;
      }
    }
    if (batch.empty()) {
      break;
    }
    fleet.ingest_batch(batch);
    stream_t += interval;
    rounds += 1;

    const core::FleetSnapshot snap = fleet.snapshot(stream_t);
    Json line;
    line["event"] = "fleet";
    line["t_s"] = stream_t;
    line["nodes_reporting"] = snap.nodes_reporting;
    line["nodes_stale"] = snap.nodes_stale;
    line["nodes_degraded"] = snap.nodes_degraded;
    line["nodes_failed"] = snap.nodes_failed;
    line["total_watts"] = snap.total_watts;
    if (!std::isnan(snap.min_node_watts)) {
      line["min_node_watts"] = snap.min_node_watts;
      line["max_node_watts"] = snap.max_node_watts;
    }
    std::cout << line.dump(-1) << "\n";
    sink.maybe_flush(stream_t);
  }
  sink.flush(stream_t);
  log_message(LogLevel::Info, "fleet stream finished",
              {{"nodes", std::to_string(fleet_nodes)},
               {"rounds", std::to_string(rounds)},
               {"stream_seconds", format_double(stream_t, 2)}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pwx;

  std::string workload_name = "mgrid331";
  std::size_t threads = 24;
  std::size_t max_samples = 0;  // 0 = drain the stream
  double interval_s = 1.0;
  obs::ExportFormat format = obs::ExportFormat::Jsonl;
  std::optional<std::uint64_t> fault_seed;
  double intensity = 1.0;
  bool robust = true;
  bool trace = false;
  const char* trace_replay = nullptr;
  const char* aggregate_file = nullptr;
  std::size_t fleet_nodes = 0;  // 0 = single-node mode

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = next();
    } else if (arg == "--threads") {
      if (!cli::parse_count(next(), threads)) {
        return usage(argv[0]);
      }
    } else if (arg == "--samples") {
      if (!cli::parse_count(next(), max_samples)) {
        return usage(argv[0]);
      }
    } else if (arg == "--interval-s") {
      if (!cli::parse_real(next(), interval_s)) {
        return usage(argv[0]);
      }
    } else if (arg == "--format") {
      const std::string v = next();
      if (v == "jsonl") {
        format = obs::ExportFormat::Jsonl;
      } else if (v == "prometheus") {
        format = obs::ExportFormat::Prometheus;
      } else if (v == "table") {
        format = obs::ExportFormat::Table;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--faults") {
      std::uint64_t seed = 0;
      if (!cli::parse_count(next(), seed, /*base=*/0)) {
        return usage(argv[0]);
      }
      fault_seed = seed;
    } else if (arg == "--intensity") {
      if (!cli::parse_real(next(), intensity)) {
        return usage(argv[0]);
      }
    } else if (arg == "--no-robust") {
      robust = false;
    } else if (arg == "--log-json") {
      set_log_format(LogFormat::Json);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-replay") {
      trace_replay = next();
    } else if (arg == "--aggregate") {
      aggregate_file = next();
    } else if (arg == "--fleet") {
      if (!cli::parse_count(next(), fleet_nodes)) {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }

  try {
    if (trace_replay != nullptr) {
      return run_trace_replay(trace_replay);
    }
    if (aggregate_file != nullptr) {
      return run_aggregate_replay(aggregate_file);
    }

    obs::set_enabled(true);
    std::vector<obs::SpanRecord> recorded;
    if (trace) {
      obs::TracerConfig tracer_config;
      tracer_config.ring_capacity = 8192;
      obs::tracer().start(tracer_config);
    }

    const auto workload = workloads::find_workload(workload_name);
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
      return 1;
    }

    log_message(LogLevel::Info, "training model",
                {{"workload", workload_name}, {"threads", std::to_string(threads)}});
    core::SelectionOptions opt;
    opt.count = 6;
    opt.max_mean_vif = 8.0;
    core::FeatureSpec spec;
    spec.events = core::select_events(acquire::standard_selection_dataset(),
                                      pmc::haswell_ep_available_events(), opt)
                      .selected();
    core::PowerModel model =
        core::train_model(acquire::standard_training_dataset(), spec);

    if (fleet_nodes > 0) {
      obs::TelemetrySinkConfig sink_config;
      sink_config.interval_s = interval_s;
      sink_config.format = format;
      obs::TelemetrySink sink(std::cout, sink_config);
      const int rc = run_fleet(std::move(model), fleet_nodes, *workload,
                               threads, max_samples, sink);
      if (trace) {
        drain_spans(recorded);
        obs::tracer().stop();
        obs::print_attribution_table(obs::attribute_latency(recorded),
                                     std::cerr);
      }
      return rc;
    }

    core::OnlineEstimator estimator(std::move(model), /*smoothing=*/0.3);

    const sim::Engine machine = sim::Engine::haswell_ep();
    sim::RunConfig rc;
    rc.threads = threads;
    rc.interval_s = 0.25;
    rc.seed = 2026;
    host::SimulatedCounterSource sim_source(machine, *workload, rc);

    core::CounterSource* source = &sim_source;
    std::unique_ptr<host::FaultyCounterSource> chaos;
    if (fault_seed.has_value()) {
      chaos = std::make_unique<host::FaultyCounterSource>(
          *source, fault::FaultPlan::escalating(*fault_seed, intensity));
      source = chaos.get();
      log_message(LogLevel::Info, "fault injection armed",
                  {{"seed", std::to_string(*fault_seed)},
                   {"intensity", format_double(intensity, 3)}});
    }
    std::unique_ptr<core::RobustCounterSource> hardened;
    if (robust) {
      hardened = std::make_unique<core::RobustCounterSource>(*source);
      source = hardened.get();
    }
    source->start(estimator.required_events());

    obs::TelemetrySinkConfig sink_config;
    sink_config.interval_s = interval_s;
    sink_config.format = format;
    obs::TelemetrySink sink(std::cout, sink_config);

    double stream_t = 0.0;
    std::size_t produced = 0;
    while (max_samples == 0 || produced < max_samples) {
      std::optional<core::CounterSample> sample;
      double estimate = 0.0;
      {
        // Root span per sample: the guarded estimate (and any health
        // transitions it causes) become its children in the trace.
        PWX_SPAN("monitor.sample");
        sample = source->read();
        if (sample.has_value()) {
          estimate = estimator.estimate_guarded(*sample);
          obs::span_attr("watts", estimate);
        }
      }
      if (!sample.has_value()) {
        break;
      }
      stream_t += sample->elapsed_s;
      produced += 1;

      Json line;
      line["event"] = "estimate";
      line["t_s"] = stream_t;
      line["watts"] = estimate;
      line["measured_watts"] = sim_source.last_interval_power();
      line["health"] = std::string(core::health_name(estimator.health()));
      if (hardened) {
        line["source_health"] =
            std::string(core::health_name(hardened->health()));
      }
      std::cout << line.dump(-1) << "\n";
      if (trace) {
        drain_spans(recorded);
      }
      sink.maybe_flush(stream_t);
    }
    sink.flush(stream_t);
    if (trace) {
      drain_spans(recorded);
      obs::tracer().stop();
      obs::print_attribution_table(obs::attribute_latency(recorded),
                                   std::cerr);
    }

    log_message(LogLevel::Info, "stream finished",
                {{"samples", std::to_string(produced)},
                 {"stream_seconds", format_double(stream_t, 2)},
                 {"flushes", std::to_string(sink.flushes())}});
    if (chaos) {
      for (const auto& [kind, count] : chaos->injected()) {
        log_message(LogLevel::Info, "fault injected",
                    {{"kind", kind}, {"count", std::to_string(count)}});
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
