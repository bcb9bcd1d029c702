// pwx-ingestd — incremental trace-ingestion daemon.
//
// Watches a directory of OTF2-lite trace files and keeps a merged
// phase-profile table current as calibration runs land: each poll ingests
// only new or changed files (through trace::MappedTraceFile::open, which
// maps or reads each file by size) and republishes the merged table, which
// is bit-identical to a cold batch over the same files (see
// trace/incremental.hpp).
//
// With --refresh the daemon additionally runs the self-healing serving loop
// (src/serve): it bootstraps a power model from the first ingested corpus,
// serves every republished row through an epoch-bound OnlineEstimator, feeds
// the (estimate, measured power) residuals to a DriftMonitor, and lets the
// Supervisor retrain + validate + hot-swap the model when drift persists.
// All lifecycle decisions land in the serve.* obs counters.
//
// Usage:
//   pwx-ingestd <directory> [options]
//
//   --once              one poll, print the table, exit (CI / cron mode)
//   --interval <s>      seconds between polls (default 1.0)
//   --polls <n>         stop after n polls (default: run until killed)
//   --no-verify         defer checksum verification
//   --quiet             suppress the per-republish profile table
//   --metrics           print the obs metric table on exit
//   --refresh           enable drift detection + guarded retrain + hot-swap
//   --refresh-window <n>   drift window size in samples (default 32)
//   --refresh-mape <pct>   per-window MAPE breach threshold (default 5)
//   --trace-out <file>  record a structured span trace of the whole run and
//                       write it as Chrome trace-event JSON (load the file
//                       in Perfetto / chrome://tracing) on exit
//   --trace-sample <n>  record 1-in-n traces while tracing (default 1)
//   --flight-recorder <file>  arm the black-box flight recorder; recent
//                       spans/logs/metric deltas are dumped to <file> on
//                       guarded-estimate degradation, refresh rejection,
//                       trace-IO corruption, SIGUSR1, or shutdown
//
// SIGINT/SIGTERM request a graceful shutdown: the in-flight poll finishes
// and republishes, the last partial drift window is closed, and a final
// TelemetrySink JSONL flush goes to stderr (plus a flight-recorder dump
// when armed) so no tail-of-run state is ever lost; the daemon exits 0.
// SIGUSR1 triggers an on-demand flight-recorder dump without stopping.
//
// Exit codes: 0 ok (including signal-requested shutdown), 1 generic error,
// 2 usage. Ingestion failures of individual files are not fatal: the daemon
// reports them on stderr, keeps the file quarantined until it changes, and
// publishes the rest.
//
// Telemetry: ingestd.files_ingested / files_failed / bytes_mapped /
// bytes_copied / republishes counters and the ingestd.republish_seconds
// latency histogram, plus the serve.* lifecycle counters in --refresh mode,
// all in the process-wide pwx::obs registry.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/epoch.hpp"
#include "core/estimator.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "serve/supervisor.hpp"
#include "trace/incremental.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace pwx;

/// Set by the SIGINT/SIGTERM handler; the poll loop finishes its in-flight
/// republish, flushes metrics, and exits 0.
volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

/// Set by SIGUSR1: the poll loop triggers an on-demand flight dump.
volatile std::sig_atomic_t g_dump = 0;

void handle_dump_signal(int) { g_dump = 1; }

void print_profiles(const std::vector<trace::PhaseProfile>& profiles) {
  TablePrinter table({"workload", "phase", "f [GHz]", "threads", "elapsed [s]",
                      "avg power [W]", "runs"});
  for (const trace::PhaseProfile& p : profiles) {
    table.row({p.workload, p.phase, format_double(p.frequency_ghz, 2),
               std::to_string(p.threads), format_double(p.elapsed_s, 3),
               format_double(p.avg_power_watts, 2), std::to_string(p.runs_merged)});
  }
  table.print(std::cout);
}

/// Interruptible sleep: returns early when a stop or dump signal arrives.
void sleep_interruptible(double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (g_stop == 0 && g_dump == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

/// A profile row as the estimator sees it: counts reconstructed from the
/// per-second rates over the profiled interval.
core::CounterSample sample_from_row(const acquire::DataRow& row) {
  core::CounterSample sample;
  sample.elapsed_s = row.elapsed_s;
  sample.frequency_ghz = row.frequency_ghz;
  sample.voltage = row.avg_voltage;
  for (const auto& [preset, rate] : row.counter_rates) {
    sample.counts[preset] = rate * row.elapsed_s;
  }
  return sample;
}

/// The self-healing serving loop around one IncrementalCampaign: an
/// epoch-bound estimator replays every republished row, and the Supervisor
/// watches the residuals against the measured power.
class RefreshLoop {
public:
  RefreshLoop(serve::DriftConfig drift, acquire::IngestOptions ingest)
      : drift_(drift), ingest_(ingest) {}

  /// Feed one republish. Bootstraps the model from the first corpus that is
  /// big enough; afterwards serves every row and reports drift decisions.
  void on_republish(const trace::IncrementalCampaign& campaign) {
    if (supervisor_ == nullptr && !bootstrap(campaign)) {
      return;
    }
    // The retraining corpus follows the directory: a refresh always re-reads
    // whatever files are present right now.
    supervisor_->set_refresh_corpus(campaign.paths());

    // Rows are served in chunks through the SIMD batch path: one vector
    // predict per chunk, then the drift supervisor consumes the estimates in
    // row order exactly as before. A hot swap published mid-chunk is adopted
    // at the next chunk boundary instead of the next row — the estimates in
    // between come from the generation that was serving when the chunk was
    // built, the same window a swap racing per-row ingestion always had.
    constexpr std::size_t kChunkRows = 64;
    const std::vector<trace::PhaseProfile>& profiles = campaign.profiles();
    for (std::size_t begin = 0; begin < profiles.size(); begin += kChunkRows) {
      const std::size_t end = std::min(begin + kChunkRows, profiles.size());
      rows_.clear();
      samples_.clear();
      for (std::size_t k = begin; k < end; ++k) {
        rows_.push_back(
            acquire::row_from_profile(profiles[k], workloads::Suite::Roco2));
        samples_.push_back(sample_from_row(rows_.back()));
      }
      estimates_.resize(samples_.size());
      health_.resize(samples_.size());
      estimator_->estimate_batch_guarded(samples_, batch_scratch_, estimates_,
                                         health_);
      for (std::size_t k = 0; k < samples_.size(); ++k) {
        observe_row(rows_[k], estimates_[k], health_[k]);
      }
    }
  }

  bool active() const { return supervisor_ != nullptr; }
  std::uint64_t generation() const {
    return estimator_ != nullptr ? estimator_->generation() : 0;
  }

  /// Shutdown path: close the partially filled drift window so its stats
  /// reach the final telemetry flush instead of being lost.
  void close_window() {
    if (supervisor_ != nullptr) {
      supervisor_->close_window();
    }
  }

private:
  /// Feed one served row to the drift supervisor, printing any refresh
  /// decision it reaches — the per-row half of the old serial loop.
  void observe_row(const acquire::DataRow& row, double estimate,
                   core::HealthState health) {
    supervisor_->observe_health(health != core::HealthState::Ok, false);
    const auto report = supervisor_->observe(estimate, row.avg_power_watts);
    if (report) {
      std::fprintf(stderr,
                   "ingestd: drift refresh #%llu: %s (gen %llu -> %llu, "
                   "candidate MAPE %.2f%%, incumbent %.2f%%)\n",
                   static_cast<unsigned long long>(
                       supervisor_->refreshes_run()),
                   std::string(serve::refresh_status_name(report->status))
                       .c_str(),
                   static_cast<unsigned long long>(
                       report->incumbent_generation),
                   static_cast<unsigned long long>(
                       report->published_generation),
                   report->candidate_holdout_mape_pct,
                   report->incumbent_holdout_mape_pct);
    }
  }

  bool bootstrap(const trace::IncrementalCampaign& campaign) {
    std::vector<acquire::DataRow> rows;
    for (const trace::PhaseProfile& profile : campaign.profiles()) {
      rows.push_back(
          acquire::row_from_profile(profile, workloads::Suite::Roco2));
    }
    acquire::Dataset dataset(std::move(rows));
    acquire::sanitize_dataset(dataset);
    // The bootstrap fit needs enough rows for a stable Equation-1 fit; keep
    // polling until the corpus grows past the floor.
    if (dataset.size() < 16) {
      return false;
    }
    try {
      core::SelectionOptions selection;
      selection.count =
          std::min<std::size_t>(6, dataset.common_presets().size());
      const core::SelectionResult selected = core::select_events(
          dataset, dataset.common_presets(), selection);
      core::FeatureSpec spec;
      spec.events = selected.selected();
      core::PowerModel model = core::train_model(dataset, spec);

      auto epoch = std::make_shared<core::LayoutEpoch>(std::move(model));
      estimator_ = std::make_unique<core::OnlineEstimator>(epoch);
      serve::SupervisorConfig config;
      config.drift = drift_;
      config.refresh.trace_paths = campaign.paths();
      config.refresh.ingest = ingest_;
      config.refresh.event_count = selection.count;
      supervisor_ = std::make_unique<serve::Supervisor>(epoch, config);
      std::fprintf(stderr,
                   "ingestd: refresh loop armed: %zu rows, %zu events, "
                   "serving generation %llu\n",
                   dataset.size(), spec.events.size(),
                   static_cast<unsigned long long>(estimator_->generation()));
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ingestd: refresh bootstrap failed: %s\n",
                   e.what());
      return false;
    }
  }

  serve::DriftConfig drift_;
  acquire::IngestOptions ingest_;
  std::unique_ptr<core::OnlineEstimator> estimator_;
  std::unique_ptr<serve::Supervisor> supervisor_;
  // Chunk scratch for the batched serving path (reused across republishes).
  core::SampleBatch batch_scratch_;
  std::vector<acquire::DataRow> rows_;
  std::vector<core::CounterSample> samples_;
  std::vector<double> estimates_;
  std::vector<core::HealthState> health_;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <directory> [--once] [--interval <s>] [--polls <n>]\n"
      "       [--no-verify] [--quiet] [--metrics]\n"
      "       [--refresh] [--refresh-window <n>] [--refresh-mape <pct>]\n"
      "       [--trace-out <file>] [--trace-sample <n>]\n"
      "       [--flight-recorder <file>]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* directory = nullptr;
  bool once = false;
  bool quiet = false;
  bool metrics = false;
  bool refresh = false;
  const char* trace_out = nullptr;
  std::uint64_t trace_sample = 1;
  const char* flight_path = nullptr;
  double interval_s = 1.0;
  std::uint64_t max_polls = 0;  // 0: unbounded
  trace::IncrementalCampaignOptions options;
  serve::DriftConfig drift;
  drift.window_size = 32;
  drift.max_mape_pct = 5.0;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--refresh") == 0) {
      refresh = true;
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      options.campaign.verify_checksum = false;
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_s = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--polls") == 0 && i + 1 < argc) {
      max_polls = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--refresh-window") == 0 && i + 1 < argc) {
      drift.window_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--refresh-mape") == 0 && i + 1 < argc) {
      drift.max_mape_pct = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-sample") == 0 && i + 1 < argc) {
      trace_sample = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--flight-recorder") == 0 && i + 1 < argc) {
      flight_path = argv[++i];
    } else if (directory == nullptr && argv[i][0] != '-') {
      directory = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (directory == nullptr || interval_s < 0 || drift.window_size == 0 ||
      drift.max_mape_pct <= 0 || trace_sample == 0) {
    return usage(argv[0]);
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGUSR1, handle_dump_signal);

  obs::set_enabled(true);
  if (trace_out != nullptr) {
    obs::TracerConfig tracer_config;
    tracer_config.ring_capacity = 65536;
    tracer_config.sample_every = trace_sample;
    obs::tracer().start(tracer_config);
  }
  if (flight_path != nullptr) {
    obs::FlightConfig flight_config;
    flight_config.dump_path = flight_path;
    obs::flight().arm(flight_config);
  }
  try {
    trace::IncrementalCampaign campaign(directory, options);
    acquire::IngestOptions ingest;
    ingest.verify_checksum = options.campaign.verify_checksum;
    RefreshLoop refresh_loop(drift, ingest);

    // Serving-throughput gauge, derived from the batch-path counters: valid
    // lanes estimated since the previous poll over the wall time between
    // polls. Registered up front so it shows in --metrics even before the
    // refresh loop arms (value 0).
    obs::Gauge& estimates_per_s = obs::registry().gauge(
        "ingestd.estimates_per_s",
        "valid samples served through the batched estimator per second");
    obs::Counter& batch_samples = obs::registry().counter(
        "estimate.batch.samples", "samples estimated through the batched path");
    obs::Counter& batch_invalid = obs::registry().counter(
        "estimate.batch.lanes_invalid",
        "batched-path lanes rejected by sample validation");
    double rate_window_start_s = obs::monotonic_s();
    std::uint64_t rate_window_valid = 0;

    const std::uint64_t polls = once ? 1 : max_polls;
    for (std::uint64_t i = 0; polls == 0 || i < polls; ++i) {
      if (i > 0) {
        sleep_interruptible(interval_s);
      }
      if (g_dump != 0) {
        g_dump = 0;
        if (obs::flight().armed()) {
          obs::flight().trigger("sigusr1");
          std::fprintf(stderr, "ingestd: SIGUSR1 flight dump written\n");
        }
      }
      if (g_stop != 0) {
        std::fprintf(stderr, "ingestd: stop signal received, shutting down\n");
        break;
      }
      if (!campaign.poll()) {
        continue;
      }
      const auto& stats = campaign.stats();
      std::fprintf(stderr,
                   "ingestd: poll %llu: %zu files, %zu profiles, "
                   "%llu ingested, %llu failed, republish %.3f ms\n",
                   static_cast<unsigned long long>(stats.polls),
                   campaign.paths().size(), campaign.profiles().size(),
                   static_cast<unsigned long long>(stats.files_ingested),
                   static_cast<unsigned long long>(stats.files_failed),
                   static_cast<double>(stats.last_republish_ns) * 1e-6);
      for (const auto& [path, error] : campaign.errors()) {
        std::fprintf(stderr, "ingestd:   quarantined %s: %s\n", path.c_str(),
                     error.c_str());
      }
      if (refresh) {
        refresh_loop.on_republish(campaign);
      }
      {
        const double now_s = obs::monotonic_s();
        const std::uint64_t invalid = batch_invalid.value();
        const std::uint64_t total = batch_samples.value();
        const std::uint64_t valid = total > invalid ? total - invalid : 0;
        if (now_s > rate_window_start_s) {
          estimates_per_s.set((static_cast<double>(valid) -
                               static_cast<double>(rate_window_valid)) /
                              (now_s - rate_window_start_s));
        }
        rate_window_start_s = now_s;
        rate_window_valid = valid;
      }
      if (!quiet) {
        print_profiles(campaign.profiles());
      }
    }
    if (refresh && refresh_loop.active()) {
      std::fprintf(stderr, "ingestd: final serving generation %llu\n",
                   static_cast<unsigned long long>(refresh_loop.generation()));
    }
    // Shutdown flush: close the partial drift window first so its stats are
    // visible in the final JSONL snapshot, then emit that snapshot to stderr.
    // This runs on every exit path (signal or poll budget) so the tail of the
    // run is never lost.
    refresh_loop.close_window();
    {
      obs::TelemetrySinkConfig sink_config;
      sink_config.format = obs::ExportFormat::Jsonl;
      obs::TelemetrySink sink(std::cerr, sink_config);
      sink.flush(obs::monotonic_s());
    }
    if (obs::flight().armed()) {
      obs::flight().trigger("shutdown");
    }
    if (trace_out != nullptr) {
      const std::vector<obs::SpanRecord> spans = obs::tracer().drain();
      const obs::TracerStats tstats = obs::tracer().stats();
      obs::tracer().stop();
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "ingestd: failed to open trace file %s\n",
                     trace_out);
        return 1;
      }
      out << obs::chrome_trace_json(spans).dump(2) << '\n';
      out.close();
      std::fprintf(stderr,
                   "ingestd: trace written to %s (%zu spans, %llu dropped)\n",
                   trace_out, spans.size(),
                   static_cast<unsigned long long>(tstats.spans_dropped));
    }
    if (metrics) {
      obs::print_table(obs::registry().snapshot(), std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
