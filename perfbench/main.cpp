// perfbench: one workload of the pwx end-to-end benchmark.
//
//   perfbench --workload reproduce|retrain|fleet --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--spans-out FILE] [--commit ID]
//
// Untraced (--trace 0) it sets up the workload several times, runs jobs in a
// closed loop for S seconds, checks every job's output and prints the
// end-to-end metrics. Traced (--trace 1) it spends half of S on untraced jobs
// and half on traced ones, prints the per-layer table and the per-layer
// metrics. The last line of standard output is the result as one JSON
// object; the exit code is 0 only when every check passed.
#include <omp.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kThreads = 2;
constexpr std::size_t kSetupRepeats = 3;
constexpr double kSetupMinSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans_out;
  std::string commit = "unknown";
};

int usage() {
  std::cerr << "usage: perfbench --workload reproduce|retrain|fleet --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--spans-out FILE] "
               "[--commit ID]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 0);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--spans-out") {
      opt.spans_out = value;
    } else if (key == "--commit") {
      opt.commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "reproduce") return make_reproduce(opt.seed);
  if (opt.workload == "retrain") return make_retrain(opt.seed, opt.work_dir);
  if (opt.workload == "fleet") return make_fleet(opt.seed);
  return nullptr;
}

/// Run jobs back to back until `seconds` have passed (at least one job).
/// Every job is one checked operation; a job that throws ends the loop.
template <typename Job>
std::vector<double> closed_loop(double seconds, Job&& job, Checks& checks,
                                std::string_view check) {
  std::vector<double> ms;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    try {
      const JobOutcome outcome = job();
      ms.push_back(outcome.ms);
      checks.record(check, outcome.ok, outcome.detail);
    } catch (const std::exception& e) {
      checks.record(check, false, std::string("threw: ") + e.what());
      break;
    }
  } while (now_ns() < deadline);
  return ms;
}

/// Per-layer metrics reported by the traced run, for every workload (0 where
/// a layer does no work). Names follow the spans: "<span>_ms" is the span's
/// self time per traced job.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics{
    {"sim.run_ms", "ms"},          {"sim.runs", "count"},
    {"sim.intervals", "count"},    {"trace.build_ms", "ms"},
    {"trace.profile_ms", "ms"},    {"trace.merge_ms", "ms"},
    {"trace.ingest_ms", "ms"},     {"trace.files", "count"},
    {"trace.bytes", "bytes"},      {"pmc.schedule_ms", "ms"},
    {"acquire.busy_ms", "ms"},     {"acquire.wait_ms", "ms"},
    {"acquire.rows_ms", "ms"},     {"acquire.split_ms", "ms"},
    {"core.select_ms", "ms"},      {"core.select_steps", "count"},
    {"core.fit_ms", "ms"},         {"core.cv_ms", "ms"},
    {"core.scenario_ms", "ms"},    {"core.validate_ms", "ms"},
    {"serve.gate_ms", "ms"},       {"core.dense_convert_ms", "ms"},
    {"fleet.ingest_ms", "ms"},     {"fleet.samples", "count"},
    {"fleet.nodes_degraded", "count"}, {"fleet.nodes_stale", "count"},
    {"fleet.delta_ms", "ms"},      {"fleet.decode_merge_ms", "ms"},
    {"fleet.snapshot_ms", "ms"},   {"fleet.frame_bytes", "bytes"},
    {"traced_job_ms", "ms"},       {"unattributed_pct", "%"},
    {"tracing_overhead_pct", "%"},
};

void print_metric(const Metric& m) {
  std::cout.precision(6);
  std::cout << "metric " << m.name << " = " << m.value << " " << m.unit << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    return usage();
  }
  std::unique_ptr<Workload> workload = make_workload(opt);
  if (!workload) {
    return usage();
  }
  omp_set_dynamic(0);
  omp_set_num_threads(kThreads);

  print_provenance(std::cout, opt.workload, opt.seed, opt.commit);
  std::cout << "threads: " << kThreads << " OpenMP threads; closed loop, "
            << (opt.trace ? "traced" : "untraced") << " run of " << opt.seconds
            << " s\n";

  Checks checks;
  std::vector<double> setup_s;
  std::vector<double> untraced;
  std::vector<double> traced;
  SpanRecorder spans;
  double peak_mb = 0.0;
  try {
    // At least kSetupRepeats setups, and more until kSetupMinSeconds have
    // passed: a quick setup's median needs many samples to hold still.
    double setup_total_s = 0.0;
    while (setup_s.size() < kSetupRepeats || setup_total_s < kSetupMinSeconds) {
      const std::int64_t start = now_ns();
      workload->setup();
      setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
      setup_total_s += setup_s.back();
    }
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    untraced = closed_loop(untraced_s, [&] { return workload->job(); }, checks,
                           "job output");
    if (opt.trace) {
      spans.enable(kThreads);
      traced = closed_loop(opt.seconds / 2, [&] { return workload->traced_job(spans); },
                           checks, "traced job output");
    }
    // Before the end-of-run checks, whose references take memory of their own.
    peak_mb = peak_rss_mb();
    workload->verify(checks);
  } catch (const std::exception& e) {
    checks.record("run", false, e.what());
  }
  checks.print(std::cout);

  // The mean, not the median: the host alternates between a fast and a slow
  // regime for seconds at a time, and the median of a run flips between the
  // two as their shares of the run cross one half; the mean moves smoothly.
  const double job_ms = mean(untraced);
  std::vector<Metric> metrics;
  if (!opt.trace) {
    const Tail tail = tail_percentile(untraced);
    std::cout.precision(6);
    std::cout << "jobs: " << untraced.size() << "; job ms p25 " << percentile(untraced, 25)
              << ", p50 " << median(untraced) << ", p75 " << percentile(untraced, 75)
              << ", p90 " << percentile(untraced, 90) << ", max " << percentile(untraced, 100)
              << ", mean " << job_ms << "; tail p" << tail.percentile << " with " << tail.beyond
              << " jobs beyond it" << (tail.defined ? "" : " (too few jobs: the slowest)")
              << "\n";
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"job_mean_ms", job_ms, "ms"},
        {"job_tail_ms", tail.value, "ms"},
        {"samples_per_s",
         job_ms > 0.0 ? workload->samples_per_job() / (job_ms / 1e3) : 0.0, "1/s"},
        {"peak_rss_mb", peak_mb, "MB"},
        {"model_mape_pct", workload->model_mape_pct(), "%"},
    };
  } else {
    const std::vector<SpanRecord> records = spans.records();
    const double jobs = traced.empty() ? 1.0 : static_cast<double>(traced.size());
    std::map<std::string, double> per_job;
    for (const auto& [name, ms] : self_ms_by_name(records)) {
      per_job[name == "job" ? "unattributed" : name] = ms / jobs;
    }
    for (const auto& [name, ms] : workload->extra_layer_ms()) {
      per_job[name] += ms;
    }
    double busy_ms = 0.0;
    for (const SpanRecord& s : records) {
      if (s.name == "acquire.config") {
        busy_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    std::vector<std::pair<std::string, double>> rows(per_job.begin(), per_job.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    print_layer_table(std::cout, opt.workload, rows);
    double total = 0.0;
    for (const auto& row : rows) {
      total += row.second;
    }

    std::map<std::string, double> values = workload->layer_counts();
    for (const auto& [name, ms] : per_job) {
      values[name + "_ms"] = ms;
    }
    values["acquire.busy_ms"] = busy_ms / jobs;
    values["traced_job_ms"] = total;
    values["unattributed_pct"] = total > 0.0 ? 100.0 * per_job["unattributed"] / total : 0.0;
    values["tracing_overhead_pct"] = job_ms > 0.0 ? 100.0 * (mean(traced) / job_ms - 1.0) : 0.0;
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, values.count(name) ? values[name] : 0.0, unit});
    }
    if (!opt.spans_out.empty()) {
      std::ofstream out(opt.spans_out);
      spans.write_json(out);
      std::cout << "spans: " << records.size() << " written to " << opt.spans_out << "\n";
    }
  }

  for (const Metric& m : metrics) {
    print_metric(m);
  }
  std::cout << "error_rate = " << checks.error_rate() << " (" << checks.failed() << " of "
            << checks.attempted() << " operations failed)\n";
  const bool correct = checks.all_passed();
  std::cout << result_json(correct, checks.attempted(), checks.failed(), metrics)
            << std::endl;
  return correct ? 0 : 1;
}
