// pwx-trace-dump — inspect OTF2-lite trace files.
//
// Usage:
//   pwx-trace-dump <trace.otf2l>                 # summary + phase profiles
//   pwx-trace-dump <trace.otf2l> --events [N]    # raw event stream (first N)
//   pwx-trace-dump <trace.otf2l> --csv           # metric samples as CSV
//   pwx-trace-dump <trace.otf2l> --json          # summary + profiles as JSON
//   pwx-trace-dump <trace.otf2l> --profile       # full phase-profile table
//   pwx-trace-dump <trace.otf2l> --stat          # section table + I/O stats
//
// Every mode reads the file through trace::MappedTraceFile::open, which maps
// a regular file of kMapMinBytes (256 KiB) or more and reads anything
// smaller, or anything mmap cannot serve (a pipe), into an aligned buffer;
// --stat reports which source served the file.
//
// Exit codes: 0 ok, 1 generic error, 2 usage, 3 corrupt/truncated trace or
// unsupported OTF2-lite version (the IoError diagnosis — byte offset and
// record index — goes to stderr).
//
// The post-processing path is exactly the library's phase-profile builder,
// so what this tool prints is what the modeling pipeline consumes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "trace/format.hpp"
#include "trace/mapped.hpp"
#include "trace/phase_profile.hpp"
#include "trace/view.hpp"

namespace {

using namespace pwx;

const char* mode_name(trace::MetricMode mode) {
  return mode == trace::MetricMode::AsyncAverage   ? "async-avg"
         : mode == trace::MetricMode::AsyncInstant ? "async-inst"
                                                   : "counter";
}

int print_summary(const trace::TraceView& t) {
  std::puts("attributes:");
  for (const auto& [key, value] : t.attributes) {
    std::printf("  %-16s %s\n", std::string(key).c_str(), std::string(value).c_str());
  }
  std::printf("\nmetrics (%zu):\n", t.metrics.size());
  for (const trace::MetricView& m : t.metrics) {
    std::printf("  %-24s [%s] %s\n", std::string(m.name).c_str(),
                std::string(m.unit).c_str(), mode_name(m.mode));
  }
  std::printf("\nevents: %zu\n\n", t.columns.size());

  std::puts("phase profiles:");
  TablePrinter table({"phase", "elapsed [s]", "avg power [W]", "avg V", "#counters"});
  for (const trace::PhaseProfile& p : trace::build_phase_profiles(t)) {
    table.row({p.phase, format_double(p.elapsed_s, 2),
               format_double(p.avg_power_watts, 1), format_double(p.avg_voltage, 3),
               std::to_string(p.counter_rates.size())});
  }
  table.print(std::cout);
  return 0;
}

int print_events(const trace::TraceView& t, std::size_t limit) {
  const trace::EventColumnsView& events = t.columns;
  for (std::size_t i = 0; i < std::min(limit, events.size()); ++i) {
    const double time_s = units::ns_to_s(events.times[i]);
    switch (static_cast<trace::EventKind>(events.kinds[i])) {
      case trace::EventKind::Enter:
        std::printf("%12.6f  ENTER  %s\n", time_s,
                    std::string(events.regions[events.ids[i]]).c_str());
        break;
      case trace::EventKind::Exit:
        std::printf("%12.6f  LEAVE  %s\n", time_s,
                    std::string(events.regions[events.ids[i]]).c_str());
        break;
      case trace::EventKind::Metric:
        std::printf("%12.6f  METRIC %-24s %g\n", time_s,
                    std::string(t.metrics[events.ids[i]].name).c_str(), events.values[i]);
        break;
    }
  }
  if (events.size() > limit) {
    std::printf("... (%zu more events)\n", events.size() - limit);
  }
  return 0;
}

int print_json(const trace::TraceView& t) {
  Json out;
  for (const auto& [key, value] : t.attributes) {
    out["attributes"][key] = std::string(value);
  }
  Json::Array metrics;
  for (const trace::MetricView& m : t.metrics) {
    Json metric;
    metric["name"] = std::string(m.name);
    metric["unit"] = std::string(m.unit);
    metric["mode"] = mode_name(m.mode);
    metrics.push_back(std::move(metric));
  }
  out["metrics"] = std::move(metrics);
  out["events"] = t.columns.size();
  Json::Array profiles;
  for (const trace::PhaseProfile& p : trace::build_phase_profiles(t)) {
    Json profile;
    profile["phase"] = p.phase;
    profile["elapsed_s"] = p.elapsed_s;
    profile["avg_power_watts"] = p.avg_power_watts;
    profile["avg_voltage"] = p.avg_voltage;
    for (const auto& [preset, rate] : p.counter_rates) {
      profile["counter_rates"][std::string(pmc::preset_name(preset))] = rate;
    }
    profiles.push_back(std::move(profile));
  }
  out["phase_profiles"] = std::move(profiles);
  std::cout << out.dump() << "\n";
  return 0;
}

/// --profile: the full phase-profile table the modeling pipeline consumes —
/// one row per phase with its identification, plus every counter rate, from
/// the same columnar single-pass scan the library uses.
int print_profiles(const trace::TraceView& t) {
  const std::vector<trace::PhaseProfile> profiles = trace::build_phase_profiles(t);
  TablePrinter table({"workload", "phase", "f [GHz]", "threads", "elapsed [s]",
                      "avg power [W]", "avg V"});
  for (const trace::PhaseProfile& p : profiles) {
    table.row({p.workload, p.phase, format_double(p.frequency_ghz, 2),
               std::to_string(p.threads), format_double(p.elapsed_s, 3),
               format_double(p.avg_power_watts, 2), format_double(p.avg_voltage, 3)});
  }
  table.print(std::cout);

  std::puts("\ncounter rates:");
  TablePrinter rates({"phase", "counter", "rate [1/s]", "per cycle"});
  for (const trace::PhaseProfile& p : profiles) {
    for (const auto& [preset, rate] : p.counter_rates) {
      rates.row({p.phase, std::string(pmc::preset_name(preset)),
                 format_double(rate, 1),
                 format_double(p.rate_per_cycle(preset), 6)});
    }
  }
  rates.print(std::cout);
  return 0;
}

/// --stat: how the file was ingested — mapped or read — byte accounting,
/// and the validated section table with absolute offsets and padded sizes.
int print_stat(const trace::MappedTraceFile& file) {
  std::puts("format:          OTF2LTv4");
  std::printf("ingestion:       %s\n",
              file.mapped() ? "mmap (zero-copy)" : "read() into an aligned buffer");
  std::printf("bytes mapped:    %zu\n", file.bytes_mapped());
  std::printf("bytes copied:    %zu\n", file.bytes_copied());
  std::printf("checksum:        %s\n",
              file.checksum_verified() ? "verified" : "deferred");
  std::printf("events:          %zu\n", file.view().columns.size());
  std::puts("\nsections:");
  TablePrinter table({"id", "name", "offset", "size [B]"});
  static const char* kNames[] = {"attributes", "metrics", "regions", "events"};
  for (const trace::format::SectionInfo& s : file.sections()) {
    table.row({std::to_string(s.id), s.id >= 1 && s.id <= 4 ? kNames[s.id - 1] : "?",
               std::to_string(s.file_offset), std::to_string(s.size)});
  }
  table.print(std::cout);
  return 0;
}

int print_csv(const trace::TraceView& t) {
  CsvWriter csv(std::cout);
  csv.header({"time_s", "metric", "value"});
  const trace::EventColumnsView& events = t.columns;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (static_cast<trace::EventKind>(events.kinds[i]) == trace::EventKind::Metric) {
      csv.row({format_double(units::ns_to_s(events.times[i]), 6),
               std::string(t.metrics[events.ids[i]].name),
               format_double(events.values[i], 6)});
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Split args into the path and the mode words.
  const char* path = nullptr;
  std::vector<const char*> mode_args;
  for (int i = 1; i < argc; ++i) {
    if (path == nullptr && argv[i][0] != '-') {
      path = argv[i];
    } else {
      mode_args.push_back(argv[i]);
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s <trace.otf2l> "
                 "[--events [N] | --csv | --json | --profile | --stat]\n",
                 argv[0]);
    return 2;
  }
  const auto mode = [&](const char* flag) {
    return !mode_args.empty() && std::strcmp(mode_args[0], flag) == 0;
  };
  try {
    const auto file = pwx::trace::MappedTraceFile::open(path);
    const pwx::trace::TraceView& t = file.view();
    if (mode("--stat")) {
      return print_stat(file);
    }
    if (mode("--events")) {
      const std::size_t limit =
          mode_args.size() >= 2 ? std::strtoul(mode_args[1], nullptr, 10) : 50;
      return print_events(t, limit);
    }
    if (mode("--csv")) {
      return print_csv(t);
    }
    if (mode("--json")) {
      return print_json(t);
    }
    if (mode("--profile")) {
      return print_profiles(t);
    }
    return print_summary(t);
  } catch (const pwx::IoError& e) {
    std::fprintf(stderr, "corrupt trace: %s\n", e.what());
    if (e.byte_offset() >= 0) {
      std::fprintf(stderr, "  byte offset:  %lld\n",
                   static_cast<long long>(e.byte_offset()));
    }
    if (e.record_index() >= 0) {
      std::fprintf(stderr, "  record index: %lld\n",
                   static_cast<long long>(e.record_index()));
    }
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
