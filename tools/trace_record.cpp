// pwx-record — record a workload run into an OTF2-lite trace file.
//
// The acquisition front-end as a standalone tool: runs one workload on the
// simulated machine with the standard plugin set (power, voltage, async
// PAPI) and writes the trace, which pwx-trace-dump or the library's
// post-processing can then consume.
//
// Usage:
//   pwx-record <workload> <out.otf2l> [freq_ghz=2.4] [threads=24] [events...]
//
// Events default to the six counters a standard selection run picks; any
// PAPI preset names (with or without the PAPI_ prefix) are accepted.
#include <cstdio>
#include <string>
#include <vector>

#include "acquire/campaign.hpp"
#include "core/selection.hpp"
#include "sim/engine.hpp"
#include "trace/plugins.hpp"
#include "trace/serialize.hpp"
#include "workloads/registry.hpp"

#include "cli.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <workload> <out.otf2l> [freq_ghz] [threads] "
               "[EVENT ...]\n  workloads: ",
               argv0);
  for (const auto& w : pwx::workloads::all_workloads()) {
    std::fprintf(stderr, "%s ", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pwx;
  if (argc < 3) {
    return usage(argv[0]);
  }
  sim::RunConfig rc;
  rc.frequency_ghz = 2.4;
  rc.threads = 24;
  rc.interval_s = 0.1;
  if ((argc > 3 && !cli::parse_real(argv[3], rc.frequency_ghz)) ||
      (argc > 4 && !cli::parse_count(argv[4], rc.threads))) {
    return usage(argv[0]);
  }
  try {
    const auto workload = workloads::find_workload(argv[1]);
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", argv[1]);
      return 1;
    }
    std::vector<pmc::Preset> events;
    for (int i = 5; i < argc; ++i) {
      const auto preset = pmc::preset_from_name(argv[i]);
      if (!preset) {
        std::fprintf(stderr, "unknown PAPI preset '%s'\n", argv[i]);
        return 1;
      }
      events.push_back(*preset);
    }
    if (events.empty()) {
      std::fprintf(stderr, "selecting default events (Algorithm 1) ...\n");
      core::SelectionOptions opt;
      opt.count = 6;
      opt.max_mean_vif = 8.0;
      events = core::select_events(acquire::standard_selection_dataset(),
                                   pmc::haswell_ep_available_events(), opt)
                   .selected();
    }

    const sim::Engine engine = sim::Engine::haswell_ep();
    const sim::RunResult run = engine.run(*workload, rc);
    const trace::Trace t = trace::build_standard_trace(run, events);
    trace::write_trace_file(t, argv[2]);
    std::printf("wrote %s: %zu events, %.1f s wall time\n", argv[2],
                t.columns().size(), run.wall_time_s);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
