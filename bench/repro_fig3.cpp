// Figure 3 — Mean absolute percentage error per workload across all DVFS
// states.
//
// Paper: per-workload MAPE between roughly 3 % and 14 %, maximum for the
// SPEC benchmark ilbdc, minimum for the roco2 kernel sqrt.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/scenario.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void repro_fig3(const StandardPipeline& p) {
  bench::print_header("Figure 3: MAPE per workload across all DVFS states",
                      "per-workload MAPE ~3..14 %; max = ilbdc, min = sqrt");

  // Per-row predictions from 10-fold CV (every row predicted exactly once).
  const core::ScenarioResult cv =
      core::scenario_kfold_all(*p.training, p.spec, 10, bench::kCvSeed);

  struct Entry {
    std::string workload;
    const char* suite;
    double mape;
  };
  std::vector<Entry> entries;
  for (const std::string& name : p.training->workload_names()) {
    const bool synthetic =
        !p.training->filter_workloads({name}).rows().empty() &&
        p.training->filter_workloads({name}).rows()[0].suite == workloads::Suite::Roco2;
    entries.push_back({name, synthetic ? "roco2" : "SPEC", cv.workload_mape(name)});
  }

  TablePrinter table({"workload", "suite", "MAPE [%]", "bar"});
  for (const Entry& e : entries) {
    const auto bar_len = static_cast<std::size_t>(e.mape * 2.0);
    table.row({e.workload, e.suite, format_double(e.mape, 2),
               std::string(std::min<std::size_t>(bar_len, 60), '#')});
  }
  table.print(std::cout);

  const auto minmax = std::minmax_element(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.mape < b.mape; });
  std::printf("\nmin: %s (%.2f %%)   max: %s (%.2f %%)\n",
              minmax.first->workload.c_str(), minmax.first->mape,
              minmax.second->workload.c_str(), minmax.second->mape);
  std::puts("shape check: errors span roughly one order of magnitude across\n"
            "workloads, with no suite uniformly better than the other.");
}

}  // namespace pwx::bench
