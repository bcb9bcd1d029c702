// Figure 6 — PCC values of all supported PAPI counters with power.
//
// Paper: a wide spread of correlations across the 54 presets, from slightly
// negative to ~0.9; many counters correlate similarly with power (and hence
// with each other), which is exactly why greedy selection plus VIF control
// is needed instead of picking the top-correlated counters.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/pcc.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void repro_fig6(const StandardPipeline& p) {
  bench::print_header("Figure 6: PCC of all 54 PAPI presets with power",
                      "correlations spread from ~0 (or slightly negative) up to "
                      "~0.9, with many counters clustering at similar values");

  auto correlations =
      core::correlate_with_power(*p.selection, pmc::haswell_ep_available_events());
  std::sort(correlations.begin(), correlations.end(),
            [](const core::CounterCorrelation& a, const core::CounterCorrelation& b) {
              return a.pcc > b.pcc;
            });

  TablePrinter table({"Counter", "PCC", "bar"});
  for (const core::CounterCorrelation& c : correlations) {
    const auto bar = static_cast<std::size_t>(std::fabs(c.pcc) * 40.0);
    table.row({std::string(pmc::preset_name(c.preset)), format_double(c.pcc, 2),
               std::string(bar, c.pcc >= 0 ? '#' : '-')});
  }
  table.print(std::cout);

  const double max_pcc = correlations.front().pcc;
  const double min_pcc = correlations.back().pcc;
  std::size_t weak = 0;
  for (const auto& c : correlations) {
    weak += std::fabs(c.pcc) < 0.4;
  }
  std::printf("\nrange: %.2f .. %.2f; %zu of %zu presets correlate only weakly\n"
              "(|PCC| < 0.4) with power.\n",
              min_pcc, max_pcc, weak, correlations.size());
  std::puts("shape check: a broad spread with clusters of similar values —\n"
            "correlation alone cannot pick a stable counter set.");
}

}  // namespace pwx::bench
