// Table III — Pearson correlation coefficient of selected performance
// counters with power.
//
// Paper: the first selected counter correlates strongly with power (PRF_DM,
// 0.85) while the remaining selected counters correlate only moderately or
// not at all (BR_MSP: -0.01) — greedy selection prefers counters that add
// *unique* information over counters that echo power.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/pcc.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void repro_table3(const StandardPipeline& p) {
  bench::print_header(
      "Table III: PCC of the selected counters with power",
      "PRF_DM 0.85, TOT_CYC 0.59, TLB_IM 0.33, FUL_CCY 0.57, STL_ICY 0.38, "
      "BR_MSP -0.01 — only the first counter is strongly correlated");

  const auto correlations = core::correlate_with_power(*p.selection, p.spec.events);

  std::puts("paper reference (Table III):");
  TablePrinter ref({"Counter", "PCC"});
  ref.row({"PRF_DM", "0.85"});
  ref.row({"TOT_CYC", "0.59"});
  ref.row({"TLB_IM", "0.33"});
  ref.row({"FUL_CCY", "0.57"});
  ref.row({"STL_ICY", "0.38"});
  ref.row({"BR_MSP", "-0.01"});
  ref.print(std::cout);

  std::puts("\nthis reproduction (our selected six, in selection order):");
  TablePrinter ours({"Counter", "PCC"});
  for (const core::CounterCorrelation& c : correlations) {
    ours.row({std::string(pmc::preset_name(c.preset)), format_double(c.pcc, 2)});
  }
  ours.print(std::cout);

  double first = std::fabs(correlations.front().pcc);
  double rest_max = 0.0;
  for (std::size_t i = 1; i < correlations.size(); ++i) {
    rest_max = std::max(rest_max, std::fabs(correlations[i].pcc));
  }
  std::printf("\nshape check: |PCC| of the first selected counter (%.2f) exceeds\n"
              "every later one (max %.2f) — later counters add information that\n"
              "raw correlation with power does not capture.\n",
              first, rest_max);
}

}  // namespace pwx::bench
