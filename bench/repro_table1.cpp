// Table I — Selected performance counters based on all workloads.
//
// Paper: Algorithm 1 on all roco2 + SPEC workloads at 2400 MHz selects
// PRF_DM, TOT_CYC, TLB_IM, FUL_CCY, STL_ICY, BR_MSP with stepwise R² rising
// 0.735 → 0.984 and mean VIF staying below 1.79; a hypothetical 7th counter
// (CA_SNP) would raise R² to 0.989 but push the mean VIF to 26.42 with no
// transformation available.
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void repro_table1(const StandardPipeline& p) {
  bench::print_header(
      "Table I: selected performance counters (all workloads, 2.4 GHz)",
      "6 counters, R2 0.735->0.984, mean VIF <= 1.787; 7th counter would "
      "explode VIF to 26.42 (CA_SNP dilemma)");

  std::puts("paper reference (Table I):");
  TablePrinter ref({"Counter", "R2", "Adj.R2", "VIF"});
  ref.row({"PRF_DM", "0.735", "0.730", "n/a"});
  ref.row({"TOT_CYC", "0.897", "0.893", "1.062"});
  ref.row({"TLB_IM", "0.933", "0.930", "1.405"});
  ref.row({"FUL_CCY", "0.962", "0.959", "1.472"});
  ref.row({"STL_ICY", "0.979", "0.976", "1.573"});
  ref.row({"BR_MSP", "0.984", "0.982", "1.787"});
  ref.print(std::cout);

  std::puts("\nthis reproduction, Algorithm 1 with the stage-2 mean-VIF veto\n"
            "(the paper's 'do not select collinear events' decision, bound 8):");
  TablePrinter ours({"Counter", "R2", "Adj.R2", "VIF"});
  for (const core::SelectionStep& step : p.vetoed.steps) {
    ours.row({std::string(pmc::preset_name(step.event)),
              format_double(step.r_squared, 3), format_double(step.adj_r_squared, 3),
              bench::vif_cell(step.mean_vif)});
  }
  ours.print(std::cout);

  std::puts("\nunconstrained Algorithm 1 (stage 1 only) — reproducing the VIF\n"
            "explosion the paper reports for the 7th counter:");
  TablePrinter raw({"Counter", "R2", "Adj.R2", "VIF"});
  for (const core::SelectionStep& step : p.unconstrained.steps) {
    raw.row({std::string(pmc::preset_name(step.event)),
             format_double(step.r_squared, 3), format_double(step.adj_r_squared, 3),
             bench::vif_cell(step.mean_vif)});
  }
  raw.print(std::cout);

  std::puts("\nshape check: stepwise R2 is monotone with diminishing gains; the\n"
            "vetoed six stay low-VIF while the unconstrained run shows the\n"
            "collinearity blow-up the paper could not transform away.");
}

}  // namespace pwx::bench
