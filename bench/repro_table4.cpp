// Table IV — Selected performance counters based on small synthetic
// workloads only.
//
// Paper: running Algorithm 1 on the roco2-only subset selects a *different*
// counter set (L1_LDM, REF_CYC, BR_PRC, L3_LDM, FUL_CCY, STL_ICY) and the
// mean VIF rises sharply from the fifth counter (8.98, then 13.62) — the
// narrow synthetic workloads cannot pin down a stable set.
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void repro_table4(const StandardPipeline& p) {
  bench::print_header(
      "Table IV: counters selected on synthetic (roco2) workloads only",
      "different set than Table I; mean VIF explodes from the 5th counter "
      "(8.98, 13.62) — low VIF is no guarantee of stability");

  const acquire::Dataset synthetic = p.selection->filter_suite(workloads::Suite::Roco2);

  core::SelectionOptions opt;
  opt.count = 6;  // unconstrained, like the paper's Table IV
  const core::SelectionResult result =
      core::select_events(synthetic, pmc::haswell_ep_available_events(), opt);

  std::puts("paper reference (Table IV):");
  TablePrinter ref({"Counter", "R2", "Adj.R2", "mean VIF"});
  ref.row({"L1_LDM", "0.839", "0.836", "n/a"});
  ref.row({"REF_CYC", "0.941", "0.938", "1.084"});
  ref.row({"BR_PRC", "0.973", "0.971", "1.340"});
  ref.row({"L3_LDM", "0.990", "0.989", "1.341"});
  ref.row({"FUL_CCY", "0.993", "0.993", "8.982"});
  ref.row({"STL_ICY", "0.995", "0.994", "13.617"});
  ref.print(std::cout);

  std::printf("\nthis reproduction (%zu synthetic rows):\n", synthetic.size());
  TablePrinter ours({"Counter", "R2", "Adj.R2", "mean VIF"});
  for (const core::SelectionStep& step : result.steps) {
    ours.row({std::string(pmc::preset_name(step.event)),
              format_double(step.r_squared, 3), format_double(step.adj_r_squared, 3),
              bench::vif_cell(step.mean_vif)});
  }
  ours.print(std::cout);

  // Compare against the all-workload selection.
  std::puts("\nall-workload selection (Table I, vetoed) for comparison:");
  std::printf(" ");
  for (const core::SelectionStep& step : p.vetoed.steps) {
    std::printf(" %s", std::string(pmc::preset_name(step.event)).c_str());
  }
  std::puts("");
  std::printf("synthetic-only selection:\n ");
  for (const core::SelectionStep& step : result.steps) {
    std::printf(" %s", std::string(pmc::preset_name(step.event)).c_str());
  }
  std::puts("\n\nshape check: the synthetic-only set differs from the all-workload\n"
            "set and its mean VIF rises far above the all-workload trajectory in\n"
            "the later steps — the paper's warning about narrow training sets.");
}

}  // namespace pwx::bench
