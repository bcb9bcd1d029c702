// Figure 4 — MAPE for the four training/validation scenarios.
//
// Paper: 1) four random training workloads ~8.5 %; 2) synthetic-only
// training, SPEC validation = 15.10 % (worst); 3) 10-fold CV on everything
// = 7.55 %; 4) 10-fold CV on synthetic only (best, least realistic).
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/scenario.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void repro_fig4(const StandardPipeline& p) {
  bench::print_header(
      "Figure 4: MAPE for training scenarios 1-4",
      "scenario 2 (train synthetic, validate SPEC) is clearly worst at 15.1 %; "
      "10-fold scenarios sit near 7.5 %");

  // Fixed documented draw: seed 1, stratified to at least two workloads per
  // suite (an unconstrained 4-workload draw can be degenerate; see below).
  const auto s1 = core::scenario_random_workloads(*p.training, p.spec, 4,
                                                  bench::kScenario1Seed, 2);
  const auto s2 = core::scenario_synthetic_to_spec(*p.training, p.spec);
  const auto s3 = core::scenario_kfold_all(*p.training, p.spec, 10, bench::kCvSeed);
  const auto s4 =
      core::scenario_kfold_synthetic(*p.training, p.spec, 10, bench::kCvSeed);

  TablePrinter table({"scenario", "description", "paper MAPE", "our MAPE"});
  table.row({"1", "train on 4 random workloads, validate rest", "~8.5",
             format_double(s1.mape, 2)});
  table.row({"2", "train roco2 only, validate SPEC OMP2012", "15.10",
             format_double(s2.mape, 2)});
  table.row({"3", "10-fold CV, all experiments", "7.55", format_double(s3.mape, 2)});
  table.row({"4", "10-fold CV, synthetic experiments only", "~6.5",
             format_double(s4.mape, 2)});
  table.print(std::cout);

  std::puts("\nscenario-1 sensitivity (the paper reports a single draw; with only\n"
            "four training workloads the result depends strongly on the draw —\n"
            "degenerate draws produce diverging extrapolations, the instability\n"
            "the paper attributes to limited training sets):");
  TablePrinter sens({"draw seed", "MAPE [%]"});
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 99ull, 123ull}) {
    const auto s = core::scenario_random_workloads(*p.training, p.spec, 4, seed, 2);
    sens.row({std::to_string(seed), format_double(s.mape, 2)});
  }
  sens.print(std::cout);

  std::printf("\nshape check: scenario 2 >> scenario 3 (%.2f vs %.2f) and the\n"
              "synthetic-only CV (scenario 4) is no better guide to real\n"
              "workloads than scenario 3 — the paper's central stability result.\n",
              s2.mape, s3.mape);
}

}  // namespace pwx::bench
