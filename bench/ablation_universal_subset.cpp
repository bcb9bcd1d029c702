// Ablation — Rodrigues et al.'s universal counter subset vs statistical
// selection.
//
// Related work (paper Section II) proposes a fixed, architecture-agnostic
// subset — fetched instructions, L1 hits, dispatch stalls — claimed to stay
// within ~5 % average error, but "does not account for multicollinearity".
// We map that subset onto the closest Haswell presets (TOT_INS, L1-level
// activity, RES_STL) and compare against Algorithm 1's selection.
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/selection.hpp"
#include "core/validate.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void ablation_universal_subset(const StandardPipeline& p) {
  bench::print_header(
      "Ablation: fixed 'universal' counter subset (Rodrigues et al.) vs "
      "Algorithm 1",
      "a fixed subset forfeits accuracy relative to statistically selected "
      "events and ignores multicollinearity");

  core::FeatureSpec universal;
  universal.events = {pmc::Preset::TOT_INS, pmc::Preset::L1_DCM, pmc::Preset::RES_STL};

  // A same-size prefix of our statistical selection for a fair comparison.
  core::FeatureSpec statistical3;
  statistical3.events = {p.spec.events[0], p.spec.events[1], p.spec.events[2]};

  const auto cv_universal =
      core::k_fold_cross_validation(*p.training, universal, 10, bench::kCvSeed);
  const auto cv_stat3 =
      core::k_fold_cross_validation(*p.training, statistical3, 10, bench::kCvSeed);
  const auto cv_full =
      core::k_fold_cross_validation(*p.training, p.spec, 10, bench::kCvSeed);

  TablePrinter table({"counter set", "events", "CV R2", "CV MAPE [%]", "mean VIF"});
  auto row = [&](const char* name, const core::FeatureSpec& spec,
                 const core::CvSummary& cv) {
    std::string events;
    for (pmc::Preset e : spec.events) {
      events += std::string(pmc::preset_name(e)) + " ";
    }
    table.row({name, events, format_double(cv.mean.r_squared, 4),
               format_double(cv.mean.mape, 2),
               format_double(core::selected_events_mean_vif(*p.training, spec.events),
                             2)});
  };
  row("universal subset (Rodrigues)", universal, cv_universal);
  row("Algorithm 1, first 3", statistical3, cv_stat3);
  row("Algorithm 1, all 6 (paper)", p.spec, cv_full);
  table.print(std::cout);

  std::printf("\nshape check: the statistically selected sets dominate the fixed\n"
              "subset at equal size (MAPE %.2f vs %.2f %%), and six events beat\n"
              "three — counter choice is workload- and architecture-specific.\n",
              cv_stat3.mean.mape, cv_universal.mean.mape);
}

}  // namespace pwx::bench
