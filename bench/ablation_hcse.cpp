// Ablation — heteroscedasticity-consistent standard errors (HC3) vs the
// classical OLS covariance.
//
// The paper follows Walker et al. in using an HCSE estimator because power
// residuals are heteroscedastic (absolute error grows with power). The
// coefficients are identical either way — what changes is the *uncertainty*
// attached to them, and hence which events appear significant.
#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/features.hpp"
#include "core/model.hpp"
#include "regress/diagnostics.hpp"
#include "repro_common.hpp"

namespace pwx::bench {

void ablation_hcse(const StandardPipeline& p) {
  bench::print_header("Ablation: HC3 robust standard errors vs classical OLS",
                      "heteroscedastic residuals understate classical standard "
                      "errors; HC3 corrects the inference");

  const core::PowerModel robust =
      core::train_model(*p.training, p.spec, regress::CovarianceType::HC3);
  const core::PowerModel classical =
      core::train_model(*p.training, p.spec, regress::CovarianceType::NonRobust);

  // Residual heteroscedasticity evidence.
  const la::Matrix x = core::build_features(*p.training, p.spec);
  const auto bp = regress::breusch_pagan(x, robust.fit().residuals);
  std::printf("Breusch-Pagan LM = %.1f (df %.0f), p = %.2g — %s\n\n", bp.lm_statistic,
              bp.df, bp.p_value,
              bp.p_value < 0.05 ? "heteroscedastic (as the paper observes)"
                                : "homoscedastic");

  const auto names = core::feature_names(p.spec);
  TablePrinter table(
      {"term", "coefficient", "SE classical", "SE HC3", "HC3/classical"});
  for (std::size_t j = 0; j < robust.fit().beta.size(); ++j) {
    const std::string name = j == 0 ? "deltaZ (const)" : names[j - 1];
    const double se_c = classical.fit().standard_error[j];
    const double se_r = robust.fit().standard_error[j];
    table.row({name, format_double(robust.fit().beta[j], 4), format_double(se_c, 4),
               format_double(se_r, 4), format_double(se_r / se_c, 2)});
  }
  table.print(std::cout);

  std::puts("\nshape check: coefficients agree exactly; HC3 standard errors\n"
            "differ from the classical ones under the heteroscedastic residuals,\n"
            "changing the confidence attached to individual event terms.");
}

}  // namespace pwx::bench
