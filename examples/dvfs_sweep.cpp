// DVFS extrapolation study.
//
// The paper trains across five frequencies; this example asks a harder
// question a practitioner cares about: if you can only afford to measure at
// a *subset* of the DVFS states, how well does Equation 1 extrapolate to the
// rest? Trains on {1.2, 2.6} GHz (the extremes) and on {2.0} GHz (one middle
// point) and reports the per-state MAPE on all five paper frequencies.
//
// Build & run:  ./build/examples/dvfs_sweep
#include <cstdio>
#include <iostream>
#include <vector>

#include "acquire/campaign.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/model.hpp"
#include "core/selection.hpp"
#include "cpu/dvfs.hpp"
#include "stats/metrics.hpp"

int main() {
  using namespace pwx;
  std::puts("acquiring standard training campaign (5 DVFS states) ...");
  const acquire::Dataset& all = acquire::standard_training_dataset();

  core::SelectionOptions opt;
  opt.count = 6;
  opt.max_mean_vif = 8.0;
  core::FeatureSpec spec;
  spec.events = core::select_events(acquire::standard_selection_dataset(),
                                    pmc::haswell_ep_available_events(), opt)
                    .selected();

  struct Split {
    const char* name;
    std::vector<double> train_frequencies;
  };
  const std::vector<Split> splits = {
      {"all five states (reference)", {1.2, 1.6, 2.0, 2.4, 2.6}},
      {"extremes only {1.2, 2.6}", {1.2, 2.6}},
      {"single state {2.0}", {2.0}},
  };

  for (const Split& split : splits) {
    acquire::Dataset train;
    for (double f : split.train_frequencies) {
      const acquire::Dataset at_f = all.filter_frequency(f);
      for (const acquire::DataRow& row : at_f.rows()) {
        train.append(row);
      }
    }
    const core::PowerModel model = core::train_model(train, spec);

    std::printf("\ntrained on %s (%zu rows):\n", split.name, train.size());
    TablePrinter table({"f [GHz]", "V [V]", "rows", "MAPE [%]"});
    for (double f : cpu::paper_frequencies_ghz()) {
      const acquire::Dataset at_f = all.filter_frequency(f);
      const auto pred = model.predict(at_f);
      table.row({format_double(f, 1),
                 format_double(at_f.rows().front().avg_voltage, 3),
                 std::to_string(at_f.size()),
                 format_double(stats::mape(at_f.power(), pred), 2)});
    }
    table.print(std::cout);
  }
  return 0;
}
