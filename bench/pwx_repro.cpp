// pwx-repro — every table, figure and ablation of the paper in one process.
//
//   pwx-repro                              # all exhibits, EXPERIMENTS.md order
//   pwx-repro repro_table2 ablation_ridge  # only these, in this order
//
// All exhibits run against one StandardPipeline, so the standard campaigns
// are acquired once per process. bench/repro_transcript.txt holds the full
// output, and the pwx_repro_smoke ctest entry compares a fresh run against it
// byte for byte. An unknown name prints the list of exhibits and exits 2.
#include <cstdio>
#include <cstring>
#include <vector>

#include "repro_common.hpp"

namespace {

using namespace pwx::bench;

struct Exhibit {
  const char* name;
  void (*run)(const StandardPipeline&);
};

// The paper's exhibits in EXPERIMENTS.md order, then the ablations.
constexpr Exhibit kExhibits[] = {
    {"repro_table1", repro_table1},
    {"repro_fig2", repro_fig2},
    {"repro_table2", repro_table2},
    {"repro_fig3", repro_fig3},
    {"repro_fig4", repro_fig4},
    {"repro_fig5", repro_fig5},
    {"repro_table3", repro_table3},
    {"repro_fig6", repro_fig6},
    {"repro_table4", repro_table4},
    {"ablation_cycle_init", ablation_cycle_init},
    {"ablation_event_rate", ablation_event_rate},
    {"ablation_hcse", ablation_hcse},
    {"ablation_universal_subset", ablation_universal_subset},
    {"ablation_num_counters", ablation_num_counters},
    {"ablation_selection_criteria", ablation_selection_criteria},
    {"ablation_ridge", ablation_ridge},
    {"ablation_lowo", ablation_lowo},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Exhibit*> selected;
  for (int i = 1; i < argc; ++i) {
    const Exhibit* match = nullptr;
    for (const Exhibit& exhibit : kExhibits) {
      if (std::strcmp(exhibit.name, argv[i]) == 0) {
        match = &exhibit;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "pwx-repro: unknown exhibit '%s'; exhibits:\n", argv[i]);
      for (const Exhibit& exhibit : kExhibits) {
        std::fprintf(stderr, "  %s\n", exhibit.name);
      }
      return 2;
    }
    selected.push_back(match);
  }
  if (selected.empty()) {
    for (const Exhibit& exhibit : kExhibits) {
      selected.push_back(&exhibit);
    }
  }

  const StandardPipeline& pipeline = StandardPipeline::get();
  for (const Exhibit* exhibit : selected) {
    exhibit->run(pipeline);
  }
  return 0;
}
