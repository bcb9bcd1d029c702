// Shared state and helpers for the reproduction benches.
//
// Every exhibit of pwx-repro regenerates one table, figure or ablation of the
// paper from the same fixed-seed standard campaign, so their outputs are
// mutually consistent and stable across runs. The pipeline (datasets,
// Algorithm 1 runs, feature spec) is built once per process.
#pragma once

#include <string>
#include <vector>

#include "acquire/campaign.hpp"
#include "core/features.hpp"
#include "core/selection.hpp"

namespace pwx::bench {

/// Seeds shared by all reproduction benches.
inline constexpr std::uint64_t kCvSeed = 0xF01D;        ///< 10-fold CV indexing
inline constexpr std::uint64_t kScenario1Seed = 1;      ///< the fixed 4-workload draw

/// The standard reproduction pipeline, built once per process.
struct StandardPipeline {
  const acquire::Dataset* selection = nullptr;  ///< all workloads @ 2.4 GHz
  const acquire::Dataset* training = nullptr;   ///< all workloads x 5 DVFS states
  core::SelectionResult unconstrained;          ///< Algorithm 1, 8 steps, no veto
  core::SelectionResult vetoed;                 ///< 6 steps with mean-VIF bound 8
  core::FeatureSpec spec;                       ///< Eq. 1 spec on the vetoed events

  static const StandardPipeline& get();
};

/// Print the standard bench header: experiment id, what the paper reports,
/// and how to compare.
void print_header(const std::string& experiment, const std::string& paper_claim);

/// Format helper: fixed precision, "n/a" for non-positive VIFs.
std::string vif_cell(double vif);

/// The exhibits pwx-repro runs, one per file bench/<name>.cpp, each printing
/// its table, figure or ablation to stdout.
void repro_table1(const StandardPipeline& p);
void repro_fig2(const StandardPipeline& p);
void repro_table2(const StandardPipeline& p);
void repro_fig3(const StandardPipeline& p);
void repro_fig4(const StandardPipeline& p);
void repro_fig5(const StandardPipeline& p);
void repro_table3(const StandardPipeline& p);
void repro_fig6(const StandardPipeline& p);
void repro_table4(const StandardPipeline& p);
void ablation_cycle_init(const StandardPipeline& p);
void ablation_event_rate(const StandardPipeline& p);
void ablation_hcse(const StandardPipeline& p);
void ablation_universal_subset(const StandardPipeline& p);
void ablation_num_counters(const StandardPipeline& p);
void ablation_selection_criteria(const StandardPipeline& p);
void ablation_ridge(const StandardPipeline& p);
void ablation_lowo(const StandardPipeline& p);

}  // namespace pwx::bench
