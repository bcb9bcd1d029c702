// Equation 1 feature construction.
//
// The paper's power model:
//
//   P_total = ( Σ_n α_n · E_n · V² · f )  +  β · V² · f  +  γ · V  +  δ · Z
//             \_________ dynamic _________/                \__ static __/
//
// with E_n the rate of event n **per CPU cycle** ("since the value of the
// PMC events are related to the operating frequency f_clk, the PMC event
// rate E_n, i.e., the number of events per cpu cycle, is used" — this is the
// paper's multicollinearity-reduction step), V the measured core voltage,
// f the operating frequency, and Z == 1 (the OLS intercept).
//
// build_features() produces the design matrix [E_n·V²f ... | V²f | V]; the
// δ·Z term is the regression intercept. The per-second normalization is kept
// available for the ablation bench that reproduces the paper's argument.
#pragma once

#include <string>
#include <vector>

#include "acquire/dataset.hpp"
#include "la/matrix.hpp"
#include "pmc/events.hpp"

namespace pwx::core {

/// How raw counter readings become model rates.
enum class RateNormalization {
  PerCycle,   ///< E_n = events / (elapsed · f) — the paper's choice
  PerSecond,  ///< E_n = events / elapsed — the ablation baseline
};

/// Which columns the design matrix carries: one E_n·V²f column per event,
/// then the β·V²f and γ·V columns.
struct FeatureSpec {
  std::vector<pmc::Preset> events;
  RateNormalization normalization = RateNormalization::PerCycle;

  std::size_t column_count() const { return events.size() + 2; }
};

/// Design matrix for a dataset under a spec (no intercept column; the OLS
/// fit adds it as δ·Z).
la::Matrix build_features(const acquire::Dataset& dataset, const FeatureSpec& spec);

/// Human-readable column names matching build_features' layout.
std::vector<std::string> feature_names(const FeatureSpec& spec);

}  // namespace pwx::core
