// Tests for the future-work extensions: alternative selection criteria,
// LASSO-based event selection, and fleet-scale estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "acquire/campaign.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "core/model.hpp"
#include "core/selection_criteria.hpp"
#include "test_support.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

/// Synthetic Eq.1-representable dataset with two informative events and two
/// noise events (same generator idea as core_test).
Dataset synthetic_dataset(std::size_t n = 120, std::uint64_t seed = 9) {
  Rng rng(seed);
  Dataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    DataRow row;
    row.workload = "w" + std::to_string(i % 6);
    row.phase = "main";
    row.suite = (i % 2 == 0) ? workloads::Suite::Roco2 : workloads::Suite::SpecOmp;
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.threads = 1 + (i % 24);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double e1 = rng.uniform(0.1, 2.0);
    const double e2 = rng.uniform(0.0, 5.0);
    row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
    row.counter_rates[pmc::Preset::TOT_CYC] = e2 * row.frequency_ghz * 1e9;
    row.counter_rates[pmc::Preset::BR_MSP] = rng.uniform(0, 1e7);
    row.counter_rates[pmc::Preset::TLB_IM] = rng.uniform(0, 1e6);
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    row.avg_power_watts = 20.0 * e1 * v2f + 5.0 * e2 * v2f + 8.0 * v2f +
                          12.0 * row.avg_voltage + 6.0 + rng.normal(0.0, 0.5);
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  return ds;
}

const std::vector<pmc::Preset> kCandidates{pmc::Preset::BR_MSP, pmc::Preset::PRF_DM,
                                           pmc::Preset::TLB_IM, pmc::Preset::TOT_CYC};

// ------------------------------------------------- selection criteria

class CriterionSweep : public ::testing::TestWithParam<SelectionCriterion> {};

TEST_P(CriterionSweep, FindsTheInformativeEvents) {
  const Dataset ds = synthetic_dataset();
  SelectionOptions opt;
  opt.count = 2;
  const auto result = select_events_with_criterion(ds, kCandidates, opt, GetParam());
  const auto selected = result.selected();
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), pmc::Preset::PRF_DM) !=
              selected.end());
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), pmc::Preset::TOT_CYC) !=
              selected.end());
}

INSTANTIATE_TEST_SUITE_P(AllCriteria, CriterionSweep,
                         ::testing::Values(SelectionCriterion::RSquared,
                                           SelectionCriterion::AdjustedRSquared,
                                           SelectionCriterion::Aic,
                                           SelectionCriterion::Bic));

TEST(CriterionSelection, InformationCriteriaStopAtNoiseEvents) {
  // With only two informative events, AIC/BIC should refuse to take all 4.
  const Dataset ds = synthetic_dataset(200);
  SelectionOptions opt;
  opt.count = 4;
  const auto bic =
      select_events_with_criterion(ds, kCandidates, opt, SelectionCriterion::Bic);
  EXPECT_TRUE(bic.stopped_early);
  EXPECT_LT(bic.steps.size(), 4u);
  // Plain R² never stops early (any event adds epsilon R²).
  const auto r2 =
      select_events_with_criterion(ds, kCandidates, opt, SelectionCriterion::RSquared);
  EXPECT_FALSE(r2.stopped_early);
  EXPECT_EQ(r2.steps.size(), 4u);
}

TEST(CriterionSelection, RSquaredCriterionMatchesAlgorithmOne) {
  const Dataset ds = synthetic_dataset();
  SelectionOptions opt;
  opt.count = 3;
  const auto a = select_events(ds, kCandidates, opt);
  const auto b =
      select_events_with_criterion(ds, kCandidates, opt, SelectionCriterion::RSquared);
  EXPECT_FALSE(b.stopped_early);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].event, b.steps[i].base.event) << "step " << i;
    EXPECT_EQ(a.steps[i].r_squared, b.steps[i].base.r_squared) << "step " << i;
    EXPECT_EQ(a.steps[i].adj_r_squared, b.steps[i].base.adj_r_squared) << "step " << i;
    EXPECT_EQ(a.steps[i].mean_vif, b.steps[i].base.mean_vif) << "step " << i;
    EXPECT_EQ(b.steps[i].criterion_value, b.steps[i].base.r_squared) << "step " << i;
  }
}

TEST(CriterionSelection, HonoursCycleCounterInitialization) {
  // Without the seed every criterion picks PRF_DM first on this data.
  const Dataset ds = synthetic_dataset();
  SelectionOptions opt;
  opt.count = 3;
  opt.init_with_cycle_counter = true;
  const auto algorithm_one = select_events(ds, kCandidates, opt);
  ASSERT_EQ(algorithm_one.steps.front().event, pmc::Preset::TOT_CYC);
  for (SelectionCriterion criterion :
       {SelectionCriterion::RSquared, SelectionCriterion::AdjustedRSquared,
        SelectionCriterion::Aic, SelectionCriterion::Bic}) {
    SCOPED_TRACE(static_cast<int>(criterion));
    const auto result = select_events_with_criterion(ds, kCandidates, opt, criterion);
    ASSERT_FALSE(result.steps.empty());
    const CriterionStep& seed = result.steps.front();
    EXPECT_EQ(seed.base.event, pmc::Preset::TOT_CYC);
    EXPECT_EQ(seed.base.r_squared, algorithm_one.steps.front().r_squared);
    EXPECT_EQ(seed.base.adj_r_squared, algorithm_one.steps.front().adj_r_squared);
    if (criterion == SelectionCriterion::RSquared) {
      EXPECT_EQ(seed.criterion_value, seed.base.r_squared);
    } else if (criterion == SelectionCriterion::AdjustedRSquared) {
      EXPECT_EQ(seed.criterion_value, seed.base.adj_r_squared);
    } else {
      // The early stop compares against the seeded fit: every later step
      // improved on the one before it.
      EXPECT_TRUE(std::isfinite(seed.criterion_value));
      for (std::size_t i = 1; i < result.steps.size(); ++i) {
        EXPECT_LT(result.steps[i].criterion_value, result.steps[i - 1].criterion_value);
      }
    }
  }

  // Only noise events follow the seed. BR_MSP improves BIC over the
  // event-free [V²f, V] fit but not over the seeded fit, so the seeded fit
  // must be the reference the early stop compares against.
  const std::vector<pmc::Preset> noise_after_seed{
      pmc::Preset::TOT_CYC, pmc::Preset::BR_MSP, pmc::Preset::TLB_IM};
  const auto bic = select_events_with_criterion(ds, noise_after_seed, opt,
                                                SelectionCriterion::Bic);
  EXPECT_TRUE(bic.stopped_early);
  ASSERT_EQ(bic.steps.size(), 1u);
  EXPECT_EQ(bic.steps.front().base.event, pmc::Preset::TOT_CYC);
}

TEST(CriterionSelection, CriterionValuesAreFinite) {
  const Dataset ds = synthetic_dataset();
  SelectionOptions opt;
  opt.count = 2;
  const auto aic =
      select_events_with_criterion(ds, kCandidates, opt, SelectionCriterion::Aic);
  for (const CriterionStep& step : aic.steps) {
    EXPECT_TRUE(std::isfinite(step.criterion_value));
    EXPECT_GT(step.base.r_squared, 0.0);
  }
}

TEST(CorrelationSelection, TakesTopAbsolutePcc) {
  const Dataset ds = synthetic_dataset();
  const auto top2 = select_events_by_correlation(ds, kCandidates, 2);
  ASSERT_EQ(top2.size(), 2u);
  // The two informative events drive power; noise counters correlate ~0.
  const std::set<pmc::Preset> set(top2.begin(), top2.end());
  EXPECT_TRUE(set.count(pmc::Preset::PRF_DM) == 1 ||
              set.count(pmc::Preset::TOT_CYC) == 1);
  EXPECT_EQ(set.count(pmc::Preset::BR_MSP) + set.count(pmc::Preset::TLB_IM), 0u);
}

TEST(CorrelationSelection, RejectsBadCount) {
  const Dataset ds = synthetic_dataset();
  EXPECT_THROW(select_events_by_correlation(ds, kCandidates, 0), InvalidArgument);
  EXPECT_THROW(select_events_by_correlation(ds, kCandidates, 9), InvalidArgument);
}

TEST(LassoSelection, FindsInformativeEventsOnSyntheticData) {
  const Dataset ds = synthetic_dataset(200);
  const auto result = select_events_lasso(ds, kCandidates, 2);
  ASSERT_EQ(result.selected.size(), 2u);
  const std::set<pmc::Preset> set(result.selected.begin(), result.selected.end());
  EXPECT_EQ(set.count(pmc::Preset::PRF_DM), 1u);
  EXPECT_EQ(set.count(pmc::Preset::TOT_CYC), 1u);
  EXPECT_GT(result.lambda, 0.0);
  // result.r_squared is the *penalized* fit at the read-off point (can be
  // low at high lambda); what matters is the OLS refit on the selected set.
  FeatureSpec spec;
  spec.events = result.selected;
  EXPECT_GT(train_model(ds, spec).fit().r_squared, 0.95);
}

TEST(LassoSelection, WorksOnTheStandardDataset) {
  const auto& ds = acquire::standard_selection_dataset();
  const auto result =
      select_events_lasso(ds, pmc::haswell_ep_available_events(), 6);
  EXPECT_EQ(result.selected.size(), 6u);
  // The resulting set must support a full-rank Eq.1 fit.
  FeatureSpec spec;
  spec.events = result.selected;
  EXPECT_NO_THROW(train_model(ds, spec));
}

// ------------------------------------------------- fleet estimation

PowerModel fleet_model() {
  const Dataset ds = synthetic_dataset(150, 21);
  FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  return train_model(ds, spec);
}

CounterSample fleet_sample(double scale = 1.0) {
  CounterSample sample;
  sample.elapsed_s = 1.0;
  sample.frequency_ghz = 2.4;
  sample.voltage = 1.0;
  sample.counts[pmc::Preset::PRF_DM] = 1.0e9 * scale;
  sample.counts[pmc::Preset::TOT_CYC] = 5.0e9 * scale;
  return sample;
}

TEST(Fleet, TotalsSumNodeEstimates) {
  FleetEstimator fleet(fleet_model());
  const double a = test::ingest_one(fleet, fleet.intern("node0"), fleet_sample(1.0), 0.0);
  const double b = test::ingest_one(fleet, fleet.intern("node1"), fleet_sample(2.0), 0.0);
  const FleetSnapshot snap = fleet.snapshot(0.0);
  EXPECT_EQ(snap.nodes_reporting, 2u);
  EXPECT_NEAR(snap.total_watts, a + b, 1e-9);
  EXPECT_DOUBLE_EQ(snap.max_node_watts, std::max(a, b));
  EXPECT_DOUBLE_EQ(snap.min_node_watts, std::min(a, b));
}

TEST(Fleet, NodeEstimateMatchesModelPrediction) {
  const PowerModel model = fleet_model();
  FleetEstimator fleet(model);
  OnlineEstimator reference(model);
  const NodeId n = fleet.intern("n");
  const double via_fleet = test::ingest_one(fleet, n, fleet_sample(), 0.0);
  EXPECT_NEAR(via_fleet, reference.estimate(fleet_sample()), 1e-9);
  EXPECT_NEAR(*fleet.node_estimate(n), via_fleet, 1e-12);
  EXPECT_FALSE(fleet.node_estimate(fleet.intern("ghost")).has_value());
}

TEST(Fleet, StaleNodesDropOutOfTotals) {
  FleetEstimator fleet(fleet_model(), 0.0, /*staleness_horizon_s=*/5.0);
  test::ingest_one(fleet, fleet.intern("fresh"), fleet_sample(), 100.0);
  test::ingest_one(fleet, fleet.intern("stale"), fleet_sample(), 10.0);
  const FleetSnapshot snap = fleet.snapshot(100.0);
  EXPECT_EQ(snap.nodes_reporting, 1u);
  EXPECT_EQ(snap.nodes_stale, 1u);
}

TEST(Fleet, RejectsTimeGoingBackwards) {
  FleetEstimator fleet(fleet_model());
  const NodeId n = fleet.intern("n");
  test::ingest_one(fleet, n, fleet_sample(), 10.0);
  EXPECT_THROW(test::ingest_one(fleet, n, fleet_sample(), 5.0), InvalidArgument);
}

TEST(Fleet, RejectsBadConstruction) {
  EXPECT_THROW(FleetEstimator(fleet_model(), 0.0, 0.0), InvalidArgument);
}

TEST(Fleet, SmoothingIsPerNode) {
  FleetEstimator fleet(fleet_model(), /*smoothing=*/0.9);
  // Feed node A a big sample, node B a small one; smoothing must not bleed
  // between nodes.
  const double a1 = test::ingest_one(fleet, fleet.intern("a"), fleet_sample(3.0), 0.0);
  const double b1 = test::ingest_one(fleet, fleet.intern("b"), fleet_sample(0.5), 0.0);
  EXPECT_GT(a1, b1);
  const double b2 = test::ingest_one(fleet, fleet.intern("b"), fleet_sample(0.5), 1.0);
  EXPECT_NEAR(b2, b1, 1e-9);  // steady input, steady estimate
}

}  // namespace
}  // namespace pwx::core
