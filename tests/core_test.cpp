// Tests for the modeling core: features, model, Algorithm 1 selection,
// cross-validation, scenarios, PCC, serialization, and the online estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <filesystem>
#include <utility>

#include <unistd.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include "acquire/campaign.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "core/features.hpp"
#include "core/model.hpp"
#include "core/model_io.hpp"
#include "core/pcc.hpp"
#include "core/scenario.hpp"
#include "core/selection.hpp"
#include "core/validate.hpp"
#include "regress/ols.hpp"

namespace pwx::core {
namespace {

using acquire::DataRow;
using acquire::Dataset;

/// A synthetic dataset whose power is exactly Eq.1-representable:
/// P = 20 E1 V²f + 5 E2 V²f + 8 V²f + 12 V + 6.
Dataset exact_dataset(std::size_t n = 64, double noise = 0.0, std::uint64_t seed = 9) {
  Rng rng(seed);
  Dataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    DataRow row;
    row.workload = "w" + std::to_string(i % 7);
    row.phase = "main";
    row.suite = (i % 2 == 0) ? workloads::Suite::Roco2 : workloads::Suite::SpecOmp;
    row.frequency_ghz = 1.2 + 0.35 * static_cast<double>(i % 5);
    row.threads = 1 + (i % 24);
    row.avg_voltage = 0.75 + 0.1 * static_cast<double>(i % 4);
    const double e1 = rng.uniform(0.1, 2.0);
    const double e2 = rng.uniform(0.0, 5.0);
    row.counter_rates[pmc::Preset::PRF_DM] = e1 * row.frequency_ghz * 1e9;
    row.counter_rates[pmc::Preset::TOT_CYC] = e2 * row.frequency_ghz * 1e9;
    const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
    row.avg_power_watts = 20.0 * e1 * v2f + 5.0 * e2 * v2f + 8.0 * v2f +
                          12.0 * row.avg_voltage + 6.0 + rng.normal(0.0, noise);
    row.elapsed_s = 1.0;
    ds.append(row);
  }
  return ds;
}

FeatureSpec exact_spec() {
  FeatureSpec spec;
  spec.events = {pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  return spec;
}

// ---------------------------------------------------------------- features

TEST(Features, ColumnLayoutMatchesEquationOne) {
  const Dataset ds = exact_dataset(8);
  const FeatureSpec spec = exact_spec();
  const la::Matrix x = build_features(ds, spec);
  EXPECT_EQ(x.cols(), 4u);  // 2 events + V²f + V
  const DataRow& row = ds.rows()[0];
  const double v2f = row.avg_voltage * row.avg_voltage * row.frequency_ghz;
  EXPECT_NEAR(x(0, 0), row.rate_per_cycle(pmc::Preset::PRF_DM) * v2f, 1e-12);
  EXPECT_NEAR(x(0, 2), v2f, 1e-12);
  EXPECT_NEAR(x(0, 3), row.avg_voltage, 1e-12);
}

TEST(Features, PerSecondNormalizationDiffers) {
  const Dataset ds = exact_dataset(8);
  FeatureSpec per_cycle = exact_spec();
  FeatureSpec per_second = exact_spec();
  per_second.normalization = RateNormalization::PerSecond;
  const la::Matrix a = build_features(ds, per_cycle);
  const la::Matrix b = build_features(ds, per_second);
  EXPECT_NE(a(0, 0), b(0, 0));
  // Per-second = per-cycle * f (both scaled to 1e9).
  EXPECT_NEAR(b(0, 0), a(0, 0) * ds.rows()[0].frequency_ghz, 1e-9);
}

TEST(Features, NamesMatchLayout) {
  const auto names = feature_names(exact_spec());
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "E(PRF_DM)*V2f");
  EXPECT_EQ(names[2], "V2f");
  EXPECT_EQ(names[3], "V");
}

TEST(Features, MissingVoltageRejected) {
  Dataset ds = exact_dataset(4);
  ds.rows()[1].avg_voltage = 0.0;
  EXPECT_THROW(build_features(ds, exact_spec()), InvalidArgument);
}

// ---------------------------------------------------------------- model

TEST(Model, RecoversExactCoefficients) {
  const Dataset ds = exact_dataset();
  const PowerModel model = train_model(ds, exact_spec());
  // fit().beta is [δ, α_1, α_2, β, γ]: the intercept, then the design's
  // columns in build_features order.
  const std::vector<double>& beta = model.fit().beta;
  ASSERT_EQ(beta.size(), 5u);
  EXPECT_NEAR(beta[1], 20.0, 1e-8);
  EXPECT_NEAR(beta[2], 5.0, 1e-8);
  EXPECT_NEAR(beta[3], 8.0, 1e-7);
  EXPECT_NEAR(beta[4], 12.0, 1e-6);
  EXPECT_NEAR(beta[0], 6.0, 1e-6);
  EXPECT_NEAR(model.fit().r_squared, 1.0, 1e-12);
}

TEST(Model, PredictMatchesGroundTruthOnHeldOut) {
  const Dataset train = exact_dataset(64, 0.0, 1);
  const Dataset test = exact_dataset(32, 0.0, 2);
  const PowerModel model = train_model(train, exact_spec());
  const auto pred = model.predict(test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_NEAR(pred[i], test.rows()[i].avg_power_watts, 1e-6);
  }
}

TEST(Model, DefaultUsesHc3) {
  const Dataset ds = exact_dataset(64, 0.5);
  const PowerModel model = train_model(ds, exact_spec());
  EXPECT_EQ(model.fit().cov_type, regress::CovarianceType::HC3);
}

TEST(Model, SummaryContainsEquationTerms) {
  const Dataset ds = exact_dataset();
  const std::string s = train_model(ds, exact_spec()).summary();
  EXPECT_NE(s.find("E(PRF_DM)*V2f"), std::string::npos);
  EXPECT_NE(s.find("V2f"), std::string::npos);
}

// ---------------------------------------------------------------- selection

TEST(Selection, FindsTheInformativeEventsFirst) {
  // Power depends on PRF_DM and TOT_CYC only; distractor counters are noise.
  Rng rng(33);
  Dataset ds = exact_dataset(80, 0.2, 5);
  for (DataRow& row : ds.rows()) {
    row.counter_rates[pmc::Preset::BR_MSP] = rng.uniform(0, 1e7);
    row.counter_rates[pmc::Preset::TLB_IM] = rng.uniform(0, 1e6);
  }
  SelectionOptions opt;
  opt.count = 2;
  const auto result = select_events(
      ds, {pmc::Preset::BR_MSP, pmc::Preset::PRF_DM, pmc::Preset::TLB_IM,
           pmc::Preset::TOT_CYC},
      opt);
  const auto selected = result.selected();
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), pmc::Preset::PRF_DM) !=
              selected.end());
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), pmc::Preset::TOT_CYC) !=
              selected.end());
}

TEST(Selection, RSquaredIsMonotoneNondecreasing) {
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions opt;
  opt.count = 6;
  const auto result = select_events(ds, pmc::haswell_ep_available_events(), opt);
  ASSERT_EQ(result.steps.size(), 6u);
  for (std::size_t i = 1; i < result.steps.size(); ++i) {
    EXPECT_GE(result.steps[i].r_squared, result.steps[i - 1].r_squared - 1e-12);
  }
  // First step has no VIF ("n/a" in the paper's Table I).
  EXPECT_DOUBLE_EQ(result.steps[0].mean_vif, 0.0);
  EXPECT_GT(result.steps[1].mean_vif, 0.9);
}

TEST(Selection, CycleCounterInitializationStartsWithTotCyc) {
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions opt;
  opt.count = 3;
  opt.init_with_cycle_counter = true;
  const auto result = select_events(ds, pmc::haswell_ep_available_events(), opt);
  EXPECT_EQ(result.steps[0].event, pmc::Preset::TOT_CYC);
}

TEST(Selection, VifVetoKeepsMeanVifBounded) {
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions opt;
  opt.count = 6;
  opt.max_mean_vif = 8.0;
  const auto result = select_events(ds, pmc::haswell_ep_available_events(), opt);
  for (const SelectionStep& step : result.steps) {
    EXPECT_LE(step.mean_vif, 8.0);
  }
}

TEST(Selection, UnconstrainedEventuallyExplodesVif) {
  // The paper's CA_SNP dilemma: past the low-VIF prefix, greedy selection
  // adds collinear events and the mean VIF rises sharply.
  const Dataset& ds = acquire::standard_selection_dataset();
  SelectionOptions opt;
  opt.count = 8;
  const auto result = select_events(ds, pmc::haswell_ep_available_events(), opt);
  double max_vif = 0;
  for (const SelectionStep& step : result.steps) {
    max_vif = std::max(max_vif, step.mean_vif);
  }
  EXPECT_GT(max_vif, 10.0);
}

TEST(Selection, RejectsBadArguments) {
  const Dataset ds = exact_dataset(16);
  SelectionOptions opt;
  opt.count = 5;
  EXPECT_THROW(select_events(ds, {pmc::Preset::PRF_DM}, opt), InvalidArgument);
  EXPECT_THROW(select_events(ds, {}, opt), InvalidArgument);
  opt.count = 1;
  opt.init_with_cycle_counter = true;
  EXPECT_THROW(select_events(ds, {pmc::Preset::PRF_DM}, opt), InvalidArgument);
}

TEST(Selection, MeanVifHelperMatchesRegressModule) {
  const Dataset ds = exact_dataset(60, 0.1);
  const std::vector<pmc::Preset> events{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  const double vif = selected_events_mean_vif(ds, events);
  EXPECT_GT(vif, 0.5);
  EXPECT_LT(vif, 5.0);  // independent uniform rates: no inflation
}

TEST(Selection, MeanVifMatrixOverloadMatchesDatasetOverload) {
  const Dataset ds = exact_dataset(60, 0.1);
  const std::vector<pmc::Preset> events{pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC};
  const la::Matrix rates = ds.event_rate_matrix(events);
  EXPECT_EQ(selected_events_mean_vif(rates), selected_events_mean_vif(ds, events));
  EXPECT_THROW(selected_events_mean_vif(la::Matrix(60, 1)), InvalidArgument);
}

namespace {

void expect_identical_selections(const SelectionResult& a, const SelectionResult& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].event, b.steps[i].event) << "step " << i;
    // Bit-identical, not merely close: every reported number must come out
    // of the same arithmetic, whatever the thread count or fitting path.
    EXPECT_EQ(a.steps[i].r_squared, b.steps[i].r_squared) << "step " << i;
    EXPECT_EQ(a.steps[i].adj_r_squared, b.steps[i].adj_r_squared) << "step " << i;
    EXPECT_EQ(a.steps[i].mean_vif, b.steps[i].mean_vif) << "step " << i;
  }
}

/// Runs OpenMP regions on one thread for its lifetime, then restores the
/// previous thread count even if the guarded code throws.
class SingleOmpThread {
public:
  SingleOmpThread() {
#ifdef _OPENMP
    threads_ = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
  }
  ~SingleOmpThread() {
#ifdef _OPENMP
    omp_set_num_threads(threads_);
#endif
  }
  SingleOmpThread(const SingleOmpThread&) = delete;
  SingleOmpThread& operator=(const SingleOmpThread&) = delete;

private:
  [[maybe_unused]] int threads_ = 0;
};

/// Runs select_events once on a single OpenMP thread and once at the default
/// thread count, so the gating pass runs serially and then in parallel.
void expect_serial_scan_matches_parallel(const SelectionOptions& opt) {
  const Dataset& ds = acquire::standard_selection_dataset();
  const auto candidates = pmc::haswell_ep_available_events();
  const SelectionResult serial = [&] {
    const SingleOmpThread single;
    return select_events(ds, candidates, opt);
  }();
  expect_identical_selections(serial, select_events(ds, candidates, opt));
}

/// Algorithm 1 written from scratch: every remaining candidate is scored by a
/// full statsmodels-mirror fit_ols on build_features' design, candidates are
/// visited in index order, a candidate is kept only on strict R² improvement,
/// and the stage-2 veto goes through selected_events_mean_vif.
SelectionResult naive_algorithm_one(const Dataset& ds,
                                    const std::vector<pmc::Preset>& candidates,
                                    const SelectionOptions& opt) {
  const std::vector<double> power = ds.power();
  const auto fit = [&](const std::vector<pmc::Preset>& events) {
    FeatureSpec spec;
    spec.events = events;
    spec.normalization = opt.normalization;
    return regress::fit_ols(build_features(ds, spec), power);
  };
  SelectionResult result;
  std::vector<pmc::Preset> selected;
  if (opt.init_with_cycle_counter) {
    selected.push_back(pmc::Preset::TOT_CYC);
    const regress::OlsResult seeded = fit(selected);
    result.steps.push_back(
        {pmc::Preset::TOT_CYC, seeded.r_squared, seeded.adj_r_squared, 0.0});
  }
  while (selected.size() < opt.count) {
    SelectionStep best;
    best.r_squared = -std::numeric_limits<double>::infinity();
    for (pmc::Preset candidate : candidates) {
      if (std::find(selected.begin(), selected.end(), candidate) != selected.end()) {
        continue;
      }
      std::vector<pmc::Preset> trial = selected;
      trial.push_back(candidate);
      regress::OlsResult trial_fit;
      try {
        trial_fit = fit(trial);
      } catch (const NumericalError&) {
        continue;  // collinear with the selected set
      }
      if (trial_fit.r_squared <= best.r_squared) {
        continue;
      }
      const double vif = trial.size() >= 2 ? selected_events_mean_vif(ds, trial) : 0.0;
      if (vif > opt.max_mean_vif) {
        continue;
      }
      best = {candidate, trial_fit.r_squared, trial_fit.adj_r_squared, vif};
    }
    if (best.event == pmc::Preset::kCount) {
      ADD_FAILURE() << "no admissible candidate at step " << selected.size() + 1;
      break;
    }
    selected.push_back(best.event);
    result.steps.push_back(best);
  }
  return result;
}

}  // namespace

TEST(Selection, ParallelScanMatchesSerialScan) {
  SelectionOptions opt;
  opt.count = 6;
  expect_serial_scan_matches_parallel(opt);
}

TEST(Selection, ParallelScanMatchesSerialScanUnderVifVeto) {
  SelectionOptions opt;
  opt.count = 6;
  opt.max_mean_vif = 8.0;
  expect_serial_scan_matches_parallel(opt);
}

// The whole selection against from-scratch OLS, bit for bit: unconstrained,
// under the VIF veto, and with the Walker seed. Besides the incremental QR
// and the gated scan, this pins the first step's TOT_CYC vs REF_CYC near-tie
// (DESIGN.md "Numerical conventions").
TEST(Selection, MatchesFromScratchOls) {
  const Dataset& ds = acquire::standard_selection_dataset();
  const auto candidates = pmc::haswell_ep_available_events();
  SelectionOptions unconstrained;
  unconstrained.count = 8;
  SelectionOptions vetoed;
  vetoed.count = 6;
  vetoed.max_mean_vif = 8.0;
  SelectionOptions seeded = vetoed;
  seeded.init_with_cycle_counter = true;
  const std::pair<const char*, SelectionOptions> configurations[] = {
      {"8 steps, no veto", unconstrained},
      {"6 steps, mean VIF <= 8", vetoed},
      {"TOT_CYC seed, 6 steps, mean VIF <= 8", seeded}};
  for (const auto& [name, opt] : configurations) {
    SCOPED_TRACE(name);
    expect_identical_selections(select_events(ds, candidates, opt),
                                naive_algorithm_one(ds, candidates, opt));
  }
}

// ---------------------------------------------------------------- validation

TEST(Validate, KFoldOnExactDataIsPerfect) {
  const Dataset ds = exact_dataset(100, 0.0);
  const CvSummary cv = k_fold_cross_validation(ds, exact_spec(), 10, 7);
  EXPECT_EQ(cv.folds.size(), 10u);
  EXPECT_GT(cv.min.r_squared, 0.999999);
  EXPECT_LT(cv.max.mape, 1e-4);
}

TEST(Validate, NoiseRaisesMapeAndLowersR2) {
  const Dataset clean = exact_dataset(100, 0.0);
  const Dataset noisy = exact_dataset(100, 5.0);
  const CvSummary cv_clean = k_fold_cross_validation(clean, exact_spec(), 5, 7);
  const CvSummary cv_noisy = k_fold_cross_validation(noisy, exact_spec(), 5, 7);
  EXPECT_GT(cv_noisy.mean.mape, cv_clean.mean.mape);
  EXPECT_LT(cv_noisy.mean.r_squared, cv_clean.mean.r_squared);
}

TEST(Validate, SummaryBoundsAreConsistent) {
  const Dataset ds = exact_dataset(100, 2.0);
  const CvSummary cv = k_fold_cross_validation(ds, exact_spec(), 10, 3);
  EXPECT_LE(cv.min.mape, cv.mean.mape);
  EXPECT_LE(cv.mean.mape, cv.max.mape);
  EXPECT_LE(cv.min.r_squared, cv.mean.r_squared);
  EXPECT_LE(cv.mean.r_squared, cv.max.r_squared);
}

TEST(Validate, DeterministicForSeed) {
  const Dataset ds = exact_dataset(100, 2.0);
  const CvSummary a = k_fold_cross_validation(ds, exact_spec(), 10, 3);
  const CvSummary b = k_fold_cross_validation(ds, exact_spec(), 10, 3);
  EXPECT_DOUBLE_EQ(a.mean.mape, b.mean.mape);
}

// ---------------------------------------------------------------- scenarios

TEST(Scenario, SyntheticToSpecSplitsSuitesCorrectly) {
  const Dataset ds = exact_dataset(60, 0.5);
  const ScenarioResult result = scenario_synthetic_to_spec(ds, exact_spec());
  for (const ScenarioPoint& p : result.points) {
    EXPECT_EQ(p.suite, workloads::Suite::SpecOmp);
  }
  EXPECT_GT(result.mape, 0.0);
}

TEST(Scenario, KfoldAllPredictsEveryRowExactlyOnce) {
  const Dataset ds = exact_dataset(60, 0.5);
  const ScenarioResult result = scenario_kfold_all(ds, exact_spec(), 5, 11);
  EXPECT_EQ(result.points.size(), ds.size());
}

TEST(Scenario, KfoldSyntheticUsesOnlyRoco2) {
  const Dataset ds = exact_dataset(60, 0.5);
  const ScenarioResult result = scenario_kfold_synthetic(ds, exact_spec(), 5, 11);
  for (const ScenarioPoint& p : result.points) {
    EXPECT_EQ(p.suite, workloads::Suite::Roco2);
  }
}

TEST(Scenario, RandomWorkloadsRespectsTrainCount) {
  const Dataset ds = exact_dataset(70, 0.5);
  const ScenarioResult result = scenario_random_workloads(ds, exact_spec(), 4, 17);
  // Validation covers the other 3 of the 7 synthetic workload labels.
  std::set<std::string> validated;
  for (const ScenarioPoint& p : result.points) {
    validated.insert(p.workload);
  }
  EXPECT_EQ(validated.size(), 3u);
}

TEST(Scenario, StratifiedDrawIncludesBothSuites) {
  const Dataset& train = acquire::standard_training_dataset();
  FeatureSpec spec;
  spec.events = {pmc::Preset::TOT_CYC, pmc::Preset::TOT_INS};
  for (std::uint64_t seed : {1, 2, 3}) {
    const ScenarioResult result = scenario_random_workloads(train, spec, 4, seed, 1);
    // Training had at least one of each suite, so validation cannot contain
    // all workloads of any suite.
    std::set<std::string> val_roco;
    std::set<std::string> val_spec;
    for (const ScenarioPoint& p : result.points) {
      (p.suite == workloads::Suite::Roco2 ? val_roco : val_spec).insert(p.workload);
    }
    EXPECT_LT(val_roco.size(), 11u) << seed;
    EXPECT_LT(val_spec.size(), 10u) << seed;
  }
}

TEST(Scenario, WorkloadMapeAndBias) {
  const Dataset ds = exact_dataset(60, 0.5);
  const ScenarioResult result = scenario_kfold_all(ds, exact_spec(), 5, 11);
  const auto names = ds.workload_names();
  double weighted = 0;
  for (const auto& name : names) {
    EXPECT_GE(result.workload_mape(name), 0.0);
    weighted += result.workload_mape(name);
  }
  const auto bias = result.workload_bias();
  EXPECT_EQ(bias.size(), names.size());
  EXPECT_THROW(result.workload_mape("not_a_workload"), InvalidArgument);
}

// ---------------------------------------------------------------- pcc

TEST(Pcc, IdentifiesTheDrivingCounter) {
  const Dataset ds = exact_dataset(80, 0.1);
  const auto correlations =
      correlate_with_power(ds, {pmc::Preset::PRF_DM, pmc::Preset::TOT_CYC});
  // PRF_DM has coefficient 20 vs 5: it must correlate more strongly.
  EXPECT_GT(std::fabs(correlations[0].pcc), std::fabs(correlations[1].pcc) * 0.8);
  for (const auto& c : correlations) {
    EXPECT_GE(c.pcc, -1.0);
    EXPECT_LE(c.pcc, 1.0);
  }
}

// ---------------------------------------------------------------- model io

TEST(ModelIo, JsonRoundTripPredictsIdentically) {
  const Dataset ds = exact_dataset(64, 0.3);
  const PowerModel original = train_model(ds, exact_spec());
  const PowerModel loaded = model_from_json(model_to_json(original));
  const auto a = original.predict(ds);
  const auto b = loaded.predict(ds);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
  EXPECT_EQ(loaded.spec().events, original.spec().events);
  EXPECT_EQ(loaded.fit().cov_type, original.fit().cov_type);
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pwx_model_test.json").string();
  const Dataset ds = exact_dataset(64, 0.3);
  const PowerModel original = train_model(ds, exact_spec());
  save_model(original, path);
  const PowerModel loaded = load_model(path);
  EXPECT_NEAR(loaded.fit().beta.at(0), original.fit().beta.at(0), 1e-12);
  std::remove(path.c_str());
}

TEST(ModelIo, SaveIsAtomicAgainstPartialWrites) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pwx_model_atomic_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "model.json").string();
  const Dataset ds = exact_dataset(64, 0.3);
  const PowerModel original = train_model(ds, exact_spec());
  save_model(original, path);

  // The partial-write sweep: a torn file — any strict prefix of the payload,
  // as a crash mid-write would leave — must be rejected by load_model. This
  // is why save_model writes a temp file and rename()s: the target path can
  // only ever hold a complete payload.
  const std::string payload = model_to_json(original) + "\n";
  const std::string torn_path = (dir / "torn.json").string();
  for (const std::size_t len :
       {std::size_t{1}, payload.size() / 4, payload.size() / 2,
        payload.size() - 2}) {
    std::ofstream torn(torn_path, std::ios::trunc);
    torn.write(payload.data(), static_cast<std::streamsize>(len));
    torn.close();
    EXPECT_THROW(load_model(torn_path), IoError) << "prefix length " << len;
  }

  // Overwriting an existing model replaces it completely and leaves no temp
  // file behind on success.
  save_model(original, path);
  const PowerModel loaded = load_model(path);
  EXPECT_NEAR(loaded.fit().beta.at(0), original.fit().beta.at(0), 1e-12);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }

  // Failure before the rename leaves the previous file untouched: saving to
  // a directory path must throw without clobbering anything.
  EXPECT_THROW(save_model(original, dir.string()), IoError);
  EXPECT_NO_THROW(load_model(path));
  std::filesystem::remove_all(dir);
}

TEST(ModelIo, MalformedInputRejected) {
  EXPECT_THROW(model_from_json("not json"), IoError);
  EXPECT_THROW(model_from_json("{\"format\": \"other\"}"), IoError);
  EXPECT_THROW(load_model("/nonexistent/model.json"), IoError);
  EXPECT_THROW(model_from_json(std::string(30000, '[')), IoError);
  const std::string json = model_to_json(train_model(exact_dataset(64), exact_spec()));
  const auto expect_rejected = [&json](const std::string& field, const std::string& value,
                                       const std::string& message) {
    std::string edited = json;
    const std::string key = "\"" + field + "\": ";
    const std::size_t at = edited.find(key);
    ASSERT_NE(at, std::string::npos) << field;
    const std::size_t begin = at + key.size();
    edited.replace(begin, edited.find_first_of(",\n}", begin) - begin, value);
    try {
      model_from_json(edited);
      ADD_FAILURE() << field << " " << value << " accepted";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  };
  // An observation count past 2^53 is rejected, not cast to garbage.
  expect_rejected("n_observations", "1e300", "n_observations");
  // A newer format version is refused rather than misread.
  expect_rejected("version", "99", "unsupported model file version 99 (only 1 is read)");
  // An unknown normalization is not served as per-second.
  expect_rejected("normalization", "\"bogus\"", "'bogus'");
  // Only the classical and HC3 covariances are represented.
  expect_rejected("cov_type", "\"HC1\"", "cov_type");
  // Equation 1 always carries β·V²f and γ·V: a file without one of them is
  // refused by name, even with one coefficient and standard error fewer so
  // that the counts match its spec.
  for (const std::string flag : {"include_static_v", "include_dynamic_base"}) {
    std::string edited = json;
    const std::string key = "\"" + flag + "\": true";
    const std::size_t at = edited.find(key);
    ASSERT_NE(at, std::string::npos) << flag;
    edited.replace(at, key.size(), "\"" + flag + "\": false");
    for (const std::string array : {"coefficients", "standard_errors"}) {
      const std::size_t open = edited.find("\"" + array + "\": [");
      ASSERT_NE(open, std::string::npos) << array;
      const std::size_t close = edited.find(']', open);
      const std::size_t last = edited.rfind(',', close);
      edited.erase(last, close - last);  // the last element
    }
    try {
      model_from_json(edited);
      ADD_FAILURE() << flag << ": false accepted";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
    }
  }
}

TEST(ModelIo, CoefficientCountValidated) {
  const Dataset ds = exact_dataset(64);
  const PowerModel model = train_model(ds, exact_spec());
  std::string json = model_to_json(model);
  // Drop one event from the spec: coefficient count no longer matches.
  const auto pos = json.find("\"PRF_DM\"");
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, std::string("\"PRF_DM\",").size());
  EXPECT_THROW(model_from_json(json), IoError);
}

// ---------------------------------------------------------------- estimator

TEST(Estimator, ReproducesModelPrediction) {
  const Dataset ds = exact_dataset(64);
  const PowerModel model = train_model(ds, exact_spec());
  OnlineEstimator estimator(model);

  const DataRow& row = ds.rows()[0];
  CounterSample sample;
  sample.elapsed_s = 2.0;
  sample.frequency_ghz = row.frequency_ghz;
  sample.voltage = row.avg_voltage;
  for (pmc::Preset p : model.spec().events) {
    sample.counts[p] = row.counter_rates.at(p) * sample.elapsed_s;
  }
  EXPECT_NEAR(estimator.estimate(sample), model.predict(Dataset({row})).front(), 1e-9);
}

TEST(Estimator, SmoothingConvergesToSteadyState) {
  const Dataset ds = exact_dataset(64);
  const PowerModel model = train_model(ds, exact_spec());
  OnlineEstimator smooth(model, 0.8);

  const DataRow& row = ds.rows()[0];
  CounterSample sample;
  sample.elapsed_s = 1.0;
  sample.frequency_ghz = row.frequency_ghz;
  sample.voltage = row.avg_voltage;
  for (pmc::Preset p : model.spec().events) {
    sample.counts[p] = row.counter_rates.at(p);
  }
  const double target = model.predict(Dataset({row})).front();
  double last = 0;
  for (int i = 0; i < 100; ++i) {
    last = smooth.estimate(sample);
  }
  EXPECT_NEAR(last, target, 1e-6);
  smooth.reset();
  EXPECT_NEAR(smooth.estimate(sample), target, 1e-9);  // first after reset is raw
}

TEST(Estimator, MissingEventRejected) {
  const Dataset ds = exact_dataset(64);
  OnlineEstimator estimator(train_model(ds, exact_spec()));
  CounterSample sample;
  sample.elapsed_s = 1.0;
  sample.frequency_ghz = 2.4;
  sample.voltage = 0.9;
  sample.counts[pmc::Preset::PRF_DM] = 1e7;  // TOT_CYC missing
  EXPECT_THROW(estimator.estimate(sample), InvalidArgument);
}

TEST(Estimator, InvalidSampleRejected) {
  const Dataset ds = exact_dataset(64);
  OnlineEstimator estimator(train_model(ds, exact_spec()));
  CounterSample sample;
  sample.elapsed_s = 0.0;
  EXPECT_THROW(estimator.estimate(sample), InvalidArgument);
  EXPECT_THROW(OnlineEstimator(train_model(ds, exact_spec()), 1.5), InvalidArgument);
}

}  // namespace
}  // namespace pwx::core
