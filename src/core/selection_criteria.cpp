#include "core/selection_criteria.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/model.hpp"
#include "core/pcc.hpp"
#include "core/selection_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "regress/fast_fit.hpp"
#include "regress/lasso.hpp"
#include "stats/correlation.hpp"
#include "stats/standardize.hpp"

namespace pwx::core {

namespace {

/// Lower-is-better criterion value for an R²-only fit summary.
double criterion_value(SelectionCriterion criterion, const regress::R2Fit& fit,
                       std::size_t n_observations) {
  switch (criterion) {
    case SelectionCriterion::RSquared:
      return -fit.r_squared;
    case SelectionCriterion::AdjustedRSquared:
      return -fit.adj_r_squared;
    case SelectionCriterion::Aic:
    case SelectionCriterion::Bic: {
      const double n = static_cast<double>(n_observations);
      const double k = static_cast<double>(fit.n_parameters);
      const double penalty =
          criterion == SelectionCriterion::Aic ? 2.0 * k : k * std::log(n);
      return n * std::log(std::max(fit.ss_res, 1e-300) / n) + penalty;
    }
  }
  throw InvalidArgument("invalid selection criterion");
}

bool is_information_criterion(SelectionCriterion criterion) {
  return criterion == SelectionCriterion::Aic || criterion == SelectionCriterion::Bic;
}

}  // namespace

std::vector<pmc::Preset> CriterionSelectionResult::selected() const {
  std::vector<pmc::Preset> out;
  out.reserve(steps.size());
  for (const CriterionStep& step : steps) {
    out.push_back(step.base.event);
  }
  return out;
}

CriterionSelectionResult select_events_with_criterion(
    const acquire::Dataset& dataset, const std::vector<pmc::Preset>& candidates,
    const SelectionOptions& options, SelectionCriterion criterion) {
  PWX_SPAN("selection.select_events");
  static obs::Counter& c_calls =
      obs::registry().counter("selection.calls", "greedy selection invocations");
  static obs::Counter& c_scans = obs::registry().counter(
      "selection.candidate_scans", "fast-gate candidate scores computed");
  static obs::Counter& c_refits = obs::registry().counter(
      "selection.exact_refits", "exact QR refits in the argmax pass");
  static obs::Counter& c_gate_skips = obs::registry().counter(
      "selection.gate_skips", "candidates skipped by the fast-score gate");
  static obs::Histogram& h_step = obs::registry().histogram(
      "selection.step_seconds", {}, "wall time of one greedy selection step");
  c_calls.add(1);
  PWX_REQUIRE(!candidates.empty(), "selection needs candidate events");
  PWX_REQUIRE(options.count >= 1 && options.count <= candidates.size(),
              "cannot select ", options.count, " events from ", candidates.size(),
              " candidates");

  CriterionSelectionResult result;
  result.criterion = criterion;
  const bool information = is_information_criterion(criterion);
  const bool vif_veto = std::isfinite(options.max_mean_vif);

  const SelectionColumnPool pool(dataset, candidates, options.normalization);
  regress::StepwiseOls fit(pool.base_features(), pool.power());
  fit.register_candidates(pool.feature_columns(), pool.candidate_count());

  const std::size_t n_candidates = pool.candidate_count();
  std::vector<std::size_t> selected;  // candidate indices, selection order
  std::vector<char> used(n_candidates, 0);
  double current = 0.0;  // criterion value of the committed model

  // Commits candidate `index`, whose trial fit scored `value`; `vetted_vif`
  // is the mean VIF the stage-2 veto already computed for the new set.
  const auto commit = [&](std::size_t index, const regress::R2Fit& trial, double value,
                          double vetted_vif) {
    PWX_CHECK(fit.push(pool.feature_column(index)),
              "scored candidate no longer fits — inconsistent column pool");
    selected.push_back(index);
    used[index] = 1;
    current = value;

    CriterionStep step;
    step.base.event = pool.events()[index];
    step.base.r_squared = trial.r_squared;
    step.base.adj_r_squared = trial.adj_r_squared;
    if (selected.size() >= 2) {
      step.base.mean_vif = vif_veto ? vetted_vif : pool.mean_vif(selected);
    }
    step.criterion_value = information ? value : -value;
    PWX_LOG_DEBUG("selection step ", selected.size(), ": ",
                  std::string(pmc::preset_name(step.base.event)),
                  " R2=", step.base.r_squared, " meanVIF=", step.base.mean_vif);
    result.steps.push_back(step);
  };

  if (options.init_with_cycle_counter) {
    // Walker et al. seed the set with the cycle counter; its fit is the
    // reference the information criteria's early stop compares against.
    const auto it =
        std::find(candidates.begin(), candidates.end(), pmc::Preset::TOT_CYC);
    PWX_REQUIRE(it != candidates.end(),
                "cycle-counter initialization requires TOT_CYC among the candidates");
    const auto index =
        static_cast<std::size_t>(std::distance(candidates.begin(), it));
    const regress::R2Fit seeded = fit.score(pool.feature_column(index));
    PWX_CHECK(seeded.full_rank, "cycle-counter-only fit failed");
    commit(index, seeded, criterion_value(criterion, seeded, fit.rows()), 0.0);
  } else {
    // The event-free model is the early-stop reference.
    const regress::R2Fit base = fit.current();
    PWX_CHECK(base.full_rank, "base design (V²f, V) is rank deficient");
    current = criterion_value(criterion, base, fit.rows());
  }

  std::vector<double> fast(n_candidates);

  while (selected.size() < options.count) {
    const obs::ScopedTimer step_timer(h_step);
    c_scans.add(n_candidates - selected.size());
    // Gating pass: cheap approximate R² per remaining candidate. Each value
    // depends only on the committed factor and that candidate's cached
    // columns, so the loop parallelizes without changing any result.
    const bool score_vif = vif_veto && !selected.empty();
    const auto n = static_cast<std::ptrdiff_t>(n_candidates);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::ptrdiff_t ii = 0; ii < n; ++ii) {
      const auto i = static_cast<std::size_t>(ii);
      thread_local regress::StepwiseOls::Scratch scratch;
      fast[i] = used[i] ? -std::numeric_limits<double>::infinity()
                        : fit.score_fast(i, scratch);
    }

    // Deterministic arg-min over *exact* (bit-identical-to-fit_ols) refits,
    // visiting candidates in index order with strict improvement, so the
    // lowest index wins ties. The stage-2 VIF veto is evaluated lazily, on
    // improving candidates only. The fast pass only licenses skips: a
    // candidate whose fast score trails the running best R² by more than
    // kFastScoreGate cannot win (the gate exceeds the fast-vs-exact deviation
    // by orders of magnitude), and skipping a loser never changes the running
    // best, the veto decisions, or the winner. Every candidate in a scan adds
    // the same parameter count, so all four criteria order candidates exactly
    // as R² does and the gate holds for each of them.
    regress::StepwiseOls::Scratch scratch;
    double best_value = std::numeric_limits<double>::infinity();
    double best_r2 = -std::numeric_limits<double>::infinity();
    std::size_t best_index = n_candidates;
    regress::R2Fit best_fit;
    double best_vif = 0.0;
    std::vector<std::size_t> trial_events;
    std::size_t exact_refits = 0;
    std::size_t gate_skips = 0;
    for (std::size_t i = 0; i < n_candidates; ++i) {
      if (used[i]) {
        continue;
      }
      if (fast[i] + regress::kFastScoreGate <= best_r2) {
        gate_skips += 1;
        continue;
      }
      exact_refits += 1;
      const regress::R2Fit trial = fit.score_registered(i, scratch);
      if (!trial.full_rank) {
        continue;  // collinear with the committed set
      }
      const double value = criterion_value(criterion, trial, fit.rows());
      if (value >= best_value) {
        continue;  // no improvement
      }
      double trial_vif = 0.0;
      if (score_vif) {
        trial_events.assign(selected.begin(), selected.end());
        trial_events.push_back(i);
        trial_vif = pool.mean_vif(trial_events);
        if (trial_vif > options.max_mean_vif) {
          continue;  // stage-2 veto: event is too collinear to stay stable
        }
      }
      best_value = value;
      best_r2 = trial.r_squared;
      best_index = i;
      best_fit = trial;
      best_vif = trial_vif;
    }
    c_refits.add(exact_refits);
    c_gate_skips.add(gate_skips);
    PWX_CHECK(best_index < n_candidates || information || vif_veto,
              "no candidate event admits a full-rank fit");
    // The veto may leave no candidate, and the information criteria stop
    // when the best candidate does not improve on the committed model.
    if (best_index >= n_candidates || (information && best_value >= current)) {
      result.stopped_early = true;
      break;
    }
    commit(best_index, best_fit, best_value, best_vif);
  }
  return result;
}

std::vector<pmc::Preset> select_events_by_correlation(
    const acquire::Dataset& dataset, const std::vector<pmc::Preset>& candidates,
    std::size_t count) {
  PWX_REQUIRE(count >= 1 && count <= candidates.size(), "cannot take ", count,
              " of ", candidates.size(), " candidates");
  auto correlations = correlate_with_power(dataset, candidates);
  std::stable_sort(correlations.begin(), correlations.end(),
                   [](const CounterCorrelation& a, const CounterCorrelation& b) {
                     return std::fabs(a.pcc) > std::fabs(b.pcc);
                   });
  std::vector<pmc::Preset> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(correlations[i].preset);
  }
  return out;
}

LassoSelectionResult select_events_lasso(const acquire::Dataset& dataset,
                                         const std::vector<pmc::Preset>& candidates,
                                         std::size_t count,
                                         RateNormalization normalization) {
  PWX_REQUIRE(count >= 1 && count <= candidates.size(), "cannot take ", count,
              " of ", candidates.size(), " candidates");

  const la::Matrix x = build_features(
      dataset, FeatureSpec{.events = candidates, .normalization = normalization});
  const std::vector<double> y = dataset.power();

  // Walk the path from sparse to dense; read off the first fit whose active
  // set covers `count` *event* columns (the trailing V²f and V columns do
  // not count as selected events).
  const auto path = regress::lasso_path(x, y, 50, 1e-4);
  const std::size_t n_events = candidates.size();
  for (std::size_t s = 0; s < path.size(); ++s) {
    const regress::LassoResult& fit = path[s];
    std::vector<std::size_t> active_events;
    for (std::size_t j : fit.active_set()) {
      if (j < n_events) {
        active_events.push_back(j);
      }
    }
    if (active_events.size() < count) {
      continue;
    }
    // Rank by |standardized coefficient| = |beta_j| * sd(column j).
    const stats::ColumnScaler scaler = stats::ColumnScaler::fit(x);
    std::stable_sort(active_events.begin(), active_events.end(),
                     [&](std::size_t a, std::size_t b) {
                       return std::fabs(fit.beta[a + 1]) * scaler.scale[a] >
                              std::fabs(fit.beta[b + 1]) * scaler.scale[b];
                     });
    // LASSO happily splits weight across (near-)identical derived counters
    // (PAPI aliases like L2_ICA/L2_ICR); keep only one representative of any
    // such pair or the downstream OLS design is rank deficient.
    std::vector<std::size_t> deduped;
    for (std::size_t candidate : active_events) {
      bool duplicate = false;
      const auto col = x.col(candidate);
      for (std::size_t taken : deduped) {
        if (std::fabs(stats::pearson(col, x.col(taken))) > 0.999) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        deduped.push_back(candidate);
      }
      if (deduped.size() == count) {
        break;
      }
    }
    if (deduped.size() < count) {
      continue;  // need a denser path point
    }
    LassoSelectionResult out;
    out.lambda = fit.lambda;
    out.r_squared = fit.r_squared;
    out.path_position = s;
    for (std::size_t i = 0; i < count; ++i) {
      out.selected.push_back(candidates[deduped[i]]);
    }
    return out;
  }
  throw NumericalError(
      "LASSO path never activated enough events — extend the path or reduce count");
}

}  // namespace pwx::core
