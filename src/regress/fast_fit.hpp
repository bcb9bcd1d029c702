// Incremental OLS for greedy forward selection.
//
// Algorithm 1 and its stepwise-criterion variants fit one model per
// remaining candidate per step but only ever read R²/Adj.R² (and the RSS the
// information criteria need). StepwiseOls keeps the factor of the committed
// prefix and extends it one column at a time, so each trial fit replicates
// fit_ols bit for bit at O(mk) instead of a from-scratch O(mk²) refit, and
// score_fast gives the approximate R² behind the selection loop's gating
// pass. Every other fit (the final model, k-fold and LOWO folds) goes
// through fit_ols.
//
// Rank handling is deliberate: trial fits report collinearity through
// `full_rank` flags (no exceptions as control flow).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/matrix.hpp"
#include "la/qr.hpp"

namespace pwx::regress {

/// Safety margin for gating on StepwiseOls::score_fast: a candidate whose
/// fast score trails the running best exact R² by more than this provably
/// cannot beat it, so the exact (bit-identical) refit may be skipped. The
/// fast-vs-exact deviation on this codebase's designs measures below 1e-12
/// (both paths are backward-stable QR solves of the same projected problem);
/// 1e-8 leaves four orders of magnitude of margin, and a too-large gate only
/// costs extra exact refits, never a different selection.
inline constexpr double kFastScoreGate = 1e-8;

/// R²-only view of an OLS fit (intercept always included).
struct R2Fit {
  double r_squared = 0.0;
  double adj_r_squared = 0.0;
  double ss_res = 0.0;            ///< residual sum of squares
  std::size_t n_parameters = 0;   ///< design columns incl. intercept
  bool full_rank = false;         ///< false => the other fields are meaningless
};

/// Stepwise refitter for greedy forward selection over designs of the form
///
///   [ 1 | committed event columns… | candidate | trailing columns ]
///
/// (Equation 1: trailing = [V²f, V], the candidate is one event's rate·V²f).
/// The factor of the committed prefix [1 | committed…] is kept and extended by
/// column appends; a trial fit copies it and appends candidate + trailing, so
/// scoring one candidate costs O(m·k) rather than a from-scratch O(m·k²)
/// factorization. Every trial reproduces fit_ols on the same design *bit for
/// bit* — same column order, same Householder arithmetic, same residual-based
/// R² — so switching a caller from per-trial fit_ols to StepwiseOls can never
/// change which candidate wins a scan, even between near-tied candidates
/// whose R² differ only in the last few ulps.
class StepwiseOls {
public:
  /// Reusable per-thread buffers for score(): a scan loop keeps one Scratch
  /// per thread so trial fits never allocate.
  struct Scratch {
    la::QrExtension ext;
    std::vector<double> qty;
    std::vector<double> fast;  ///< score_fast working set (tails + rhs)
  };

  /// `trailing`: the m x t fixed right-most design columns; may be empty
  /// (t = 0). An intercept column is always implied on the left.
  StepwiseOls(const la::Matrix& trailing, std::span<const double> y);

  std::size_t rows() const { return y_.size(); }
  /// Number of committed (pushed) columns, excluding intercept and trailing.
  std::size_t committed() const { return n_committed_; }
  /// Parameter count of the committed design [1 | committed | trailing].
  std::size_t params() const { return 1 + n_committed_ + trailing_cols_; }

  /// fit_ols of y ~ [1 | committed | trailing] (minus the dead weight).
  R2Fit current() const;

  /// fit_ols of y ~ [1 | committed | candidate | trailing]. Const and
  /// thread-safe: a candidate scan may score concurrently from many threads,
  /// each with its own Scratch. Collinear candidates come back with
  /// full_rank == false (no exception).
  R2Fit score(std::span<const double> candidate, Scratch& scratch) const;
  R2Fit score(std::span<const double> candidate) const;

  /// Register the scan's candidate pool: `count` contiguous column-major
  /// columns of rows() entries each (`columns` must outlive the refitter).
  /// The refitter keeps each candidate pre-transformed through the committed
  /// prefix reflectors and updates the cache incrementally on push — one new
  /// reflector per commit, O(m) per candidate instead of the O(m·k) re-
  /// transform a plain score() pays per trial.
  void register_candidates(std::span<const double> columns, std::size_t count);

  /// score() for registered candidate `index`, using its cached transform.
  /// Bit-identical to score(column of index) — the cached column carries the
  /// same reflectors applied in the same order.
  R2Fit score_registered(std::size_t index, Scratch& scratch) const;

  /// Approximate R² of registered candidate `index`, for gating only: a
  /// plain-sqrt Householder least-squares on the prefix-projected tails (no
  /// bit-matching, no fitted-values pass), several times cheaper than
  /// score_registered. The value tracks the exact R² to a few 1e-13 on
  /// well-posed trials (backward-stable QR; see kFastScoreGate); degenerate
  /// trials return +infinity so a gate can never skip them. Deterministic:
  /// depends only on the candidate and the committed state, never on
  /// threading or evaluation order.
  double score_fast(std::size_t index, Scratch& scratch) const;

  /// Commit `column` into the prefix. Returns false — leaving the factor
  /// unchanged — when the column is collinear with the committed prefix.
  bool push(std::span<const double> column);

private:
  R2Fit fit_design(const double* candidate, const double* candidate_qt,
                   Scratch& scratch) const;
  void refresh_caches();
  std::span<const double> committed_column(std::size_t j) const {
    return {committed_.data() + j * rows(), rows()};
  }
  std::span<const double> trailing_column(std::size_t t) const {
    return {trailing_.data() + t * rows(), rows()};
  }
  std::span<const double> transformed_trailing(std::size_t t) const {
    return {trailing_qt_.data() + t * rows(), rows()};
  }

  la::QrDecomposition prefix_;       ///< QR([1 | committed…])
  std::size_t n_committed_ = 0;
  std::size_t trailing_cols_ = 0;
  std::vector<double> committed_;    ///< column-major committed columns
  std::vector<double> trailing_;     ///< column-major trailing columns
  std::vector<double> trailing_qt_;  ///< trailing run through prefix reflectors
  std::vector<double> y_;
  std::vector<double> base_qty_;     ///< prefix Qᵀy, shared by every trial
  double ss_tot_ = 0.0;              ///< centered total sum of squares
  const double* cand_raw_ = nullptr; ///< registered candidate columns (borrowed)
  std::size_t n_cands_ = 0;
  std::vector<double> cand_qt_;      ///< candidates through prefix reflectors
};

}  // namespace pwx::regress
