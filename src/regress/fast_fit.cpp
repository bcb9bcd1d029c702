#include "regress/fast_fit.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace pwx::regress {

namespace {

double centered_ss_tot(std::span<const double> y) {
  const double ybar = stats::mean(y);
  double ss_tot = 0.0;
  for (double yi : y) {
    ss_tot += (yi - ybar) * (yi - ybar);
  }
  return ss_tot;
}

la::Matrix intercept_column(std::size_t m) {
  la::Matrix out(m, 1);
  for (std::size_t r = 0; r < m; ++r) {
    out(r, 0) = 1.0;
  }
  return out;
}

}  // namespace

StepwiseOls::StepwiseOls(const la::Matrix& trailing, std::span<const double> y)
    : prefix_(intercept_column(y.size())),
      trailing_cols_(trailing.cols()),
      y_(y.begin(), y.end()) {
  PWX_REQUIRE(trailing.rows() == y.size(), "StepwiseOls: trailing has ",
              trailing.rows(), " rows but y has ", y.size());
  trailing_.resize(trailing_cols_ * rows());
  for (std::size_t t = 0; t < trailing_cols_; ++t) {
    for (std::size_t r = 0; r < rows(); ++r) {
      trailing_[t * rows() + r] = trailing(r, t);
    }
  }
  ss_tot_ = centered_ss_tot(y_);
  refresh_caches();
}

void StepwiseOls::refresh_caches() {
  // Per-step shared work: the prefix reflectors never change between pushes,
  // so their action on y and on the fixed trailing columns is computed once
  // and reused by every trial of the scan.
  base_qty_ = prefix_.apply_qt(y_);
  trailing_qt_ = trailing_;
  for (std::size_t t = 0; t < trailing_cols_; ++t) {
    prefix_.transform_column(
        std::span<double>(trailing_qt_.data() + t * rows(), rows()));
  }
}

R2Fit StepwiseOls::fit_design(const double* candidate, const double* candidate_qt,
                              Scratch& scratch) const {
  const std::size_t m = rows();
  const std::size_t cand = candidate != nullptr ? 1 : 0;
  const std::size_t p = 1 + n_committed_ + cand + trailing_cols_;
  PWX_REQUIRE(m > p, "StepwiseOls needs more observations (", m,
              ") than parameters (", p, ")");

  // Extend the committed factor in fit_ols's column order:
  // [1 | committed… | candidate | trailing…]. The extension reproduces the
  // from-scratch Householder factorization bit for bit, so the factor — and
  // everything derived from it — equals what fit_ols computes on the
  // assembled design.
  scratch.ext.rebind(prefix_);
  if (candidate_qt != nullptr) {
    scratch.ext.append_transformed({candidate_qt, m});
  } else if (candidate != nullptr) {
    scratch.ext.append({candidate, m});
  }
  for (std::size_t t = 0; t < trailing_cols_; ++t) {
    scratch.ext.append_transformed(transformed_trailing(t));
  }

  R2Fit res;
  res.n_parameters = p;
  if (!scratch.ext.full_rank()) {
    return res;  // collinear design; full_rank stays false
  }

  scratch.qty.assign(base_qty_.begin(), base_qty_.end());
  scratch.ext.apply_qt_ext(scratch.qty);
  const std::vector<double> beta = scratch.ext.solve_from_qty(scratch.qty);

  // Fitted values and RSS in Matrix::multiply / fit_ols order: accumulate
  // each row's dot product left to right over the design columns.
  double ss_res = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    double fitted = 0.0;
    fitted += 1.0 * beta[0];
    for (std::size_t j = 0; j < n_committed_; ++j) {
      fitted += committed_column(j)[r] * beta[1 + j];
    }
    if (candidate != nullptr) {
      fitted += candidate[r] * beta[1 + n_committed_];
    }
    for (std::size_t t = 0; t < trailing_cols_; ++t) {
      fitted += trailing_column(t)[r] * beta[1 + n_committed_ + cand + t];
    }
    const double e = y_[r] - fitted;
    ss_res += e * e;
  }

  res.ss_res = ss_res;
  res.r_squared = ss_tot_ > 0.0 ? 1.0 - ss_res / ss_tot_ : 1.0;
  res.adj_r_squared = 1.0 - (1.0 - res.r_squared) * static_cast<double>(m - 1) /
                                static_cast<double>(m - p);
  res.full_rank = true;
  return res;
}

R2Fit StepwiseOls::current() const {
  Scratch scratch;
  return fit_design(nullptr, nullptr, scratch);
}

R2Fit StepwiseOls::score(std::span<const double> candidate, Scratch& scratch) const {
  PWX_REQUIRE(candidate.size() == rows(), "StepwiseOls::score: expected length ",
              rows(), ", got ", candidate.size());
  return fit_design(candidate.data(), nullptr, scratch);
}

R2Fit StepwiseOls::score(std::span<const double> candidate) const {
  Scratch scratch;
  return score(candidate, scratch);
}

void StepwiseOls::register_candidates(std::span<const double> columns,
                                      std::size_t count) {
  PWX_REQUIRE(columns.size() == count * rows(), "register_candidates: expected ",
              count * rows(), " values for ", count, " columns, got ",
              columns.size());
  cand_raw_ = columns.data();
  n_cands_ = count;
  cand_qt_.assign(columns.begin(), columns.end());
  for (std::size_t c = 0; c < n_cands_; ++c) {
    prefix_.transform_column(std::span<double>(cand_qt_.data() + c * rows(), rows()));
  }
}

R2Fit StepwiseOls::score_registered(std::size_t index, Scratch& scratch) const {
  PWX_REQUIRE(index < n_cands_, "score_registered: index ", index, " out of ",
              n_cands_, " registered candidates");
  return fit_design(cand_raw_ + index * rows(), cand_qt_.data() + index * rows(),
                    scratch);
}

double StepwiseOls::score_fast(std::size_t index, Scratch& scratch) const {
  PWX_REQUIRE(index < n_cands_, "score_fast: index ", index, " out of ", n_cands_,
              " registered candidates");
  const std::size_t m = rows();
  const std::size_t k0 = prefix_.cols();
  const std::size_t cols = 1 + trailing_cols_;  // candidate + trailing
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (m <= k0 + cols) {
    return kInf;  // degenerate; let the exact path judge it
  }
  const std::size_t tail = m - k0;

  // The cached transforms already hold the prefix-projected problem: entries
  // k0.. of each transformed column (and of base Qᵀy) live in the orthogonal
  // complement of [1 | committed]. The trial's R² improvement is the
  // least-squares fit of those tails, solved here with ordinary
  // sqrt-of-sum-of-squares Householder steps — stable, vectorizable, and
  // free of the bit-matching hypot chains the exact path must keep.
  scratch.fast.resize((cols + 1) * tail);
  double* a = scratch.fast.data();          // cols x tail, column-major
  double* rhs = a + cols * tail;            // projected y tail
  const double* cand = cand_qt_.data() + index * m;
  for (std::size_t i = 0; i < tail; ++i) {
    a[i] = cand[k0 + i];
  }
  for (std::size_t t = 0; t < trailing_cols_; ++t) {
    const double* src = trailing_qt_.data() + t * m;
    double* dst = a + (1 + t) * tail;
    for (std::size_t i = 0; i < tail; ++i) {
      dst[i] = src[k0 + i];
    }
  }
  for (std::size_t i = 0; i < tail; ++i) {
    rhs[i] = base_qty_[k0 + i];
  }

  for (std::size_t j = 0; j < cols; ++j) {
    double* x = a + j * tail;
    double nrm2 = 0.0;
    for (std::size_t i = j; i < tail; ++i) {
      nrm2 += x[i] * x[i];
    }
    const double nrm = std::sqrt(nrm2);
    if (nrm == 0.0) {
      return kInf;  // (near-)rank-deficient; defer to the exact path
    }
    const double alpha = x[j] < 0.0 ? nrm : -nrm;
    x[j] -= alpha;  // v = x - alpha e_j, stored in place
    const double vtv = nrm2 - 2.0 * alpha * (x[j] + alpha) + alpha * alpha;
    if (vtv == 0.0) {
      return kInf;
    }
    for (std::size_t c = j + 1; c < cols; ++c) {
      double* w = a + c * tail;
      double s = 0.0;
      for (std::size_t i = j; i < tail; ++i) {
        s += x[i] * w[i];
      }
      s = 2.0 * s / vtv;
      for (std::size_t i = j; i < tail; ++i) {
        w[i] -= s * x[i];
      }
    }
    double s = 0.0;
    for (std::size_t i = j; i < tail; ++i) {
      s += x[i] * rhs[i];
    }
    s = 2.0 * s / vtv;
    for (std::size_t i = j; i < tail; ++i) {
      rhs[i] -= s * x[i];
    }
  }

  double rss = 0.0;
  for (std::size_t i = cols; i < tail; ++i) {
    rss += rhs[i] * rhs[i];
  }
  return ss_tot_ > 0.0 ? 1.0 - rss / ss_tot_ : 1.0;
}

bool StepwiseOls::push(std::span<const double> column) {
  PWX_REQUIRE(column.size() == rows(), "StepwiseOls::push: expected length ", rows(),
              ", got ", column.size());
  const std::size_t reflectors_before = prefix_.cols();
  la::QrDecomposition extended = prefix_;
  extended.append_column(column);
  if (!extended.full_rank()) {
    return false;
  }
  prefix_ = std::move(extended);
  committed_.insert(committed_.end(), column.begin(), column.end());
  n_committed_ += 1;
  refresh_caches();
  // Bring the registered candidates' cached transforms up to date: only the
  // newly formed reflector is missing, so this is O(m) per candidate.
  for (std::size_t c = 0; c < n_cands_; ++c) {
    prefix_.transform_column(std::span<double>(cand_qt_.data() + c * rows(), rows()),
                             reflectors_before);
  }
  return true;
}

}  // namespace pwx::regress
