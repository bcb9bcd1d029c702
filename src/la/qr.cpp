#include "la/qr.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace pwx::la {

QrDecomposition::QrDecomposition(const Matrix& a)
    : m_(a.rows()), n_(a.cols()), qr_(a.rows() * a.cols()), tau_(a.cols(), 0.0) {
  PWX_REQUIRE(m_ >= n_ && n_ > 0, "QR needs m >= n >= 1, got ", m_, "x", n_);
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t i = 0; i < m_; ++i) {
      at(i, k) = a(i, k);
    }
  }

  for (std::size_t k = 0; k < n_; ++k) {
    // Householder vector for column k, rows k..m-1.
    double norm = 0.0;
    for (std::size_t i = k; i < m_; ++i) {
      norm = std::hypot(norm, at(i, k));
    }
    if (norm == 0.0) {
      tau_[k] = 0.0;
      continue;
    }
    if (at(k, k) < 0.0) {
      norm = -norm;  // norm takes x_k's sign so v_k = 1 + |x_k|/|x| (no cancellation)
    }
    for (std::size_t i = k; i < m_; ++i) {
      at(i, k) /= norm;
    }
    at(k, k) += 1.0;
    tau_[k] = at(k, k);

    // Apply the reflector to the remaining columns.
    for (std::size_t j = k + 1; j < n_; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m_; ++i) {
        s += at(i, k) * at(i, j);
      }
      s = -s / at(k, k);
      for (std::size_t i = k; i < m_; ++i) {
        at(i, j) += s * at(i, k);
      }
    }
    at(k, k) = -norm;  // H x = -norm * e_k, so r_kk = -norm; v_k lives in tau_
  }

  // Rank tolerance relative to the largest diagonal magnitude.
  double max_diag = 0.0;
  for (std::size_t k = 0; k < n_; ++k) {
    max_diag = std::max(max_diag, std::fabs(at(k, k)));
  }
  rank_tol_ =
      std::max<double>(m_, n_) * std::numeric_limits<double>::epsilon() * max_diag;
  for (std::size_t k = 0; k < n_; ++k) {
    if (std::fabs(at(k, k)) <= rank_tol_) {
      full_rank_ = false;
      break;
    }
  }
}

void QrDecomposition::transform_column(std::span<double> column) const {
  transform_column(column, 0);
}

void QrDecomposition::transform_column(std::span<double> column,
                                       std::size_t first_reflector) const {
  PWX_REQUIRE(column.size() == m_, "transform_column: expected length ", m_, ", got ",
              column.size());
  for (std::size_t k = first_reflector; k < n_; ++k) {
    if (tau_[k] == 0.0) {
      continue;
    }
    // Reconstruct v_k: v_k[k] = tau_[k] (the stored 1+ value), below-diagonal
    // entries live in the factor. Same arithmetic as the constructor's
    // right-looking update of a trailing column.
    double s = tau_[k] * column[k];
    for (std::size_t i = k + 1; i < m_; ++i) {
      s += at(i, k) * column[i];
    }
    s = -s / tau_[k];
    column[k] += s * tau_[k];
    for (std::size_t i = k + 1; i < m_; ++i) {
      column[i] += s * at(i, k);
    }
  }
}

void QrDecomposition::append_column(std::span<const double> column) {
  PWX_REQUIRE(column.size() == m_, "append_column: expected length ", m_, ", got ",
              column.size());
  PWX_REQUIRE(m_ > n_, "append_column: factor is already square (", m_, "x", n_, ")");

  const std::size_t kn = n_;  // index of the new column
  qr_.resize(qr_.size() + m_);
  n_ += 1;
  tau_.push_back(0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    at(i, kn) = column[i];
  }

  // Apply the stored reflectors in order, then form one new reflector — the
  // same arithmetic the constructor performs on a trailing column, so the
  // extended factor matches a from-scratch factorization bit for bit.
  for (std::size_t k = 0; k < kn; ++k) {
    if (tau_[k] == 0.0) {
      continue;
    }
    double s = tau_[k] * at(k, kn);
    for (std::size_t i = k + 1; i < m_; ++i) {
      s += at(i, k) * at(i, kn);
    }
    s = -s / tau_[k];
    at(k, kn) += s * tau_[k];
    for (std::size_t i = k + 1; i < m_; ++i) {
      at(i, kn) += s * at(i, k);
    }
  }

  double norm = 0.0;
  for (std::size_t i = kn; i < m_; ++i) {
    norm = std::hypot(norm, at(i, kn));
  }
  if (norm != 0.0) {
    if (at(kn, kn) < 0.0) {
      norm = -norm;
    }
    for (std::size_t i = kn; i < m_; ++i) {
      at(i, kn) /= norm;
    }
    at(kn, kn) += 1.0;
    tau_[kn] = at(kn, kn);
    at(kn, kn) = -norm;
  }

  // Re-derive the rank tolerance over all diagonals, as the constructor does.
  double max_diag = 0.0;
  for (std::size_t k = 0; k < n_; ++k) {
    max_diag = std::max(max_diag, std::fabs(at(k, k)));
  }
  rank_tol_ =
      std::max<double>(m_, n_) * std::numeric_limits<double>::epsilon() * max_diag;
  full_rank_ = true;
  for (std::size_t k = 0; k < n_; ++k) {
    if (std::fabs(at(k, k)) <= rank_tol_) {
      full_rank_ = false;
      break;
    }
  }
}

std::vector<double> QrDecomposition::apply_qt(std::span<const double> b) const {
  PWX_REQUIRE(b.size() == m_, "apply_qt: expected length ", m_, ", got ", b.size());
  std::vector<double> y(b.begin(), b.end());
  for (std::size_t k = 0; k < n_; ++k) {
    if (tau_[k] == 0.0) {
      continue;
    }
    double s = tau_[k] * y[k];
    for (std::size_t i = k + 1; i < m_; ++i) {
      s += at(i, k) * y[i];
    }
    s = -s / tau_[k];
    y[k] += s * tau_[k];
    for (std::size_t i = k + 1; i < m_; ++i) {
      y[i] += s * at(i, k);
    }
  }
  return y;
}

std::vector<double> QrDecomposition::solve(std::span<const double> b) const {
  if (!full_rank_) {
    throw NumericalError("QR solve on rank-deficient matrix (collinear columns)");
  }
  std::vector<double> y = apply_qt(b);
  std::vector<double> x(n_);
  for (std::size_t kk = n_; kk-- > 0;) {
    double s = y[kk];
    for (std::size_t j = kk + 1; j < n_; ++j) {
      s -= at(kk, j) * x[j];
    }
    x[kk] = s / at(kk, kk);
  }
  return x;
}

Matrix QrDecomposition::r() const {
  Matrix out(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i; j < n_; ++j) {
      out(i, j) = at(i, j);
    }
  }
  return out;
}

Matrix QrDecomposition::thin_q() const {
  Matrix q(m_, n_);
  // Start from the first n columns of I and apply reflectors in reverse.
  for (std::size_t j = 0; j < n_; ++j) {
    q(j, j) = 1.0;
  }
  for (std::size_t k = n_; k-- > 0;) {
    if (tau_[k] == 0.0) {
      continue;
    }
    for (std::size_t j = 0; j < n_; ++j) {
      double s = tau_[k] * q(k, j);
      for (std::size_t i = k + 1; i < m_; ++i) {
        s += at(i, k) * q(i, j);
      }
      s = -s / tau_[k];
      q(k, j) += s * tau_[k];
      for (std::size_t i = k + 1; i < m_; ++i) {
        q(i, j) += s * at(i, k);
      }
    }
  }
  return q;
}

Matrix QrDecomposition::r_inverse() const {
  if (!full_rank_) {
    throw NumericalError("R inverse on rank-deficient factor");
  }
  Matrix inv(n_, n_);
  // Solve R * inv = I column by column (back substitution).
  for (std::size_t c = 0; c < n_; ++c) {
    for (std::size_t kk = n_; kk-- > 0;) {
      double s = (kk == c) ? 1.0 : 0.0;
      for (std::size_t j = kk + 1; j < n_; ++j) {
        s -= at(kk, j) * inv(j, c);
      }
      inv(kk, c) = s / at(kk, kk);
    }
  }
  return inv;
}

void QrExtension::rebind(const QrDecomposition& base) {
  base_ = &base;
  clear();
}

void QrExtension::clear() {
  appended_ = 0;
  cols_.clear();
  tau_.clear();
}

void QrExtension::append_transformed(std::span<const double> column) {
  const std::size_t m = rows();
  PWX_REQUIRE(column.size() == m, "QrExtension: expected column length ", m, ", got ",
              column.size());
  const std::size_t kn = cols();  // combined index of the new column
  PWX_REQUIRE(m > kn, "QrExtension: factor is already square (", m, "x", kn, ")");

  cols_.insert(cols_.end(), column.begin(), column.end());
  tau_.push_back(0.0);
  const std::size_t j = appended_;
  appended_ += 1;
  double* c = cols_.data() + j * m;

  // Apply the previously appended extension reflectors (the base reflectors
  // were already applied by the caller / append), then form this column's
  // reflector — identical arithmetic to QrDecomposition::append_column.
  for (std::size_t e = 0; e < j; ++e) {
    if (tau_[e] == 0.0) {
      continue;
    }
    const double* v = cols_.data() + e * m;
    const std::size_t k = base_->cols() + e;
    double s = tau_[e] * c[k];
    for (std::size_t i = k + 1; i < m; ++i) {
      s += v[i] * c[i];
    }
    s = -s / tau_[e];
    c[k] += s * tau_[e];
    for (std::size_t i = k + 1; i < m; ++i) {
      c[i] += s * v[i];
    }
  }

  double norm = 0.0;
  for (std::size_t i = kn; i < m; ++i) {
    norm = std::hypot(norm, c[i]);
  }
  if (norm != 0.0) {
    if (c[kn] < 0.0) {
      norm = -norm;
    }
    for (std::size_t i = kn; i < m; ++i) {
      c[i] /= norm;
    }
    c[kn] += 1.0;
    tau_[j] = c[kn];
    c[kn] = -norm;
  }
}

void QrExtension::append(std::span<const double> column) {
  const std::size_t m = rows();
  PWX_REQUIRE(column.size() == m, "QrExtension: expected column length ", m, ", got ",
              column.size());
  // Run the base reflectors over a staged copy, then let append_transformed
  // finish with the extension reflectors and the new reflector.
  staged_.assign(column.begin(), column.end());
  base_->transform_column(staged_);
  append_transformed(staged_);
}

bool QrExtension::full_rank() const {
  const std::size_t m = rows();
  const std::size_t n = cols();
  // Same tolerance a from-scratch factorization of all n columns computes:
  // max(m, n)·eps·max|r_ii| over the combined diagonal.
  double max_diag = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    max_diag = std::max(max_diag, std::fabs(r_at(k, k)));
  }
  const double tol =
      std::max<double>(m, n) * std::numeric_limits<double>::epsilon() * max_diag;
  for (std::size_t k = 0; k < n; ++k) {
    if (std::fabs(r_at(k, k)) <= tol) {
      return false;
    }
  }
  return true;
}

void QrExtension::apply_qt_ext(std::span<double> y) const {
  const std::size_t m = rows();
  PWX_REQUIRE(y.size() == m, "apply_qt_ext: expected length ", m, ", got ", y.size());
  for (std::size_t e = 0; e < appended_; ++e) {
    if (tau_[e] == 0.0) {
      continue;
    }
    const double* v = cols_.data() + e * m;
    const std::size_t k = base_->cols() + e;
    double s = tau_[e] * y[k];
    for (std::size_t i = k + 1; i < m; ++i) {
      s += v[i] * y[i];
    }
    s = -s / tau_[e];
    y[k] += s * tau_[e];
    for (std::size_t i = k + 1; i < m; ++i) {
      y[i] += s * v[i];
    }
  }
}

std::vector<double> QrExtension::solve_from_qty(std::span<const double> qty) const {
  const std::size_t n = cols();
  PWX_REQUIRE(qty.size() >= n, "solve_from_qty: expected at least ", n,
              " entries, got ", qty.size());
  std::vector<double> x(n);
  for (std::size_t kk = n; kk-- > 0;) {
    double s = qty[kk];
    for (std::size_t j = kk + 1; j < n; ++j) {
      s -= r_at(kk, j) * x[j];
    }
    x[kk] = s / r_at(kk, kk);
  }
  return x;
}

}  // namespace pwx::la
