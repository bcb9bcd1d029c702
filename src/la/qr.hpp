// Householder QR decomposition with column pivoting disabled by default.
//
// The regression stack solves least-squares problems through QR rather than
// the normal equations: for a design matrix with condition number kappa, the
// normal equations square kappa while QR preserves it — this matters for the
// V²f-scaled event-rate columns of Equation 1, which span several orders of
// magnitude.
//
// The factor is stored column-major (each column's Householder vector is
// contiguous), so reflector application streams through memory and
// append_column extends the factor in place without copying what is already
// there. Greedy selection's per-candidate what-if fits go through
// QrExtension, which appends a few columns *logically* on top of a shared
// read-only factor — many threads can extend the same base concurrently.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/matrix.hpp"

namespace pwx::la {

/// Compact Householder QR of an m x n matrix (m >= n).
class QrDecomposition {
public:
  /// Factor A = Q R. Throws pwx::InvalidArgument when m < n.
  explicit QrDecomposition(const Matrix& a);

  /// Minimum-residual solve of A x = b. Throws pwx::NumericalError when the
  /// factor is rank deficient (|r_ii| below tolerance).
  std::vector<double> solve(std::span<const double> b) const;

  /// Apply Qᵀ to a vector of length m.
  std::vector<double> apply_qt(std::span<const double> b) const;

  /// Upper-triangular factor R (n x n).
  Matrix r() const;

  /// Thin Q factor (m x n), formed explicitly on demand.
  Matrix thin_q() const;

  /// Inverse of R (n x n); used for (XᵀX)⁻¹ = R⁻¹R⁻ᵀ in covariance estimation.
  Matrix r_inverse() const;

  /// Extend the factor from m x n to m x (n+1) in O(mn): apply the stored
  /// reflectors to `column`, then form one new reflector from its tail. The
  /// result is bit-identical to refactorizing [A | column] from scratch
  /// (previously formed reflectors never depend on later columns). Throws
  /// pwx::InvalidArgument when the factor is already square (m == n).
  void append_column(std::span<const double> column);

  /// Apply the stored reflectors to a caller-owned column in place (the
  /// left-looking half of append_column). Afterwards entries 0..cols()-1 are
  /// the R entries the column would get and the tail is what a new reflector
  /// would be formed from. Used to pre-transform columns that sit to the
  /// right of every appended candidate in QrExtension trials.
  void transform_column(std::span<double> column) const;

  /// Apply only reflectors [first_reflector, cols()) to `column`. A column
  /// that already carries the first `first_reflector` reflectors (applied in
  /// order) ends up bit-identical to a full transform_column — this is how
  /// cached transformed columns are brought up to date after append_column.
  void transform_column(std::span<double> column, std::size_t first_reflector) const;

  /// True if all diagonal entries of R exceed the rank tolerance.
  bool full_rank() const { return full_rank_; }

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }

private:
  friend class QrExtension;
  double at(std::size_t i, std::size_t k) const { return qr_[k * m_ + i]; }
  double& at(std::size_t i, std::size_t k) { return qr_[k * m_ + i]; }

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::vector<double> qr_;    // column-major: Householder vectors below the
                              // diagonal, R on/above.
  std::vector<double> tau_;   // Householder scalar factors.
  bool full_rank_ = true;
  double rank_tol_ = 0.0;
};

/// A what-if extension of a QrDecomposition by a few appended columns that
/// never copies or mutates the base factor. Appending runs the same
/// arithmetic append_column would, so [base | appended] carries exactly the
/// factorization a from-scratch QR of the assembled design produces — a
/// trial fit through QrExtension is bit-identical to one through a fresh
/// QrDecomposition of the same columns.
///
/// The object owns only its appended columns' storage and may be rebound and
/// reused across trials (buffers keep their capacity). Concurrent trials
/// against one shared base need one QrExtension each; reads of the base are
/// lock-free because nothing ever writes it.
class QrExtension {
public:
  /// An unbound extension; rebind() before use.
  QrExtension() = default;
  explicit QrExtension(const QrDecomposition& base) { rebind(base); }

  /// Point at `base` (which must outlive the extension) and drop any
  /// appended columns. Keeps buffer capacity.
  void rebind(const QrDecomposition& base);

  /// Drop the appended columns, keeping the base binding.
  void clear();

  /// Append a raw design column: applies the base reflectors, then the
  /// extension reflectors, then forms this column's reflector.
  void append(std::span<const double> column);

  /// Append a column already run through base.transform_column — skips the
  /// base reflectors (use for fixed trailing columns cached per scan).
  void append_transformed(std::span<const double> column);

  std::size_t rows() const { return base_->rows(); }
  std::size_t cols() const { return base_->cols() + appended_; }

  /// Rank verdict over the combined factor, with the tolerance a
  /// from-scratch factorization of all cols() columns would carry.
  bool full_rank() const;

  /// Apply the extension reflectors to a vector that base.apply_qt has
  /// already been applied to, completing Qᵀy for the combined factor.
  void apply_qt_ext(std::span<double> y) const;

  /// Back-substitute the combined R against a combined Qᵀy (see
  /// apply_qt_ext). Identical arithmetic to QrDecomposition::solve's
  /// back-substitution. The caller must have checked full_rank().
  std::vector<double> solve_from_qty(std::span<const double> qty) const;

private:
  double col(std::size_t i, std::size_t j) const { return cols_[j * rows() + i]; }
  double r_at(std::size_t i, std::size_t j) const {
    return j < base_->cols() ? base_->at(i, j) : col(i, j - base_->cols());
  }

  const QrDecomposition* base_ = nullptr;
  std::size_t appended_ = 0;
  std::vector<double> cols_;    // column-major, same layout as the base factor
  std::vector<double> tau_;
  std::vector<double> staged_;  // reusable buffer for append()
};

}  // namespace pwx::la
