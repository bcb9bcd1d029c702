// Cholesky factorization of symmetric positive-definite matrices.
//
// Used for covariance sandwich products and as a fast path when the Gram
// matrix is known to be well conditioned (e.g. VIF auxiliary regressions on
// standardized predictors).
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace pwx::la {

/// Lower-triangular Cholesky factor L with A = L Lᵀ.
class CholeskyDecomposition {
public:
  /// Factor a symmetric positive-definite matrix. Throws pwx::NumericalError
  /// if a non-positive pivot is encountered.
  explicit CholeskyDecomposition(const Matrix& a);

  /// Solve A x = b.
  std::vector<double> solve(std::span<const double> b) const;

  /// Inverse of A (n x n) via forward/back substitution on the identity.
  Matrix inverse() const;

  /// The factor L.
  const Matrix& l() const { return l_; }

private:
  Matrix l_;
};

}  // namespace pwx::la
