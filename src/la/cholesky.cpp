#include "la/cholesky.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pwx::la {

CholeskyDecomposition::CholeskyDecomposition(const Matrix& a) : l_(a.rows(), a.cols()) {
  PWX_REQUIRE(a.rows() == a.cols() && a.rows() > 0, "Cholesky needs a square matrix");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      d -= l_(j, k) * l_(j, k);
    }
    if (!(d > 0.0)) {
      throw NumericalError("Cholesky: matrix not positive definite (pivot " +
                           std::to_string(j) + " = " + std::to_string(d) + ")");
    }
    l_(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        s -= l_(i, k) * l_(j, k);
      }
      l_(i, j) = s / l_(j, j);
    }
  }
}

std::vector<double> CholeskyDecomposition::solve(std::span<const double> b) const {
  const std::size_t n = l_.rows();
  PWX_REQUIRE(b.size() == n, "Cholesky solve: expected length ", n, ", got ", b.size());
  std::vector<double> y(b.begin(), b.end());
  // Forward substitution: L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      y[i] -= l_(i, k) * y[k];
    }
    y[i] /= l_(i, i);
  }
  // Back substitution: Lᵀ x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t k = ii + 1; k < n; ++k) {
      y[ii] -= l_(k, ii) * y[k];
    }
    y[ii] /= l_(ii, ii);
  }
  return y;
}

Matrix CholeskyDecomposition::inverse() const {
  const std::size_t n = l_.rows();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    const std::vector<double> x = solve(e);
    for (std::size_t r = 0; r < n; ++r) {
      inv(r, c) = x[r];
    }
    e[c] = 0.0;
  }
  return inv;
}

}  // namespace pwx::la
