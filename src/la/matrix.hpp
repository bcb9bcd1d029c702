// Dense row-major double matrix with the small set of operations the
// regression stack needs. Sized for design matrices of a few thousand rows by
// a few dozen columns — no blocking or SIMD heroics required, but all loops
// are cache-friendly row-major traversals.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace pwx::la {

/// Dense row-major matrix of doubles.
class Matrix {
public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construct from nested initializer lists (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// Column vector from data.
  static Matrix column(std::span<const double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copy of column c.
  std::vector<double> col(std::size_t c) const;

  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  Matrix transposed() const;

  /// Matrix product (this * rhs); dimensions must agree.
  Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product (this * v).
  std::vector<double> multiply(std::span<const double> v) const;

  /// Transpose-vector product (thisᵀ * v) without forming the transpose.
  std::vector<double> multiply_transposed(std::span<const double> v) const;

  /// Gram matrix AᵀA (symmetric positive semi-definite).
  Matrix gram() const;

  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator*=(double s);

  /// Select a subset of columns (in the given order) into a new matrix.
  Matrix select_columns(std::span<const std::size_t> indices) const;

  /// Select a subset of rows (in the given order) into a new matrix.
  Matrix select_rows(std::span<const std::size_t> indices) const;

  /// Append a column on the right; `values.size()` must equal rows()
  /// (or the matrix must be empty, in which case it becomes rows x 1).
  void append_column(std::span<const double> values);

private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace pwx::la
