#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pwx::la {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    PWX_REQUIRE(row.size() == cols_, "ragged initializer: row has ", row.size(),
                " entries, expected ", cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::column(std::span<const double> values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

std::vector<double> Matrix::col(std::size_t c) const {
  PWX_REQUIRE(c < cols_, "column ", c, " out of range (cols=", cols_, ")");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    out[r] = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  PWX_REQUIRE(cols_ == rhs.rows_, "matmul dimension mismatch: ", rows_, "x", cols_,
              " * ", rhs.rows_, "x", rhs.cols_);
  Matrix out(rows_, rhs.cols_);
  // i-k-j loop order keeps both rhs and out accesses row-contiguous.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) {
        continue;
      }
      const double* rhs_row = rhs.data_.data() + k * rhs.cols_;
      double* out_row = out.data_.data() + i * rhs.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out_row[j] += aik * rhs_row[j];
      }
    }
  }
  return out;
}

std::vector<double> Matrix::multiply(std::span<const double> v) const {
  PWX_REQUIRE(v.size() == cols_, "matvec dimension mismatch: cols=", cols_,
              " v=", v.size());
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    out[r] = dot(row(r), v);
  }
  return out;
}

std::vector<double> Matrix::multiply_transposed(std::span<const double> v) const {
  PWX_REQUIRE(v.size() == rows_, "matvecT dimension mismatch: rows=", rows_,
              " v=", v.size());
  std::vector<double> out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double vr = v[r];
    const double* row_ptr = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) {
      out[c] += vr * row_ptr[c];
    }
  }
  return out;
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * cols_;
    for (std::size_t i = 0; i < cols_; ++i) {
      const double ri = row_ptr[i];
      if (ri == 0.0) {
        continue;
      }
      double* g_row = g.data_.data() + i * cols_;
      for (std::size_t j = i; j < cols_; ++j) {
        g_row[j] += ri * row_ptr[j];
      }
    }
  }
  // Mirror the upper triangle.
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      g(i, j) = g(j, i);
    }
  }
  return g;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  PWX_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch in +");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] += rhs.data_[i];
  }
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  PWX_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch in -");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] -= rhs.data_[i];
  }
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) {
    x *= s;
  }
  return *this;
}

Matrix Matrix::select_columns(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t j = 0; j < indices.size(); ++j) {
      PWX_REQUIRE(indices[j] < cols_, "column index ", indices[j], " out of range");
      out(r, j) = (*this)(r, indices[j]);
    }
  }
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    PWX_REQUIRE(indices[i] < rows_, "row index ", indices[i], " out of range");
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

void Matrix::append_column(std::span<const double> values) {
  if (empty()) {
    *this = column(values);
    return;
  }
  PWX_REQUIRE(values.size() == rows_, "append_column size mismatch: rows=", rows_,
              " values=", values.size());
  std::vector<double> next(rows_ * (cols_ + 1));
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(data_.data() + r * cols_, cols_, next.data() + r * (cols_ + 1));
    next[r * (cols_ + 1) + cols_] = values[r];
  }
  data_ = std::move(next);
  ++cols_;
}

double dot(std::span<const double> a, std::span<const double> b) {
  PWX_REQUIRE(a.size() == b.size(), "dot size mismatch: ", a.size(), " vs ", b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

}  // namespace pwx::la
