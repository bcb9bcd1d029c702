// Unit and property tests for the linear algebra module.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"

namespace pwx::la {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
    }
  }
  return a;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  const Matrix d = a - b;
  double m = 0.0;
  for (std::size_t i = 0; i < d.rows(); ++i) {
    for (std::size_t j = 0; j < d.cols(); ++j) {
      m = std::max(m, std::fabs(d(i, j)));
    }
  }
  return m;
}

// ---------------------------------------------------------------- matrix

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, InitializerListAndRaggedRejection) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), InvalidArgument);
}

TEST(Matrix, IdentityProperties) {
  const Matrix i = Matrix::identity(4);
  const Matrix m{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 1, 2, 3}, {4, 5, 6, 7}};
  EXPECT_NEAR(max_abs_diff(i * m, m), 0.0, 1e-15);
  EXPECT_NEAR(max_abs_diff(m * i, m), 0.0, 1e-15);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(1);
  const Matrix a = random_matrix(5, 3, rng);
  EXPECT_NEAR(max_abs_diff(a.transposed().transposed(), a), 0.0, 0.0);
}

TEST(Matrix, MultiplicationMatchesManual) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplicationDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, InvalidArgument);
}

TEST(Matrix, MatVecAndTransposedMatVecAgreeWithExplicitTranspose) {
  Rng rng(2);
  const Matrix a = random_matrix(6, 4, rng);
  std::vector<double> v(4);
  std::vector<double> w(6);
  for (auto& x : v) x = rng.normal();
  for (auto& x : w) x = rng.normal();
  const auto av = a.multiply(v);
  const auto atw = a.multiply_transposed(w);
  const auto atw_ref = a.transposed().multiply(w);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(atw[i], atw_ref[i], 1e-12);
  }
  EXPECT_EQ(av.size(), 6u);
}

TEST(Matrix, GramEqualsAtA) {
  Rng rng(3);
  const Matrix a = random_matrix(7, 3, rng);
  EXPECT_NEAR(max_abs_diff(a.gram(), a.transposed() * a), 0.0, 1e-12);
}

TEST(Matrix, SelectColumnsAndRows) {
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  const std::vector<std::size_t> cols{2, 0};
  const Matrix sub = a.select_columns(cols);
  EXPECT_DOUBLE_EQ(sub(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sub(1, 1), 4.0);
  const std::vector<std::size_t> rows{1};
  const Matrix rsub = a.select_rows(rows);
  EXPECT_EQ(rsub.rows(), 1u);
  EXPECT_DOUBLE_EQ(rsub(0, 2), 6.0);
}

TEST(Matrix, SelectOutOfRangeThrows) {
  const Matrix a(2, 2);
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(a.select_columns(bad), InvalidArgument);
  EXPECT_THROW(a.select_rows(bad), InvalidArgument);
}

TEST(Matrix, AppendColumn) {
  Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> c{9, 8};
  a.append_column(c);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_DOUBLE_EQ(a(0, 2), 9.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
}

TEST(Matrix, AppendColumnToEmpty) {
  Matrix a;
  const std::vector<double> c{1, 2, 3};
  a.append_column(c);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 1u);
}

TEST(Matrix, DotSizeMismatchThrows) {
  const std::vector<double> a{1, 2};
  const std::vector<double> b{1, 2, 3};
  EXPECT_THROW(dot(a, b), InvalidArgument);
}

// ---------------------------------------------------------------- qr

class QrProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrProperty, ReconstructionAndOrthogonality) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 131 + n));
  const Matrix a = random_matrix(static_cast<std::size_t>(m), static_cast<std::size_t>(n), rng);
  const QrDecomposition qr(a);
  const Matrix q = qr.thin_q();
  const Matrix r = qr.r();
  // A = QR
  EXPECT_LT(max_abs_diff(q * r, a), 1e-10);
  // QᵀQ = I
  EXPECT_LT(max_abs_diff(q.gram(), Matrix::identity(static_cast<std::size_t>(n))), 1e-12);
  // R upper triangular
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) {
      EXPECT_EQ(r(static_cast<std::size_t>(i), static_cast<std::size_t>(j)), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrProperty,
                         ::testing::Values(std::pair{3, 1}, std::pair{4, 2},
                                           std::pair{5, 5}, std::pair{10, 3},
                                           std::pair{40, 8}, std::pair{100, 12},
                                           std::pair{64, 20}));

TEST(Qr, SolveRecoversExactSolution) {
  Rng rng(10);
  const Matrix a = random_matrix(12, 5, rng);
  std::vector<double> x_true(5);
  for (auto& x : x_true) x = rng.normal();
  const auto b = a.multiply(x_true);
  const auto x = QrDecomposition(a).solve(b);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-10);
  }
}

TEST(Qr, LeastSquaresResidualOrthogonalToColumnSpace) {
  Rng rng(11);
  const Matrix a = random_matrix(20, 4, rng);
  std::vector<double> b(20);
  for (auto& v : b) v = rng.normal();
  const auto x = QrDecomposition(a).solve(b);
  const auto fitted = a.multiply(x);
  std::vector<double> resid(20);
  for (std::size_t i = 0; i < 20; ++i) {
    resid[i] = b[i] - fitted[i];
  }
  const auto at_r = a.multiply_transposed(resid);
  for (double v : at_r) {
    EXPECT_NEAR(v, 0.0, 1e-10);
  }
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a(6, 3);
  Rng rng(12);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = 2.0 * a(i, 0);  // exactly collinear
    a(i, 2) = rng.normal();
  }
  const QrDecomposition qr(a);
  EXPECT_FALSE(qr.full_rank());
  const std::vector<double> b(6, 1.0);
  EXPECT_THROW(qr.solve(b), NumericalError);
  EXPECT_THROW(qr.r_inverse(), NumericalError);
}

TEST(Qr, RInverseTimesRIsIdentity) {
  Rng rng(13);
  const Matrix a = random_matrix(9, 4, rng);
  const QrDecomposition qr(a);
  EXPECT_LT(max_abs_diff(qr.r_inverse() * qr.r(), Matrix::identity(4)), 1e-10);
}

TEST(Qr, UnderdeterminedRejected) {
  const Matrix a(2, 3);
  EXPECT_THROW(QrDecomposition{a}, InvalidArgument);
}

// ---------------------------------------------------------------- cholesky

TEST(Cholesky, FactorizesAndSolvesSpd) {
  Rng rng(14);
  const Matrix g = random_matrix(10, 4, rng).gram() + Matrix::identity(4);
  const CholeskyDecomposition chol(g);
  EXPECT_LT(max_abs_diff(chol.l() * chol.l().transposed(), g), 1e-10);
  std::vector<double> x_true{1, -2, 3, 0.5};
  const auto b = g.multiply(x_true);
  const auto x = chol.solve(b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Cholesky, InverseIsTwoSided) {
  Rng rng(15);
  const Matrix g = random_matrix(8, 3, rng).gram() + Matrix::identity(3);
  const Matrix inv = CholeskyDecomposition(g).inverse();
  EXPECT_LT(max_abs_diff(g * inv, Matrix::identity(3)), 1e-9);
  EXPECT_LT(max_abs_diff(inv * g, Matrix::identity(3)), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix bad{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyDecomposition{bad}, NumericalError);
}

// ------------------------------------------------- qr column append

namespace {

std::vector<double> column_of(const Matrix& a, std::size_t j) {
  std::vector<double> c(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    c[i] = a(i, j);
  }
  return c;
}

/// Grow a factor column by column and compare against the from-scratch
/// factorization of the same prefix at every width.
void expect_append_matches_scratch(const Matrix& a, double tol) {
  const std::vector<std::size_t> first{0};
  QrDecomposition grown(a.select_columns(first));
  for (std::size_t n = 2; n <= a.cols(); ++n) {
    grown.append_column(column_of(a, n - 1));
    std::vector<std::size_t> prefix(n);
    for (std::size_t j = 0; j < n; ++j) {
      prefix[j] = j;
    }
    const QrDecomposition scratch(a.select_columns(prefix));
    ASSERT_EQ(grown.cols(), scratch.cols());
    EXPECT_EQ(grown.full_rank(), scratch.full_rank());
    const Matrix rg = grown.r();
    const Matrix rs = scratch.r();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        EXPECT_NEAR(rg(i, j), rs(i, j), tol) << "r(" << i << "," << j << ") at width " << n;
      }
    }
  }
}

}  // namespace

TEST(QrAppend, MatchesFromScratchOnRandomMatrix) {
  Rng rng(77);
  const Matrix a = random_matrix(30, 7, rng);
  expect_append_matches_scratch(a, 1e-12);
}

TEST(QrAppend, MatchesFromScratchOnNearCollinearMatrix) {
  Rng rng(78);
  Matrix a = random_matrix(25, 5, rng);
  // Column 3 = column 0 + tiny noise, column 4 = 2*column 1 - column 2.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a(i, 3) = a(i, 0) + 1e-9 * rng.normal();
    a(i, 4) = 2.0 * a(i, 1) - a(i, 2) + 1e-10 * rng.normal();
  }
  expect_append_matches_scratch(a, 1e-12);
}

TEST(QrAppend, SolveAfterAppendMatchesFromScratchSolve) {
  Rng rng(79);
  const Matrix a = random_matrix(20, 6, rng);
  std::vector<double> b(20);
  for (auto& v : b) v = rng.normal();

  const std::vector<std::size_t> first3{0, 1, 2};
  QrDecomposition grown(a.select_columns(first3));
  grown.append_column(column_of(a, 3));
  grown.append_column(column_of(a, 4));
  grown.append_column(column_of(a, 5));
  const QrDecomposition scratch(a);
  const auto xg = grown.solve(b);
  const auto xs = scratch.solve(b);
  ASSERT_EQ(xg.size(), xs.size());
  for (std::size_t j = 0; j < xg.size(); ++j) {
    // append_column replicates the constructor's arithmetic exactly.
    EXPECT_EQ(xg[j], xs[j]) << "beta[" << j << "]";
  }
}

TEST(QrAppend, RejectsWhenFactorIsSquare) {
  Rng rng(80);
  const Matrix a = random_matrix(3, 3, rng);
  QrDecomposition qr(a);
  EXPECT_THROW(qr.append_column(std::vector<double>(3, 1.0)), InvalidArgument);
}

TEST(QrAppend, DetectsCollinearAppendedColumn) {
  Rng rng(81);
  const Matrix a = random_matrix(12, 3, rng);
  QrDecomposition qr(a);
  EXPECT_TRUE(qr.full_rank());
  std::vector<double> dup = column_of(a, 1);
  qr.append_column(dup);
  EXPECT_FALSE(qr.full_rank());
}

// ------------------------------------------------- qr extension

TEST(QrExtension, SolveMatchesFromScratchOnAssembledDesign) {
  Rng rng(90);
  const Matrix a = random_matrix(24, 6, rng);
  std::vector<double> b(24);
  for (auto& v : b) v = rng.normal();

  const std::vector<std::size_t> first3{0, 1, 2};
  const QrDecomposition base(a.select_columns(first3));
  QrExtension ext(base);
  ext.append(column_of(a, 3));
  ext.append(column_of(a, 4));
  ext.append(column_of(a, 5));
  ASSERT_TRUE(ext.full_rank());
  std::vector<double> qty = base.apply_qt(b);
  ext.apply_qt_ext(qty);
  const auto xe = ext.solve_from_qty(qty);

  const QrDecomposition scratch(a);
  const auto xs = scratch.solve(b);
  ASSERT_EQ(xe.size(), xs.size());
  for (std::size_t j = 0; j < xe.size(); ++j) {
    // The extension reproduces append_column's (and hence the constructor's)
    // arithmetic, so the combined solve is the from-scratch solve.
    EXPECT_EQ(xe[j], xs[j]) << "beta[" << j << "]";
  }
}

TEST(QrExtension, AppendTransformedSkipsBaseReflectors) {
  Rng rng(91);
  const Matrix a = random_matrix(18, 5, rng);
  const std::vector<std::size_t> first3{0, 1, 2};
  const QrDecomposition base(a.select_columns(first3));

  QrExtension plain(base);
  plain.append(column_of(a, 3));
  QrExtension pre(base);
  std::vector<double> transformed = column_of(a, 3);
  base.transform_column(transformed);
  pre.append_transformed(transformed);

  std::vector<double> b(18);
  for (auto& v : b) v = rng.normal();
  std::vector<double> qty1 = base.apply_qt(b);
  std::vector<double> qty2 = qty1;
  plain.apply_qt_ext(qty1);
  pre.apply_qt_ext(qty2);
  const auto x1 = plain.solve_from_qty(qty1);
  const auto x2 = pre.solve_from_qty(qty2);
  ASSERT_EQ(x1.size(), x2.size());
  for (std::size_t j = 0; j < x1.size(); ++j) {
    EXPECT_EQ(x1[j], x2[j]);
  }
}

TEST(QrExtension, RebindReusesBuffersAcrossTrials) {
  Rng rng(92);
  const Matrix a = random_matrix(16, 4, rng);
  const std::vector<std::size_t> first2{0, 1};
  const QrDecomposition base(a.select_columns(first2));
  QrExtension ext;
  for (int trial = 0; trial < 3; ++trial) {
    ext.rebind(base);
    EXPECT_EQ(ext.cols(), base.cols());
    ext.append(column_of(a, 2));
    ext.append(column_of(a, 3));
    EXPECT_EQ(ext.cols(), base.cols() + 2);
    EXPECT_TRUE(ext.full_rank());
  }
}

TEST(QrExtension, FlagsCollinearTrialWithoutMutatingBase) {
  Rng rng(93);
  const Matrix a = random_matrix(14, 3, rng);
  const QrDecomposition base(a);
  ASSERT_TRUE(base.full_rank());
  QrExtension ext(base);
  ext.append(column_of(a, 0));  // duplicate of a base column
  EXPECT_FALSE(ext.full_rank());
  EXPECT_TRUE(base.full_rank());  // the base factor is read-only
}

}  // namespace
}  // namespace pwx::la
