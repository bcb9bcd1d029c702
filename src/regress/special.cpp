#include "regress/special.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace pwx::regress {

namespace {

/// Continued fraction for the incomplete beta function (modified Lentz).
double beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-15;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) {
    d = kFpMin;
  }
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) {
      return h;
    }
  }
  throw NumericalError("incomplete_beta: continued fraction failed to converge");
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  PWX_REQUIRE(a > 0.0 && b > 0.0, "incomplete_beta needs a,b > 0");
  PWX_REQUIRE(x >= 0.0 && x <= 1.0, "incomplete_beta needs x in [0,1], got ", x);
  if (x == 0.0) {
    return 0.0;
  }
  if (x == 1.0) {
    return 1.0;
  }
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  // Use the symmetry relation for faster convergence.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double incomplete_gamma_p(double a, double x) {
  PWX_REQUIRE(a > 0.0 && x >= 0.0, "incomplete_gamma_p needs a > 0, x >= 0");
  if (x == 0.0) {
    return 0.0;
  }
  if (x < a + 1.0) {
    // Series representation.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int n = 0; n < 500; ++n) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 3e-15) {
        return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
      }
    }
    throw NumericalError("incomplete_gamma_p: series failed to converge");
  }
  // Continued fraction for Q(a, x), then P = 1 - Q.
  constexpr double kFpMin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 3e-15) {
      const double q = std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
      return 1.0 - q;
    }
  }
  throw NumericalError("incomplete_gamma_p: continued fraction failed to converge");
}

double student_t_two_sided_p(double t, double df) {
  PWX_REQUIRE(df > 0.0, "student_t needs df > 0");
  if (!std::isfinite(t)) {
    return 0.0;
  }
  const double x = df / (df + t * t);
  return incomplete_beta(df / 2.0, 0.5, x);
}

double chi_square_sf(double x, double df) {
  PWX_REQUIRE(df > 0.0, "chi_square needs df > 0");
  if (x <= 0.0) {
    return 1.0;
  }
  return 1.0 - incomplete_gamma_p(df / 2.0, x / 2.0);
}

double f_distribution_sf(double f, double df1, double df2) {
  PWX_REQUIRE(df1 > 0.0 && df2 > 0.0, "F distribution needs df1, df2 > 0");
  if (f <= 0.0) {
    return 1.0;
  }
  return incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f));
}

}  // namespace pwx::regress
