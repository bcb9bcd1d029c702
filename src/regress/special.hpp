// Special functions needed for regression inference: regularized incomplete
// beta/gamma and the distribution tails built on them (Student-t, chi-square,
// F). Implementations follow the standard Lentz continued-fraction and series
// expansions (Numerical Recipes style) and are validated against known values
// in tests.
#pragma once

namespace pwx::regress {

/// Regularized incomplete beta function I_x(a, b) for a,b > 0 and x in [0,1].
double incomplete_beta(double a, double b, double x);

/// Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0.
double incomplete_gamma_p(double a, double x);

/// Two-sided p-value of a Student-t statistic with df degrees of freedom.
double student_t_two_sided_p(double t, double df);

/// Survival function (upper tail) of the chi-square distribution.
double chi_square_sf(double x, double df);

/// Survival function of the F distribution with (df1, df2) degrees of freedom.
double f_distribution_sf(double f, double df1, double df2);

}  // namespace pwx::regress
