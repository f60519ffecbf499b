// Least-squares polynomial and linear fits. linear_fit calibrates the
// resistance thermometer (thermal/thermometry); polyfit and polyval have no
// caller in the library, only their own tests.
#pragma once

#include <vector>

namespace dsmt::numeric {

/// Fits y ~ sum_k c[k] x^k (degree = c.size()-1) by normal equations.
/// Returns coefficients lowest power first. Requires x.size() == y.size() and
/// at least degree+1 points.
std::vector<double> polyfit(const std::vector<double>& x,
                            const std::vector<double>& y, int degree);

/// Evaluates a polynomial with coefficients lowest power first.
/// x in the abscissa unit [1].
double polyval(const std::vector<double>& coeffs, double x);

/// Simple linear regression y = a + b x; returns {a, b, r^2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
LinearFit linear_fit(const std::vector<double>& x,
                     const std::vector<double>& y);

}  // namespace dsmt::numeric
