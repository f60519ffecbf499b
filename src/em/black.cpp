#include "em/black.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "numeric/constants.h"

namespace dsmt::em {

double time_to_failure(double a_star, const materials::EmParameters& em,
                       units::CurrentDensity j_avg, units::Kelvin t_metal) {
  if (j_avg <= 0.0 || t_metal <= 0.0)
    throw std::invalid_argument("time_to_failure: non-positive inputs");
  return a_star * std::pow(j_avg, -em.current_exponent) *
         std::exp(em.activation_energy_ev / (kBoltzmannEv * t_metal));
}

double lifetime_ratio(const materials::EmParameters& em,
                      units::CurrentDensity j1, units::Kelvin t1,
                      units::CurrentDensity j0, units::Kelvin t0) {
  if (j1 <= 0.0 || j0 <= 0.0 || t1 <= 0.0 || t0 <= 0.0)
    throw std::invalid_argument("lifetime_ratio: non-positive inputs");
  return std::pow(j0 / j1, em.current_exponent) *
         std::exp(em.activation_energy_ev / kBoltzmannEv *
                  (1.0 / t1 - 1.0 / t0));
}

units::Kelvin temperature_for_javg(const materials::EmParameters& em,
                                   units::CurrentDensity javg,
                                   units::CurrentDensity j0,
                                   units::Kelvin t0) {
  if (javg <= 0.0 || j0 <= 0.0 || t0 <= 0.0)
    throw std::invalid_argument("temperature_for_javg: bad inputs");
  // javg = j0 exp[(Q/n kB)(1/T - 1/T0)]  =>
  // 1/T = 1/T0 + (n kB / Q) ln(javg/j0).
  const double inv_t =
      1.0 / t0 + em.current_exponent * kBoltzmannEv /
                     em.activation_energy_ev * std::log(javg / j0);
  if (inv_t <= 0.0)
    return units::Kelvin{std::numeric_limits<double>::infinity()};
  return units::Kelvin{1.0 / inv_t};
}

units::CurrentDensity design_rule_j0(const materials::EmParameters& em,
                                     units::CurrentDensity j_test,
                                     units::Kelvin t_test, double ttf_test,
                                     double ttf_goal, units::Kelvin t_ref) {
  if (j_test <= 0.0 || ttf_test <= 0.0 || ttf_goal <= 0.0)
    throw std::invalid_argument("design_rule_j0: bad inputs");
  const double n = em.current_exponent;
  return j_test * std::pow(ttf_test / ttf_goal, 1.0 / n) *
         std::exp(em.activation_energy_ev / (n * kBoltzmannEv) *
                  (1.0 / t_ref - 1.0 / t_test));
}

namespace {
// Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9).
double inv_norm_cdf(double p) {
  if (p <= 0.0 || p >= 1.0)
    throw std::invalid_argument("inv_norm_cdf: p outside (0,1)");
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425, phigh = 1.0 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > phigh) {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}
}  // namespace

double lognormal_quantile_time(double t50, double sigma, double cum_fraction) {
  if (t50 <= 0.0 || sigma <= 0.0)
    throw std::invalid_argument("lognormal_quantile_time: bad inputs");
  return t50 * std::exp(sigma * inv_norm_cdf(cum_fraction));
}

}  // namespace dsmt::em
