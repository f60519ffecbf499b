// Black's electromigration model (paper Eq. 6) and the design-rule algebra
// built on it.
//
//   TTF = A* j^-n exp(Q / (kB T))
//
// The absolute prefactor A* is process-specific; everything the paper needs
// is a *ratio* of lifetimes, so the API exposes ratios and the equivalent
// current-density transformations, plus an absolute TTF when the caller
// supplies A*. Current densities and temperatures are strong-typed
// (core/units.h); lifetimes stay raw doubles because the exponent n makes
// A*'s dimension process-dependent — they carry whatever time unit A* (or
// the test lifetime) was quoted in.
#pragma once

#include "core/units.h"
#include "materials/metal.h"

namespace dsmt::em {

/// Absolute time-to-failure for prefactor `a_star` [t], where [t] is the
/// time unit of the result; j_avg and T carry their own strong types.
double time_to_failure(double a_star, const materials::EmParameters& em,
                       units::CurrentDensity j_avg, units::Kelvin t_metal);

/// Lifetime ratio TTF(j1, T1) / TTF(j0, T0) [1] — prefactor cancels.
double lifetime_ratio(const materials::EmParameters& em,
                      units::CurrentDensity j1, units::Kelvin t1,
                      units::CurrentDensity j0, units::Kelvin t0);

/// The metal temperature at which `javg` exactly meets the lifetime of
/// `j0` at `t0`: the inverse of Black's rule at temperature (paper Eq. 12,
///   j_max = j0 * exp[(Q/(n kB)) (1/T - 1/T0)],
/// whose square selfconsistent::eq13::javg2_em evaluates). Returns +inf
/// when javg is so far below j0 that no finite temperature is hot enough.
units::Kelvin temperature_for_javg(const materials::EmParameters& em,
                                   units::CurrentDensity javg,
                                   units::CurrentDensity j0, units::Kelvin t0);

/// Derives the design-rule current density j0 at `t_ref` from accelerated
/// test conditions: a measured TTF `ttf_test` at (j_test, t_test) scaled to
/// the lifetime goal `ttf_goal` at `t_ref` (both lifetimes in the same,
/// arbitrary time unit):
///   j0 = j_test * (ttf_test/ttf_goal)^(1/n) * exp[(Q/(n kB))(1/t_ref - 1/t_test)]
units::CurrentDensity design_rule_j0(const materials::EmParameters& em,
                                     units::CurrentDensity j_test,
                                     units::Kelvin t_test, double ttf_test,
                                     double ttf_goal, units::Kelvin t_ref);

/// Lognormal failure statistics: scales a median TTF (t50) to the time at
/// which `cum_fraction` [1] of a population has failed, given the lognormal
/// shape parameter sigma [1]. Black's TTF is conventionally quoted at 0.1 %
/// cumulative failure; this converts between quantiles. t50 and the result
/// share whatever time unit t50 is quoted in.
double lognormal_quantile_time(double t50, double sigma, double cum_fraction);

}  // namespace dsmt::em
