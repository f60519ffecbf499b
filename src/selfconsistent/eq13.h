// Closed-form terms of Eq. 13, in plain doubles.
//
// Terms holds the per-problem constants hoisted out of the root find's
// residual evaluations. Every field is produced by exactly the operation
// sequence the solver historically performed per evaluation (e.g.
// `j0_sq = j0 * j0`, `em_coeff = 2 Q / (n kB)` with the same association),
// so precomputing them once per solve cannot change a single bit of any
// residual value.
#pragma once

#include <algorithm>
#include <cmath>

#include "selfconsistent/solver.h"

namespace dsmt::selfconsistent::eq13 {

/// Per-problem constants of Eq. 13 in plain doubles: the residual reads
/// nothing else, which keeps the root find's inner loop free of Quantity
/// wrappers and strings.
struct Terms {
  double duty = 0.0;         ///< duty cycle r [1]
  double t_ref = 0.0;        ///< problem reference temperature [K]
  double inv_t_ref = 0.0;    ///< 1 / t_ref [1/K]
  double h = 0.0;            ///< heating coefficient H [K*m^3/W]
  double rho_ref = 0.0;      ///< metal resistivity at its own t_ref [Ohm*m]
  double rho_min = 0.0;      ///< clamp floor 0.01 * rho_ref [Ohm*m]
  double metal_t_ref = 0.0;  ///< the rho(T) model's reference temp [K]
  double tcr = 0.0;          ///< temperature coefficient of rho [1/K]
  double j0_sq = 0.0;        ///< design-rule j0^2 [(A/m^2)^2]
  double em_coeff = 0.0;     ///< 2 Q / (n kB) [K]
};

inline Terms make_terms(const Problem& p) {
  const double j0 = p.j0.value();
  Terms q;
  q.duty = p.duty_cycle;
  q.t_ref = p.t_ref.value();
  q.inv_t_ref = 1.0 / q.t_ref;
  q.h = p.heating_coefficient.value();
  q.rho_ref = p.metal.rho_ref.value();
  q.rho_min = 0.01 * q.rho_ref;
  q.metal_t_ref = p.metal.t_ref.value();
  q.tcr = p.metal.tcr;
  q.j0_sq = j0 * j0;
  q.em_coeff = 2.0 * p.metal.em.activation_energy_ev /
               (p.metal.em.current_exponent * kBoltzmannEv);
  return q;
}

/// rho [Ohm*m] at metal temperature t_m [K] with the 0.01*rho_ref
/// physicality clamp (Metal::resistivity).
inline double resistivity(const Terms& q, double t_m) {
  const double rho = q.rho_ref * (1.0 + q.tcr * (t_m - q.metal_t_ref));
  return std::max(rho, q.rho_min);
}

/// j_rms^2 admissible thermally at metal temperature t_m [K].
inline double jrms2_thermal(const Terms& q, double t_m) {
  return (t_m - q.t_ref) / (resistivity(q, t_m) * q.h);
}

/// j_avg_max^2 admissible by EM at metal temperature t_m [K].
inline double javg2_em(const Terms& q, double t_m) {
  return q.j0_sq * std::exp(q.em_coeff * (1.0 / t_m - q.inv_t_ref));
}

/// r * j_rms^2(thermal) - j_avg^2(EM) at metal temperature t_m [K]:
/// negative below the root, positive above. The root in t_m is the
/// self-consistent operating temperature.
inline double residual(const Terms& q, double t_m) {
  const double a = jrms2_thermal(q, t_m);
  const double b = javg2_em(q, t_m);
  return q.duty * a - b;
}

}  // namespace dsmt::selfconsistent::eq13
