#include "selfconsistent/solver.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/run_context.h"
#include "numeric/constants.h"
#include "numeric/roots.h"
#include "selfconsistent/eq13.h"

namespace dsmt::selfconsistent {

units::HeatingCoefficient heating_coefficient(
    units::Metres w_m, units::Metres t_m,
    units::ThermalResistancePerLength rth_per_len) {
  if (w_m <= 0.0 || t_m <= 0.0 || rth_per_len <= 0.0)
    throw std::invalid_argument("heating_coefficient: bad parameters");
  return w_m * t_m * rth_per_len;
}

namespace {
void validate(const Problem& p) {
  if (!std::isfinite(p.duty_cycle) || p.duty_cycle <= 0.0 ||
      p.duty_cycle > 1.0)
    throw std::invalid_argument("Problem: duty cycle outside (0,1]");
  if (!std::isfinite(p.j0) || p.j0 <= 0.0)
    throw std::invalid_argument("Problem: j0 <= 0 or non-finite");
  if (!std::isfinite(p.t_ref) || p.t_ref <= 0.0)
    throw std::invalid_argument("Problem: t_ref <= 0 or non-finite");
  if (!std::isfinite(p.heating_coefficient) || p.heating_coefficient <= 0.0)
    throw std::invalid_argument(
        "Problem: heating coefficient <= 0 or non-finite");
}
}  // namespace

units::CurrentDensity jrms_thermal_at(const Problem& p, units::Kelvin t_m) {
  const double jrms2 = eq13::jrms2_thermal(eq13::make_terms(p), t_m);
  return A_per_m2(jrms2 > 0.0 ? std::sqrt(jrms2) : 0.0);
}

units::CurrentDensity javg_em_at(const Problem& p, units::Kelvin t_m) {
  return A_per_m2(std::sqrt(eq13::javg2_em(eq13::make_terms(p), t_m)));
}

double residual(const Problem& p, units::Kelvin t_m) {
  // r * j_rms^2(thermal) - j_avg^2(EM): negative below the root (thermal
  // side admits less than EM needs), positive above.
  return eq13::residual(eq13::make_terms(p), t_m);
}

units::CurrentDensity jpeak_em_only(const Problem& p) {
  validate(p);
  return p.j0 / p.duty_cycle;
}

Solution solve(const Problem& p) {
  validate(p);
  Solution sol;
  const eq13::Terms q = eq13::make_terms(p);

  // Bracket: just above T_ref the residual is negative (no thermal headroom,
  // finite EM demand); it grows without bound as T_m rises (thermal j_rms^2
  // grows, EM side decays). The root is unique.
  const double lo = p.t_ref * (1.0 + 1e-12);
  double hi = p.t_ref + 1.0;
  while (eq13::residual(q, hi) < 0.0 && hi < p.t_ref + 5000.0) {
    core::throw_if_run_interrupted("eq13/solve");
    hi = p.t_ref + 2.0 * (hi - p.t_ref);
  }
  if (eq13::residual(q, hi) < 0.0) {
    core::SolverDiag diag;
    diag.record("eq13/solve", core::StatusCode::kNoBracket, 0,
                eq13::residual(q, hi), "no sign change up to t_ref + 5000 K");
    throw SolveError("selfconsistent::solve: failed to bracket root", diag);
  }

  sol.diag.kernel = "eq13/solve";
  const auto root = numeric::brent_robust(
      [&](double t) { return eq13::residual(q, t); }, lo, hi,
      {.x_tol = 1e-9, .f_tol = 0.0, .max_iterations = 200}, sol.diag);
  if (!root.ok()) {
    core::SolverDiag diag = sol.diag;
    diag.add_context("eq13/solve");
    if (core::is_interruption(root.status))
      throw SolveError(std::string("selfconsistent::solve: run interrupted (") +
                           core::status_name(root.status) + ")",
                       diag);
    throw SolveError("selfconsistent::solve: root find failed", diag);
  }
  sol.t_metal = units::Kelvin{root.root};
  sol.delta_t = sol.t_metal - p.t_ref;
  sol.converged = root.ok();
  sol.iterations = root.iterations;

  const double jrms2 = eq13::jrms2_thermal(q, sol.t_metal);
  sol.j_rms = A_per_m2(jrms2 > 0.0 ? std::sqrt(jrms2) : 0.0);
  sol.j_peak = sol.j_rms / std::sqrt(p.duty_cycle);
  sol.j_avg = p.duty_cycle * sol.j_peak;
  return sol;
}

}  // namespace dsmt::selfconsistent
