#include "thermal/impedance.h"

#include <cmath>
#include <stdexcept>

namespace dsmt::thermal {

units::Metres effective_width(units::Metres w_m, units::Metres b, double phi) {
  if (w_m <= 0.0) throw std::invalid_argument("effective_width: W_m <= 0");
  if (b < 0.0) throw std::invalid_argument("effective_width: b < 0");
  return w_m + phi * b;
}

units::ThermalResistancePerLength rth_per_length(
    const tech::DielectricStack& stack, units::Metres w_eff) {
  if (w_eff <= 0.0) throw std::invalid_argument("rth_per_length: W_eff <= 0");
  return units::ThermalResistancePerLength{stack.series_resistance_term() /
                                           w_eff.value()};
}

units::ThermalResistancePerLength rth_per_length_uniform(
    units::Metres b, units::ThermalConductivity k_thermal,
    units::Metres w_eff) {
  if (w_eff <= 0.0 || k_thermal <= 0.0)
    throw std::invalid_argument("rth_per_length_uniform: bad parameters");
  return b / (k_thermal * w_eff);
}

double theta_line(const tech::DielectricStack& stack, units::Metres w_eff,
                  units::Metres length) {
  if (length <= 0.0) throw std::invalid_argument("theta_line: length <= 0");
  return rth_per_length(stack, w_eff) / length;
}

units::CelsiusDelta delta_t_at(units::CurrentDensity j_rms,
                               const materials::Metal& metal,
                               units::Kelvin t_metal, units::Metres w_m,
                               units::Metres t_m,
                               units::ThermalResistancePerLength rth_per_len) {
  const double p_per_len =
      j_rms * j_rms * metal.resistivity(t_metal) * t_m * w_m;
  return units::CelsiusDelta{p_per_len * rth_per_len.value()};
}

SelfHeatingSolution solve_self_heating(
    units::CurrentDensity j_rms, const materials::Metal& metal,
    units::Metres w_m, units::Metres t_m,
    units::ThermalResistancePerLength rth_per_len, units::Kelvin t_ref) {
  // T = T_ref + A * rho_ref * (1 + tcr*(T - T_rho)), A = j^2 t W R'_th.
  const double a = j_rms * j_rms * t_m * w_m * rth_per_len;
  const double gain = a * metal.rho_ref * metal.tcr;
  SelfHeatingSolution sol;
  if (gain >= 1.0) {
    sol.runaway = true;
    sol.t_metal = metal.t_melt;
    sol.delta_t = metal.t_melt - t_ref;
    return sol;
  }
  const double rho_at_ref = metal.resistivity(t_ref);
  sol.delta_t = units::CelsiusDelta{a * rho_at_ref / (1.0 - gain)};
  sol.t_metal = t_ref + sol.delta_t;
  return sol;
}

}  // namespace dsmt::thermal
