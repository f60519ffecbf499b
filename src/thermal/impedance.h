// Analytic self-heating models (paper Eqs. 8-11, 14, 15).
//
// A line of width W_m and thickness t_m carrying RMS current density j_rms
// dissipates P' = j_rms^2 * rho(T_m) * t_m * W_m watts per metre. The heat
// crosses the underlying dielectric stack through an effective width
//   W_eff = W_m + phi * b          (b = total underlying dielectric thickness)
// where phi = 0.88 is Bilotti's quasi-1D value (valid W_m/b > 0.4) and
// phi = 2.45 is the paper's quasi-2D value extracted from 0.25-um data.
// The per-unit-length thermal resistance of a layered stack is
//   R'_th = sum_i(t_i / K_i) / W_eff                     (generalizes Eq. 15)
// and the temperature rise is dT = P' * R'_th.
//
// Geometry, temperatures, and current densities are strong-typed
// (core/units.h); dimensionless shape factors stay raw doubles.
#pragma once

#include "core/units.h"
#include "materials/metal.h"
#include "tech/layer_stack.h"

namespace dsmt::thermal {

/// Bilotti quasi-1D heat-spreading parameter (paper Eq. 10) [1].
inline constexpr double kPhiQuasi1D = 0.88;
/// Quasi-2D heat-spreading parameter extracted by the paper (Eq. 14) [1].
inline constexpr double kPhiQuasi2D = 2.45;

/// W_eff = W_m + phi * b with shape factor phi [1]. Throws
/// std::invalid_argument on non-positive W_m.
units::Metres effective_width(units::Metres w_m, units::Metres b, double phi);

/// Per-unit-length thermal resistance of a layered stack under a line with
/// effective width `w_eff` (paper Eq. 15 generalized).
units::ThermalResistancePerLength rth_per_length(
    const tech::DielectricStack& stack, units::Metres w_eff);

/// Convenience: R'_th for a homogeneous dielectric of thickness b and
/// conductivity k under effective width w_eff — Eq. 10's b/(K_ox * W_eff).
units::ThermalResistancePerLength rth_per_length_uniform(
    units::Metres b, units::ThermalConductivity k_thermal,
    units::Metres w_eff);

/// Whole-line thermal impedance theta [K/W] for a line of length L (Eq. 8).
double theta_line(const tech::DielectricStack& stack, units::Metres w_eff,
                  units::Metres length);

/// Temperature rise for a given j_rms with resistivity evaluated at the
/// supplied metal temperature (one evaluation of Eq. 9/11; no
/// self-consistency).
units::CelsiusDelta delta_t_at(units::CurrentDensity j_rms,
                               const materials::Metal& metal,
                               units::Kelvin t_metal, units::Metres w_m,
                               units::Metres t_m,
                               units::ThermalResistancePerLength rth_per_len);

/// Result of the electro-thermal fixed point T = T_ref + dT(T).
struct SelfHeatingSolution {
  units::Kelvin t_metal{};
  units::CelsiusDelta delta_t{};
  bool runaway = false;  ///< true if positive feedback diverges
};

/// Solves T_m = T_ref + j_rms^2 * rho(T_m) * t_m * W_m * R'_th exactly
/// (rho is linear in T, so the fixed point is closed-form). Flags thermal
/// runaway when the loop gain reaches unity.
SelfHeatingSolution solve_self_heating(
    units::CurrentDensity j_rms, const materials::Metal& metal,
    units::Metres w_m, units::Metres t_m,
    units::ThermalResistancePerLength rth_per_len, units::Kelvin t_ref);

}  // namespace dsmt::thermal
