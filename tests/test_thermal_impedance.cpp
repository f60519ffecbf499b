// Analytic thermal impedance / self-heating model tests (paper Eqs. 8-15).
#include <gtest/gtest.h>

#include <cmath>

#include "materials/metal.h"
#include "numeric/constants.h"
#include "selfconsistent/eq13.h"
#include "thermal/impedance.h"

namespace dsmt::thermal {
namespace {

tech::DielectricStack uniform_oxide(double b) {
  tech::DielectricStack s;
  s.slabs.push_back({b, 1.15, false});
  return s;
}

TEST(EffectiveWidth, Quasi1DAndQuasi2D) {
  EXPECT_NEAR(effective_width(um(3.0), um(3.0), kPhiQuasi1D), um(5.64), 1e-12);
  EXPECT_NEAR(effective_width(um(0.35), um(1.2), kPhiQuasi2D), um(3.29),
              1e-12);
  EXPECT_THROW(effective_width(metres(0.0), um(1.0), 0.88),
               std::invalid_argument);
}

TEST(RthPerLength, UniformMatchesStackForm) {
  const auto b = um(3.0), weff = um(5.64);
  EXPECT_NEAR(rth_per_length(uniform_oxide(b), weff),
              rth_per_length_uniform(b, W_per_mK(1.15), weff), 1e-15);
}

TEST(RthPerLength, LayeredStackIsSeriesSum) {
  tech::DielectricStack s;
  s.slabs.push_back({um(1.0), 1.15, false});
  s.slabs.push_back({um(0.5), 0.25, true});
  const auto weff = um(4.0);
  const double expected = (um(1.0) / 1.15 + um(0.5) / 0.25) / weff;
  EXPECT_NEAR(rth_per_length(s, weff), expected, 1e-15);
}

TEST(ThetaLine, Figure5ScaleCheck) {
  // Quasi-2D model for W = 0.35 um, t_ox = 1.2 um, L = 1000 um gives a
  // whole-line impedance of a few hundred K/W.
  const auto weff = effective_width(um(0.35), um(1.2), kPhiQuasi2D);
  const double theta = theta_line(uniform_oxide(um(1.2)), weff, um(1000));
  EXPECT_GT(theta, 200.0);
  EXPECT_LT(theta, 500.0);
}

TEST(DeltaT, ScalesWithJSquared) {
  const auto cu = materials::make_copper();
  const auto rth = K_m_per_W(0.3);
  const double d1 = delta_t_at(MA_per_cm2(1.0), cu, kTrefK, um(1), um(1), rth);
  const double d2 = delta_t_at(MA_per_cm2(2.0), cu, kTrefK, um(1), um(1), rth);
  EXPECT_NEAR(d2 / d1, 4.0, 1e-12);
}

TEST(SelfHeating, ClosedFormSatisfiesFixedPoint) {
  const auto cu = materials::make_copper();
  const auto rth = K_m_per_W(0.4);
  const auto w = um(2), t = um(1);
  const auto j = MA_per_cm2(3.0);
  const auto sol = solve_self_heating(j, cu, w, t, rth, kTrefK);
  ASSERT_FALSE(sol.runaway);
  // Verify: delta_t == j^2 rho(T_m) t w rth at the solution temperature.
  const double dt_check = delta_t_at(j, cu, sol.t_metal, w, t, rth);
  EXPECT_NEAR(sol.delta_t, dt_check, 1e-9 * std::max(1.0, sol.delta_t.value()));
  EXPECT_GT(sol.delta_t, 0.0);
}

TEST(SelfHeating, RunawayFlaggedAtHugeCurrent) {
  const auto cu = materials::make_copper();
  const auto sol = solve_self_heating(MA_per_cm2(500.0), cu, um(2), um(1),
                                      K_m_per_W(0.4), kTrefK);
  EXPECT_TRUE(sol.runaway);
}

TEST(SelfHeating, ZeroCurrentNoRise) {
  const auto cu = materials::make_copper();
  const auto sol = solve_self_heating(A_per_m2(0.0), cu, um(2), um(1),
                                      K_m_per_W(0.4), kTrefK);
  EXPECT_DOUBLE_EQ(sol.delta_t, 0.0);
  EXPECT_DOUBLE_EQ(sol.t_metal, kTrefK);
}

/// Eq. 13's thermal branch for a line of width w and thickness t over
/// R'_th, referenced to T_ref: eq13::jrms2_thermal(terms, T) is the j_rms^2
/// that heats it to T.
selfconsistent::eq13::Terms thermal_terms(
    const materials::Metal& metal, units::Metres w, units::Metres t,
    units::ThermalResistancePerLength rth) {
  selfconsistent::Problem p;
  p.metal = metal;
  p.t_ref = kTrefK;
  p.heating_coefficient = selfconsistent::heating_coefficient(w, t, rth);
  return selfconsistent::eq13::make_terms(p);
}

// Property: Eq. 13's thermal j_rms inverts the heating relation across a
// sweep of temperatures.
class JrmsInverse : public ::testing::TestWithParam<double> {};

TEST_P(JrmsInverse, RoundTrip) {
  const auto cu = materials::make_copper();
  const auto t_m = kTrefK + kelvin_delta(GetParam());
  const auto rth = K_m_per_W(0.35);
  const auto w = um(1.5), t = um(0.8);
  const auto j = A_per_m2(std::sqrt(selfconsistent::eq13::jrms2_thermal(
      thermal_terms(cu, w, t, rth), t_m.value())));
  const double dt = delta_t_at(j, cu, t_m, w, t, rth);
  EXPECT_NEAR(dt, t_m - kTrefK, 1e-9 * (t_m - kTrefK));
}

INSTANTIATE_TEST_SUITE_P(TemperatureRises, JrmsInverse,
                         ::testing::Values(0.5, 1.0, 5.0, 10.0, 25.0, 50.0,
                                           100.0, 200.0));

TEST(JrmsForTemperature, ZeroAtOrBelowReference) {
  // No current heats a line to its reference temperature, and none cools it
  // below: the thermal j_rms^2 is zero there and negative below.
  const auto q =
      thermal_terms(materials::make_copper(), um(1), um(1), K_m_per_W(0.3));
  EXPECT_DOUBLE_EQ(selfconsistent::eq13::jrms2_thermal(q, kTrefK.value()),
                   0.0);
  EXPECT_LT(selfconsistent::eq13::jrms2_thermal(q, kTrefK.value() - 10.0),
            0.0);
}

}  // namespace
}  // namespace dsmt::thermal
