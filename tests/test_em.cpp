// Electromigration model tests (Black's equation, bipolar recovery).
#include <gtest/gtest.h>

#include <cmath>

#include "em/black.h"
#include "em/bipolar.h"
#include "numeric/constants.h"
#include "selfconsistent/eq13.h"

namespace dsmt::em {
namespace {

materials::EmParameters alcu_em() { return materials::make_alcu().em; }

/// Black's rule at temperature (paper Eq. 12 solved for j): the j_avg an
/// AlCu line at t_metal may carry and keep the lifetime of j0 at T_ref.
/// It is Eq. 13's EM branch, whose square eq13::javg2_em evaluates.
units::CurrentDensity javg_max(units::CurrentDensity j0,
                               units::Kelvin t_metal) {
  selfconsistent::Problem p;
  p.metal = materials::make_alcu();
  p.j0 = j0;
  p.t_ref = kTrefK;
  return A_per_m2(std::sqrt(selfconsistent::eq13::javg2_em(
      selfconsistent::eq13::make_terms(p), t_metal.value())));
}

TEST(Black, TtfScalesAsJToMinusN) {
  const auto em = alcu_em();
  const double t1 = time_to_failure(1.0, em, MA_per_cm2(1.0), kTrefK);
  const double t2 = time_to_failure(1.0, em, MA_per_cm2(2.0), kTrefK);
  EXPECT_NEAR(t1 / t2, 4.0, 1e-9);  // n = 2
}

TEST(Black, HotterMetalFailsSooner) {
  const auto em = alcu_em();
  const auto j = MA_per_cm2(1.0);
  EXPECT_GT(time_to_failure(1.0, em, j, kTrefK),
            time_to_failure(1.0, em, j, kTrefK + kelvin_delta(30.0)));
}

TEST(Black, LifetimeRatioConsistentWithTtf) {
  const auto em = alcu_em();
  const auto j0 = MA_per_cm2(0.6), j1 = MA_per_cm2(1.1);
  const auto t0 = kTrefK, t1 = kTrefK + kelvin_delta(17.0);
  const double expected = time_to_failure(1.0, em, j1, t1) /
                          time_to_failure(1.0, em, j0, t0);
  EXPECT_NEAR(lifetime_ratio(em, j1, t1, j0, t0), expected, 1e-12);
}

TEST(Black, JavgMaxEqualsJ0AtReference) {
  const auto j0 = MA_per_cm2(0.6);
  EXPECT_NEAR(javg_max(j0, kTrefK), j0, 1e-9);
}

TEST(Black, JavgMaxFallsWithTemperature) {
  const auto j0 = MA_per_cm2(0.6);
  double prev = j0;
  for (double dt : {10.0, 30.0, 60.0, 120.0}) {
    const double j = javg_max(j0, kTrefK + kelvin_delta(dt));
    EXPECT_LT(j, prev);
    prev = j;
  }
}

TEST(Black, JavgMaxPreservesLifetime) {
  // The reduced j at the hot temperature must give exactly the reference
  // lifetime — the defining property of Eq. 12.
  const auto em = alcu_em();
  const auto j0 = MA_per_cm2(0.6);
  const auto t_hot = kTrefK + kelvin_delta(42.0);
  const auto j_hot = javg_max(j0, t_hot);
  EXPECT_NEAR(lifetime_ratio(em, j_hot, t_hot, j0, kTrefK), 1.0, 1e-10);
}

// Property: temperature_for_javg inverts Black's rule at temperature.
class EmInverse : public ::testing::TestWithParam<double> {};

TEST_P(EmInverse, RoundTrip) {
  const auto em = alcu_em();
  const auto j0 = MA_per_cm2(0.6);
  const auto t_hot = kTrefK + kelvin_delta(GetParam());
  const auto j = javg_max(j0, t_hot);
  EXPECT_NEAR(temperature_for_javg(em, j, j0, kTrefK), t_hot, 1e-6 * t_hot);
}

INSTANTIATE_TEST_SUITE_P(Rises, EmInverse,
                         ::testing::Values(1.0, 5.0, 20.0, 50.0, 150.0));

TEST(Black, DesignRuleJ0FromAcceleratedTest) {
  const auto em = alcu_em();
  // Accelerated test: 2 MA/cm^2 at 200 degC failed in 1000 h; goal 10 yr at
  // 100 degC. j0 must be positive and below the test current.
  const auto j0 = design_rule_j0(em, MA_per_cm2(2.0),
                                   celsius_to_kelvin(200.0), 1000.0 * 3600.0,
                                   10.0 * 365.25 * 86400.0, kTrefK);
  EXPECT_GT(j0, 0.0);
  // The 100 degC derating (x10 lifetime) nearly cancels the 1000 h -> 10 yr
  // scaling (x9.4 on sqrt), so j0 lands close to the test current.
  EXPECT_NEAR(j0, MA_per_cm2(2.13), MA_per_cm2(0.05));
  // Self-consistency: with that j0 at T_ref, the lifetime ratio to the test
  // condition equals goal/test.
  EXPECT_NEAR(lifetime_ratio(em, j0, kTrefK, MA_per_cm2(2.0),
                             celsius_to_kelvin(200.0)),
              10.0 * 365.25 * 86400.0 / (1000.0 * 3600.0), 1e-6 * 87660.0);
}

TEST(Lognormal, MedianAndQuantileOrdering) {
  EXPECT_NEAR(lognormal_quantile_time(100.0, 0.5, 0.5), 100.0, 1e-9);
  const double t001 = lognormal_quantile_time(100.0, 0.5, 0.001);
  const double t50 = lognormal_quantile_time(100.0, 0.5, 0.5);
  const double t99 = lognormal_quantile_time(100.0, 0.5, 0.99);
  EXPECT_LT(t001, t50);
  EXPECT_LT(t50, t99);
  // 0.1% quantile at sigma 0.5: exp(0.5 * -3.09) ~ 0.213 of the median.
  EXPECT_NEAR(t001 / t50, std::exp(0.5 * -3.0902), 1e-3);
}

TEST(Bipolar, UnipolarIdentities) {
  // Paper Eqs. 4-5.
  EXPECT_DOUBLE_EQ(javg_unipolar(MA_per_cm2(10.0), 0.1), MA_per_cm2(1.0));
  EXPECT_NEAR(jrms_unipolar(MA_per_cm2(10.0), 0.1),
              MA_per_cm2(10.0) * std::sqrt(0.1), 1e-3);
  // j_avg = sqrt(r) j_rms (Eq. 6 companion).
  const double jp = MA_per_cm2(8.0), r = 0.25;
  EXPECT_NEAR(javg_from_jrms(jrms_unipolar(jp, r), r), javg_unipolar(jp, r),
              1e-6);
  EXPECT_THROW(javg_unipolar(1.0, 1.5), std::invalid_argument);
}

TEST(Bipolar, GammaZeroRecoversDominantPolarityAverage) {
  std::vector<double> t{0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> j{2.0, 2.0, -1.0, -1.0, 2.0};
  // positive integral: 2*2 + last segment ... compute via function with
  // gamma=0: forward = max(pos, neg).
  const double eff0 = effective_javg_bipolar(t, j, 0.0);
  EXPECT_GT(eff0, 0.0);
  const double eff1 = effective_javg_bipolar(t, j, 1.0);
  EXPECT_LT(eff1, eff0);  // recovery strictly reduces effective stress
}

TEST(Bipolar, SymmetricWaveformFullRecoveryGivesZero) {
  std::vector<double> t{0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> j{1.0, 1.0, -1.0, -1.0, 1.0};
  EXPECT_NEAR(effective_javg_bipolar(t, j, 1.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isinf(bipolar_immunity_factor(t, j, 1.0)));
}

TEST(Bipolar, ImmunityFactorAtLeastOne) {
  std::vector<double> t{0.0, 1.0, 2.0, 3.0};
  std::vector<double> j{3.0, 3.0, -1.0, 2.0};
  for (double gamma : {0.0, 0.5, 0.9}) {
    EXPECT_GE(bipolar_immunity_factor(t, j, gamma), 1.0);
  }
}

TEST(Bipolar, ZeroCrossingSplitExact) {
  // Linear ramp from +1 to -1 over [0,2]: pos area 0.5, neg area 0.5.
  std::vector<double> t{0.0, 2.0};
  std::vector<double> j{1.0, -1.0};
  EXPECT_NEAR(effective_javg_bipolar(t, j, 0.0), 0.25, 1e-12);
  EXPECT_NEAR(effective_javg_bipolar(t, j, 1.0), 0.0, 1e-12);
}

TEST(Bipolar, RejectsBadInputs) {
  std::vector<double> t{0.0, 1.0};
  std::vector<double> j{1.0, 1.0};
  EXPECT_THROW(effective_javg_bipolar(t, j, -0.1), std::invalid_argument);
  EXPECT_THROW(effective_javg_bipolar({0.0}, {1.0}, 0.5),
               std::invalid_argument);
  EXPECT_THROW(effective_javg_bipolar({1.0, 0.0}, {1.0, 1.0}, 0.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace dsmt::em
