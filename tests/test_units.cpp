// Tests for the dimensional type system in core/units.h: factory round-trips,
// constexpr arithmetic, affine temperature algebra, and the compile-time
// guarantees (zero overhead, no implicit raw-double injection).
#include "core/units.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

namespace dsmt {
namespace {

// ---- zero-overhead guarantees (compile-time; listed here so the test file
// documents them even though units.h static_asserts them already) ------------
static_assert(sizeof(units::Kelvin) == sizeof(double));
static_assert(sizeof(units::CurrentDensity) == sizeof(double));
static_assert(sizeof(units::HeatingCoefficient) == sizeof(double));
static_assert(std::is_trivially_copyable_v<units::Metres>);

// ---- no silent injection of raw or wrongly-dimensioned values --------------
static_assert(!std::is_convertible_v<double, units::Kelvin>);
static_assert(!std::is_convertible_v<double, units::CurrentDensity>);
static_assert(!std::is_convertible_v<units::Kelvin, units::CurrentDensity>);
static_assert(!std::is_convertible_v<units::CelsiusDelta, units::Kelvin>);
static_assert(!std::is_convertible_v<units::Metres, units::Seconds>);
// ... but typed -> double decay (the interop shim) is allowed.
static_assert(std::is_convertible_v<units::Kelvin, double>);

// Absolute temperatures have no typed operator+(Kelvin, Kelvin): summing two
// temperature *points* is meaningless, so the expression falls through the
// interop shim and produces a raw double, never another Kelvin.  Difference-
// like quantities keep their type under addition.
static_assert(std::is_same_v<decltype(std::declval<units::Kelvin>() +
                                      std::declval<units::Kelvin>()),
                             double>);
static_assert(std::is_same_v<decltype(std::declval<units::CelsiusDelta>() +
                                      std::declval<units::CelsiusDelta>()),
                             units::CelsiusDelta>);
static_assert(std::is_same_v<decltype(std::declval<units::Metres>() +
                                      std::declval<units::Metres>()),
                             units::Metres>);

// ---- constexpr arithmetic and dimension algebra ----------------------------
// Eq. 15 of the paper: H = t_m * W_m * R'_th, fully evaluated at compile time.
constexpr auto kH = um(1.0) * um(2.0) * K_m_per_W(3.0);
static_assert(std::is_same_v<std::remove_const_t<decltype(kH)>,
                             units::HeatingCoefficient>);
static_assert(kH.value() == 1e-6 * 2e-6 * 3.0);

// Eq. 9: dT = j^2 rho H has temperature dimension.
constexpr auto kDt = MA_per_cm2(1.0) * MA_per_cm2(1.0) * uohm_cm(3.0) * kH;
static_assert(std::is_same_v<std::remove_const_t<decltype(kDt)>,
                             units::CelsiusDelta>);

// Like-for-like ratios collapse to Dimensionless.
static_assert(std::is_same_v<decltype(um(4.0) / um(2.0)),
                             units::Dimensionless>);
static_assert((um(4.0) / um(2.0)).value() == 2.0);

TEST(Units, FactoryRoundTrips) {
  EXPECT_DOUBLE_EQ(um(1.0).value(), 1e-6);
  EXPECT_DOUBLE_EQ(nm(1.0).value(), 1e-9);
  EXPECT_DOUBLE_EQ(to_um(um(0.8).value()), 0.8);

  EXPECT_DOUBLE_EQ(MA_per_cm2(1.0).value(), 1e10);
  EXPECT_DOUBLE_EQ(to_MA_per_cm2(MA_per_cm2(0.6).value()), 0.6);

  EXPECT_DOUBLE_EQ(uohm_cm(3.3).value(), 3.3e-8);
  EXPECT_DOUBLE_EQ(ns(1.0).value(), 1e-9);
  EXPECT_DOUBLE_EQ(ps(1.0).value(), 1e-12);
  EXPECT_DOUBLE_EQ(seconds(2.5).value(), 2.5);
  EXPECT_DOUBLE_EQ(fF(1.0), 1e-15);
  EXPECT_DOUBLE_EQ(pF(1.0), 1e-12);
}

TEST(Units, TemperatureAffineAlgebra) {
  const units::Kelvin t0 = celsius_to_kelvin(100.0);
  EXPECT_DOUBLE_EQ(t0.value(), 373.15);
  EXPECT_DOUBLE_EQ(kelvin_to_celsius(t0.value()), 100.0);

  // point + delta = point; point - point = delta.
  const units::Kelvin hot = t0 + kelvin_delta(30.0);
  EXPECT_DOUBLE_EQ(hot.value(), 403.15);
  const units::CelsiusDelta dt = hot - t0;
  EXPECT_DOUBLE_EQ(dt.value(), 30.0);
  EXPECT_DOUBLE_EQ((hot - dt).value(), t0.value());
  EXPECT_DOUBLE_EQ((kelvin_delta(30.0) + t0).value(), hot.value());
}

TEST(Units, ScalarArithmetic) {
  auto l = um(2.0);
  l *= 3.0;
  EXPECT_DOUBLE_EQ(l.value(), 6e-6);
  l /= 2.0;
  EXPECT_DOUBLE_EQ(l.value(), 3e-6);
  l += um(1.0);
  EXPECT_DOUBLE_EQ(l.value(), 4e-6);
  l -= um(4.0);
  EXPECT_DOUBLE_EQ(l.value(), 0.0);
  EXPECT_DOUBLE_EQ((-um(5.0)).value(), -5e-6);
  EXPECT_DOUBLE_EQ((2.0 * um(5.0)).value(), 1e-5);
  EXPECT_DOUBLE_EQ((um(5.0) / 5.0).value(), 1e-6);
}

TEST(Units, ComparisonsAndOrdering) {
  EXPECT_LT(um(1.0), um(2.0));
  EXPECT_DOUBLE_EQ(um(1.0).value(), nm(1000.0).value());
  EXPECT_GT(MA_per_cm2(0.7), MA_per_cm2(0.6));
  EXPECT_LE(kelvin(300.0), kelvin(300.0));
}

TEST(Units, DivisionBuildsInverseDimensions) {
  // 1 / R'_th has dimension W/(K*m); multiplying back is dimensionless.
  const auto g = 1.0 / K_m_per_W(4.0);
  const auto unity = g * K_m_per_W(4.0);
  static_assert(std::is_same_v<std::remove_const_t<decltype(unity)>,
                               units::Dimensionless>);
  EXPECT_DOUBLE_EQ(unity.value(), 1.0);
}

TEST(Units, InteropShimDecaysToDouble) {
  // Typed values flow into double-based legacy code without .value().
  const double raw = um(3.0);
  EXPECT_DOUBLE_EQ(raw, 3e-6);
  const auto ratio = um(3.0) / metres(raw);  // and back in via a factory
  EXPECT_DOUBLE_EQ(ratio.value(), 1.0);
}

TEST(Units, ReferenceTemperatureMatchesPaper) {
  // The DAC-99 analysis is anchored at a 100 degC chip temperature.
  EXPECT_DOUBLE_EQ(kTrefK.value(), 373.15);
  EXPECT_DOUBLE_EQ((kTrefK - celsius_to_kelvin(0.0)).value(), 100.0);
}

}  // namespace
}  // namespace dsmt
