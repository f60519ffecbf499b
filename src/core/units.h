// Zero-overhead dimensional types for every physical quantity that crosses a
// public API boundary, plus the physical constants and unit-conversion
// helpers that used to live in numeric/constants.h (which now forwards here).
//
// Design.
//   * A Quantity is a single double tagged at compile time with SI base
//     dimension exponents <metre, kilogram, second, ampere, kelvin> and an
//     extra Tag that separates absolute temperatures (Kelvin) from
//     temperature differences (CelsiusDelta).
//   * Construction from a raw double is *explicit*: passing a bare double --
//     or a quantity of the wrong dimension -- where a Kelvin is expected is a
//     compile error. Two user-defined conversions are never chained, so
//     CurrentDensity -> double -> Kelvin cannot happen implicitly.
//   * Conversion *to* double is implicit. This is the interop shim: typed
//     values flow into legacy double-based code (tests/, bench/, examples/
//     and internal solvers) without edits, and migration can proceed
//     incrementally.
//   * Arithmetic is constexpr and dimension-aware: products and quotients
//     compute the result dimension from the operand dimensions, so
//     identities like  [j]^2 [rho] [H] = temperature rise  are checked by
//     static_assert below.
//
// Internal unit policy (SI unless stated):
//   length        metres            temperature  kelvin
//   current       amperes           resistivity  ohm-metre
//   current dens. A/m^2             therm. cond. W/(m*K)
//   capacitance   farads            heat cap.    J/(m^3*K)
//
// The DAC-99 paper quotes current densities in MA/cm^2 and lengths in um;
// the factory helpers below keep paper-facing code readable.
#pragma once

#include <compare>
#include <string>
#include <type_traits>

namespace dsmt::units {

/// One physical quantity: a double with compile-time SI dimension exponents
/// <M = metre, Kg = kilogram, S = second, A = ampere, K = kelvin>. Tag = 1
/// marks absolute (point-like) quantities whose differences live in the
/// Tag = 0 space of the same dimension (Kelvin vs CelsiusDelta).
template <int M, int Kg, int S, int A, int K, int Tag = 0>
class Quantity {
 public:
  constexpr Quantity() = default;
  /// Explicit on purpose: raw doubles must be blessed by a factory helper
  /// (um, MA_per_cm2, ...) or an explicit Quantity{...} at the call site.
  explicit constexpr Quantity(double raw) : v_(raw) {}

  /// The raw value in SI base units.
  [[nodiscard]] constexpr double value() const { return v_; }
  /// Implicit interop shim: typed values decay into legacy double code.
  constexpr operator double() const { return v_; }

  constexpr Quantity operator-() const { return Quantity{-v_}; }
  constexpr Quantity operator+() const { return *this; }

  constexpr Quantity& operator+=(Quantity o) { v_ += o.v_; return *this; }
  constexpr Quantity& operator-=(Quantity o) { v_ -= o.v_; return *this; }
  constexpr Quantity& operator*=(double s) { v_ *= s; return *this; }
  constexpr Quantity& operator/=(double s) { v_ /= s; return *this; }

  // Same-type sums are only meaningful for difference-like (Tag 0)
  // quantities; absolute temperatures get their affine operators below.
  friend constexpr Quantity operator+(Quantity a, Quantity b)
    requires(Tag == 0) { return Quantity{a.v_ + b.v_}; }
  friend constexpr Quantity operator-(Quantity a, Quantity b)
    requires(Tag == 0) { return Quantity{a.v_ - b.v_}; }

  friend constexpr Quantity operator*(Quantity a, double s) { return Quantity{a.v_ * s}; }
  friend constexpr Quantity operator*(double s, Quantity a) { return Quantity{s * a.v_}; }
  friend constexpr Quantity operator/(Quantity a, double s) { return Quantity{a.v_ / s}; }

  friend constexpr auto operator<=>(Quantity, Quantity) = default;

 private:
  double v_ = 0.0;
};

// Dimension-aware products and quotients: the result dimension is the
// exponent sum/difference, always in the difference-like (Tag 0) space.
template <int M1, int Kg1, int S1, int A1, int K1, int T1,
          int M2, int Kg2, int S2, int A2, int K2, int T2>
constexpr Quantity<M1 + M2, Kg1 + Kg2, S1 + S2, A1 + A2, K1 + K2>
operator*(Quantity<M1, Kg1, S1, A1, K1, T1> a,
          Quantity<M2, Kg2, S2, A2, K2, T2> b) {
  return Quantity<M1 + M2, Kg1 + Kg2, S1 + S2, A1 + A2, K1 + K2>{
      a.value() * b.value()};
}

template <int M1, int Kg1, int S1, int A1, int K1, int T1,
          int M2, int Kg2, int S2, int A2, int K2, int T2>
constexpr Quantity<M1 - M2, Kg1 - Kg2, S1 - S2, A1 - A2, K1 - K2>
operator/(Quantity<M1, Kg1, S1, A1, K1, T1> a,
          Quantity<M2, Kg2, S2, A2, K2, T2> b) {
  return Quantity<M1 - M2, Kg1 - Kg2, S1 - S2, A1 - A2, K1 - K2>{
      a.value() / b.value()};
}

template <int M, int Kg, int S, int A, int K, int T>
constexpr Quantity<-M, -Kg, -S, -A, -K>
operator/(double s, Quantity<M, Kg, S, A, K, T> q) {
  return Quantity<-M, -Kg, -S, -A, -K>{s / q.value()};
}

// --- the named quantities of the Eq. 13 electro-thermal solve ---------------
/// Absolute temperature [K].
using Kelvin = Quantity<0, 0, 0, 0, 1, 1>;
/// Temperature difference [K] (== a difference in degC).
using CelsiusDelta = Quantity<0, 0, 0, 0, 1>;
/// Length [m].
using Metres = Quantity<1, 0, 0, 0, 0>;
/// Time [s].
using Seconds = Quantity<0, 0, 1, 0, 0>;
/// Current density [A/m^2].
using CurrentDensity = Quantity<-2, 0, 0, 1, 0>;
/// Electrical resistivity [Ohm*m] = [kg*m^3/(s^3*A^2)].
using Resistivity = Quantity<3, 1, -3, -2, 0>;
/// Thermal conductivity [W/(m*K)] = [kg*m/(s^3*K)].
using ThermalConductivity = Quantity<1, 1, -3, 0, -1>;
/// Per-unit-length thermal resistance R'_th [K*m/W] (paper Eq. 15).
using ThermalResistancePerLength = Quantity<-1, -1, 3, 0, 1>;
/// Heating coefficient H [K*m^3/W] of Eq. 9: dT = j_rms^2 rho(T) H.
using HeatingCoefficient = Quantity<1, -1, 3, 0, 1>;
/// A dimensionless ratio (result of like-for-like quotients).
using Dimensionless = Quantity<0, 0, 0, 0, 0>;

// Affine temperature algebra: points differ by deltas.
constexpr CelsiusDelta operator-(Kelvin a, Kelvin b) {
  return CelsiusDelta{a.value() - b.value()};
}
constexpr Kelvin operator+(Kelvin a, CelsiusDelta d) {
  return Kelvin{a.value() + d.value()};
}
constexpr Kelvin operator+(CelsiusDelta d, Kelvin a) {
  return Kelvin{a.value() + d.value()};
}
constexpr Kelvin operator-(Kelvin a, CelsiusDelta d) {
  return Kelvin{a.value() - d.value()};
}

// --- static dimension checks ------------------------------------------------
// Zero overhead: a Quantity is exactly a double in memory and in registers.
static_assert(sizeof(Kelvin) == sizeof(double));
static_assert(sizeof(CurrentDensity) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Kelvin>);
static_assert(std::is_standard_layout_v<CurrentDensity>);
// No silent injection of raw or wrongly-dimensioned values.
static_assert(!std::is_convertible_v<double, Kelvin>);
static_assert(!std::is_convertible_v<Kelvin, CurrentDensity>);
static_assert(!std::is_convertible_v<CelsiusDelta, Kelvin>);
// Eq. 15: H = t_m * W_m * R'_th.
static_assert(std::is_same_v<
    decltype(Metres{} * Metres{} * ThermalResistancePerLength{}),
    HeatingCoefficient>);
// Eq. 9: dT = j_rms^2 * rho * H is a temperature rise.
static_assert(std::is_same_v<
    decltype(CurrentDensity{} * CurrentDensity{} * Resistivity{} *
             HeatingCoefficient{}),
    CelsiusDelta>);
// R'_th integrates a conductivity over the path: [m]/([W/(m*K)]*[m]) = [K*m/W].
static_assert(std::is_same_v<
    decltype(Metres{} / (ThermalConductivity{} * Metres{})),
    ThermalResistancePerLength>);
// Like-for-like ratios are dimensionless.
static_assert(std::is_same_v<decltype(Metres{} / Metres{}), Dimensionless>);

}  // namespace dsmt::units

namespace dsmt {

// --- physical constants -----------------------------------------------------
/// Boltzmann constant [J/K].
inline constexpr double kBoltzmannJ = 1.380649e-23;
/// Boltzmann constant [eV/K] — Black's equation uses Q in eV.
inline constexpr double kBoltzmannEv = 8.617333262e-5;
/// Elementary charge [C].
inline constexpr double kElementaryCharge = 1.602176634e-19;
/// Absolute zero offset: 0 degC in kelvin [K].
inline constexpr double kCelsiusOffset = 273.15;
/// Vacuum permittivity [F/m].
inline constexpr double kEpsilon0 = 8.8541878128e-12;
/// Reference chip (silicon junction) temperature used by the paper: 100 degC.
inline constexpr units::Kelvin kTrefK{373.15};

// --- temperature ------------------------------------------------------------
/// Degrees Celsius [degC] -> absolute temperature.
constexpr units::Kelvin celsius_to_kelvin(double t_c) {
  return units::Kelvin{t_c + kCelsiusOffset};
}
/// Absolute temperature [K] -> degrees Celsius.
constexpr double kelvin_to_celsius(double t_k) { return t_k - kCelsiusOffset; }
/// Absolute temperature from a raw kelvin value [K].
constexpr units::Kelvin kelvin(double t_k) { return units::Kelvin{t_k}; }
/// Temperature difference from a raw kelvin (== degC) difference [K].
constexpr units::CelsiusDelta kelvin_delta(double dt) {
  return units::CelsiusDelta{dt};
}

// --- length -----------------------------------------------------------------
/// Length from micrometres [um].
constexpr units::Metres um(double v) { return units::Metres{v * 1e-6}; }
/// Length from nanometres [nm].
constexpr units::Metres nm(double v) { return units::Metres{v * 1e-9}; }
/// Length from raw metres [m].
constexpr units::Metres metres(double v) { return units::Metres{v}; }
/// Length [m] -> micrometres.
constexpr double to_um(double m) { return m * 1e6; }

// --- current density --------------------------------------------------------
/// Current density from MA/cm^2: 1 MA/cm^2 = 1e6 A / 1e-4 m^2 = 1e10 A/m^2.
constexpr units::CurrentDensity MA_per_cm2(double v) {
  return units::CurrentDensity{v * 1e10};
}
/// Current density from raw A/m^2.
constexpr units::CurrentDensity A_per_m2(double v) {
  return units::CurrentDensity{v};
}
/// Current density [A/m^2] -> MA/cm^2.
constexpr double to_MA_per_cm2(double j) { return j * 1e-10; }

// --- resistivity ------------------------------------------------------------
/// Resistivity from micro-ohm-cm: 1 uOhm-cm = 1e-8 Ohm-m.
constexpr units::Resistivity uohm_cm(double v) {
  return units::Resistivity{v * 1e-8};
}
/// Resistivity from raw Ohm-m.
constexpr units::Resistivity ohm_m(double v) { return units::Resistivity{v}; }

// --- time -------------------------------------------------------------------
/// Time from nanoseconds [ns].
constexpr units::Seconds ns(double v) { return units::Seconds{v * 1e-9}; }
/// Time from picoseconds [ps].
constexpr units::Seconds ps(double v) { return units::Seconds{v * 1e-12}; }
/// Time from raw seconds [s].
constexpr units::Seconds seconds(double v) { return units::Seconds{v}; }

// --- thermal transport ------------------------------------------------------
/// Thermal conductivity from raw W/(m*K).
constexpr units::ThermalConductivity W_per_mK(double v) {
  return units::ThermalConductivity{v};
}
/// Per-unit-length thermal resistance from raw K*m/W.
constexpr units::ThermalResistancePerLength K_m_per_W(double v) {
  return units::ThermalResistancePerLength{v};
}

// --- capacitance ------------------------------------------------------------
// Capacitances stay raw doubles [F]: they never cross the thermal/EM solver
// boundary that the strong types guard.
constexpr double fF(double v) { return v * 1e-15; }  ///< femtofarads -> [F]
constexpr double pF(double v) { return v * 1e-12; }  ///< picofarads  -> [F]

}  // namespace dsmt
