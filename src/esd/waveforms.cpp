#include "esd/waveforms.h"

#include <cmath>
#include <stdexcept>

namespace dsmt::esd {

namespace {
constexpr double kHbmTauRise = 10e-9;
constexpr double kHbmTauFall = 150e-9;

CurrentWaveform double_exp(double peak, double tau_r, double tau_f) {
  const double t_star = std::log(tau_f / tau_r) * tau_r * tau_f / (tau_f - tau_r);
  const double norm = std::exp(-t_star / tau_f) - std::exp(-t_star / tau_r);
  return [=](double t) {
    if (t <= 0.0) return 0.0;
    return peak * (std::exp(-t / tau_f) - std::exp(-t / tau_r)) / norm;
  };
}
}  // namespace

CurrentWaveform hbm(double v_charge) {
  if (v_charge <= 0.0) throw std::invalid_argument("hbm: v_charge <= 0");
  return double_exp(v_charge / 1500.0, kHbmTauRise, kHbmTauFall);
}

CurrentWaveform mm(double v_charge) {
  if (v_charge <= 0.0) throw std::invalid_argument("mm: v_charge <= 0");
  // Series RLC: C = 200 pF, L = 0.75 uH, R = 10 Ohm.
  const double c = 200e-12, l = 0.75e-6, r = 10.0;
  const double alpha = r / (2.0 * l);
  const double w0 = 1.0 / std::sqrt(l * c);
  const double wd = std::sqrt(std::max(w0 * w0 - alpha * alpha, 1e-6));
  return [=](double t) {
    if (t <= 0.0) return 0.0;
    return v_charge / (wd * l) * std::exp(-alpha * t) * std::sin(wd * t);
  };
}

CurrentWaveform tlp(double i, double t_pulse) {
  if (t_pulse <= 0.0) throw std::invalid_argument("tlp: width <= 0");
  return [=](double t) { return (t > 0.0 && t <= t_pulse) ? i : 0.0; };
}

double hbm_duration() { return 4.0 * kHbmTauFall; }

}  // namespace dsmt::esd
