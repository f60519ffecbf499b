// Standard ESD stress current waveforms (paper Section 6, refs. [25-27]).
//
// HBM (human body model): double-exponential, ~10 ns rise / ~150 ns decay,
//   I_peak ~= V_charge / 1500 Ohm.
// MM (machine model): ringing discharge, ~0.5-MHz-scale damped sine with
//   much higher peak per volt (no series resistor).
// TLP (transmission-line pulse): the rectangular characterization pulse.
#pragma once

#include <functional>

namespace dsmt::esd {

/// Time-domain ESD current [A] as a function of time [s].
using CurrentWaveform = std::function<double(double)>;

/// HBM discharge for a pre-charge voltage `v_charge` [V]; classic 100 pF /
/// 1.5 kOhm network: peak ~ v/1500, rise ~ 10 ns, decay ~ 150 ns.
CurrentWaveform hbm(double v_charge);

/// MM discharge (200 pF, ~0.75 uH, ~10 Ohm): damped sine with period
/// ~ 80 ns; peak roughly v/15 [A].
CurrentWaveform mm(double v_charge);

/// Rectangular transmission-line-pulse (TLP) current of amplitude `i` and
/// width `t_pulse` — the waveform used to characterize the failure model.
/// i [A], t_pulse [s].
CurrentWaveform tlp(double i, double t_pulse);

/// Duration containing the bulk of the stress: HBM ~ 4 decay constants.
double hbm_duration();

}  // namespace dsmt::esd
