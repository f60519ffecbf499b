// ODE integrators for lumped thermal transients (ESD pulse heating).
//
// The ESD failure model integrates C_v dT/dt = j(t)^2 rho(T) - loss(T) with
// the adaptive RKF45 (thermal/transient). Fixed-step RK4 and implicit Euler
// have no caller in the library; only their own tests run them.
#pragma once

#include <functional>
#include <vector>

namespace dsmt::numeric {

/// Right-hand side f(t, y) of a scalar ODE y' = f(t, y).
using ScalarRhs = std::function<double(double, double)>;

/// A sampled scalar trajectory.
struct OdeTrajectory {
  std::vector<double> t;
  std::vector<double> y;
};

/// Classic fixed-step RK4 from t0 to t1 with `steps` steps.
/// t0, t1 in the time unit of f [s]; y0 in the state unit [1].
OdeTrajectory rk4(const ScalarRhs& f, double t0, double y0, double t1,
                  int steps);

/// Adaptive Runge-Kutta-Fehlberg 4(5) with absolute/relative error control.
/// `event` (optional) stops integration early when it returns true for the
/// freshly accepted (t, y) — used to stop at the melting point.
/// t0, t1 [s]; y0 [1]; tolerances in the state unit [1].
OdeTrajectory rkf45(const ScalarRhs& f, double t0, double y0, double t1,
                    double abs_tol = 1e-9, double rel_tol = 1e-7,
                    const std::function<bool(double, double)>& event = {});

/// Fixed-step implicit (backward) Euler; each step solves
/// y_{n+1} = y_n + h f(t_{n+1}, y_{n+1}) with damped fixed-point/Newton mix.
/// t0, t1 [s]; y0 [1].
OdeTrajectory implicit_euler(const ScalarRhs& f, double t0, double y0,
                             double t1, int steps);

}  // namespace dsmt::numeric
