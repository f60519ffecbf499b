// Scalar root finding: bisection, Brent's method, and damped Newton.
//
// The self-consistent interconnect-temperature equation (paper Eq. 13) is a
// single nonlinear equation with a guaranteed bracket, so Brent is the
// workhorse and bisection its fallback. Damped Newton has no caller in the
// library; only its own tests run it.
//
// Every kernel classifies its outcome with a core::StatusCode; the
// brent_robust() wrapper adds the standard recovery chain (bracket
// expansion, bisection fallback) and records each stage in a
// core::SolverDiag so failures surface with their full history.
#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "core/status.h"

namespace dsmt::numeric {

/// Outcome of a scalar root search. [[nodiscard]]: dropping a root result
/// on the floor is exactly how an unconverged solve leaks garbage upstream.
struct [[nodiscard]] RootResult {
  double root = 0.0;        ///< abscissa of the root (valid iff converged)
  double f_at_root = 0.0;   ///< residual f(root)
  int iterations = 0;       ///< iterations consumed
  bool converged = false;   ///< true if tolerances were met
  core::StatusCode status = core::StatusCode::kMaxIterations;

  bool ok() const { return status == core::StatusCode::kOk; }
};

/// Options shared by the bracketing solvers.
struct RootOptions {
  double x_tol = 1e-12;     ///< absolute tolerance on the abscissa
  double f_tol = 0.0;       ///< absolute tolerance on the residual (0 = off)
  int max_iterations = 200;
};

/// Classic bisection on [lo, hi]. Requires f(lo) and f(hi) of opposite sign;
/// returns status kNoBracket otherwise.
/// lo, hi in f's argument unit [1].
RootResult bisect(const std::function<double(double)>& f, double lo, double hi,
                  const RootOptions& opts = {});

/// Brent's method (inverse quadratic interpolation + secant + bisection).
/// Requires a sign change on [lo, hi]. Converges superlinearly on smooth f
/// while retaining bisection's robustness.
/// lo, hi in f's argument unit [1].
RootResult brent(const std::function<double(double)>& f, double lo, double hi,
                 const RootOptions& opts = {});

/// Brent wrapped in the standard recovery chain: a missing bracket triggers
/// expand_bracket() and a retry; an exhausted or non-finite attempt falls
/// back to bisection with a 4x iteration budget. Every stage is recorded in
/// `diag`; the returned status is the final stage's outcome.
/// lo, hi in f's argument unit [1].
RootResult brent_robust(const std::function<double(double)>& f, double lo,
                        double hi, const RootOptions& opts,
                        core::SolverDiag& diag);

/// Damped Newton iteration from x0 with user-supplied derivative. Halves the
/// step (up to 40 times) whenever |f| fails to decrease.
/// x0 in f's argument unit [1].
RootResult newton(const std::function<double(double)>& f,
                  const std::function<double(double)>& dfdx, double x0,
                  const RootOptions& opts = {});

/// Expands [lo, hi] geometrically about its midpoint until f changes sign or
/// `max_doublings` is hit. Returns the bracket if found.
/// lo, hi in f's argument unit [1].
std::optional<std::pair<double, double>> expand_bracket(
    const std::function<double(double)>& f, double lo, double hi,
    int max_doublings = 60);

}  // namespace dsmt::numeric
