// The degradation ladder: how a solve or an analytic bound becomes a reply.
//
// When the request's one full Eq. 13 solve fails, the service still answers
// from rung 2, which is *conservative for j_rms* (and therefore for T_m,
// which rises monotonically with j_rms):
//
//   rung 0  the full quasi-2D self-consistent solve (a live solve or a
//           verified solve-cache hit of one).
//
//   rung 2  analytic_quasi1d_bound — iteration-free lower bound from the
//           quasi-1D W_eff = W_m + 0.88 b problem. For ANY trial T^ >= T_ref,
//           j_rms = min(jrms_thermal_at(T^), javg_em_at(T^)/sqrt(r)) is
//           feasible (the thermal branch pins T <= T^, the EM branch is
//           evaluated at the pessimistic T^); we take the best T^ over a
//           fixed geometric grid. The quasi-1D phi = 0.88 underestimates
//           W_eff, overestimates R'_th and hence heating, pushing the bound
//           further below the quasi-2D answer.
//
// answer_full() and answer_bound() are the only code that turns a rung's
// result into Response fields: the in-process service, its cache-hit path,
// and the supervise parent's quarantine path all call them, so every path
// answers with the same bytes.
//
// Full derivations: docs/THEORY.md section 15.
#pragma once

#include "selfconsistent/solver.h"
#include "service/request.h"

namespace dsmt::service {

/// Rung-2 result: a feasible, conservative operating point.
struct AnalyticBound {
  units::Kelvin t_metal{};         ///< trial temperature of the best rung
  units::CurrentDensity j_rms{};   ///< guaranteed-feasible RMS density
  units::CurrentDensity j_peak{};  ///< j_rms / sqrt(r)
  units::CurrentDensity j_avg{};   ///< sqrt(r) j_rms
};

/// Iteration-free conservative bound from the quasi-1D problem (see the
/// header comment). Deterministic: fixed temperature grid, no root find, no
/// fault-injection hook in its path. Throws std::invalid_argument on duty
/// cycle outside (0, 1] or non-finite problem data.
AnalyticBound analytic_quasi1d_bound(const selfconsistent::Problem& quasi1d);

/// Rung 0: answers `resp` with `solution`, the full solve of `ladder`
/// (= build_problem(request)). Absorbs the solution's diag chain as attempt
/// resp.attempts, then fills status, level and the solution fields.
void answer_full(Response& resp, const Request& request,
                 const LadderProblem& ladder,
                 const selfconsistent::Solution& solution);

/// Rung 2: answers `resp` with `bound`, degraded and conservative. Leaves
/// the diag chain to the caller, who records why the ladder got here.
void answer_bound(Response& resp, const Request& request,
                  const LadderProblem& ladder, const AnalyticBound& bound);

}  // namespace dsmt::service
