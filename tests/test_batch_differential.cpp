// Differential harness for the batched Eq.-13 solver.
//
// The batch contract is bit-for-bit fidelity: for every lane, solve_batch
// must reproduce what selfconsistent::solve would have produced for the same
// Problem — same doubles (bitwise, not approximately), same iteration
// counts, same StatusCode, same SolverDiag chain event-for-event, and for
// failed lanes the same exception type and what() text. This file enforces
// that over thousands of randomized-but-seeded Problems (counter-based
// splitmix64, reproducible run to run) spanning the four stock metals, duty
// cycles across three decades, j0 across the design space and beyond it
// (no-bracket lanes), bracket-edge cases that push the scalar path through
// expand_bracket retries, invalid inputs, and fault-injected kernels.
//
// Property tests complete the proof: lane permutation invariance, batch-size
// independence (one big batch == many small ones == solve_one), retired-lane
// isolation (a poisoned lane never perturbs a neighbor's bits), and thread
// invariance (same bits at every DSMT_THREADS).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/status.h"
#include "materials/metal.h"
#include "numeric/fault_injection.h"
#include "parallel/thread_pool.h"
#include "selfconsistent/batch.h"
#include "selfconsistent/solver.h"

namespace dsmt::selfconsistent {
namespace {

using core::StatusCode;

// ---------------------------------------------------------------------------
// Counter-based splitmix64: draw k for lane i is rng(seed, i * kDraws + k),
// so the problem set is a pure function of the seed — no sequential state,
// no ordering hazards.
std::uint64_t rng(std::uint64_t seed, std::uint64_t counter) {
  std::uint64_t z = seed + (counter + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double u01(std::uint64_t seed, std::uint64_t counter) {
  return static_cast<double>(rng(seed, counter) >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kDraws = 8;  // draw slots reserved per lane

materials::Metal metal_for(std::uint64_t pick) {
  switch (pick % 4) {
    case 0: return materials::make_copper();
    case 1: return materials::make_alcu();
    case 2: return materials::make_aluminum();
    default: return materials::make_tungsten();
  }
}

/// Randomized lane generator. Most lanes are well-posed problems across the
/// paper's design space; tagged minorities cover every failure family the
/// scalar path can produce:
///   - invalid inputs (each of the four validate() messages, incl. NaN)
///   - no-bracket lanes (j0 so large no T <= t_ref + 5000 K satisfies EM)
///   - bracket-edge lanes (j0 so small the residual is already positive at
///     lo, driving brent to kNoBracket and the robust chain through
///     expand_bracket + retry)
Problem random_problem(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t base = i * kDraws;
  Problem p;
  p.metal = metal_for(rng(seed, base + 0));
  p.duty_cycle = std::pow(10.0, -3.0 * u01(seed, base + 1));
  p.j0 = A_per_m2(std::pow(10.0, 8.0 + 3.0 * u01(seed, base + 2)));
  p.t_ref = units::Kelvin{280.0 + 150.0 * u01(seed, base + 3)};
  p.heating_coefficient =
      units::HeatingCoefficient{std::pow(10.0, -14.0 + 4.0 * u01(seed, base + 4))};

  const std::uint64_t cls = rng(seed, base + 5) % 100;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (cls < 2) {
    p.duty_cycle = (cls == 0) ? 0.0 : nan;
  } else if (cls < 4) {
    p.duty_cycle = 1.0 + u01(seed, base + 6);  // > 1
  } else if (cls < 6) {
    p.j0 = A_per_m2((cls == 4) ? -1.0 : nan);
  } else if (cls < 8) {
    p.t_ref = units::Kelvin{(cls == 6) ? 0.0 : nan};
  } else if (cls < 10) {
    p.heating_coefficient =
        units::HeatingCoefficient{(cls == 8) ? -1e-12 : nan};
  } else if (cls < 16) {
    // No bracket: EM demand exceeds thermal supply all the way to +5000 K.
    p.j0 = A_per_m2(1e18 * (1.0 + u01(seed, base + 6)));
  } else if (cls < 24) {
    // Bracket edge: residual(lo) can already be positive, sending the first
    // brent to kNoBracket and the recovery chain through expand_bracket.
    p.j0 = A_per_m2(std::pow(10.0, 4.0 + 1.5 * u01(seed, base + 6)));
    p.duty_cycle = 0.25 + 0.75 * u01(seed, base + 7);
  } else if (cls < 28) {
    p.duty_cycle = 1.0;  // exact boundary
  }
  return p;
}

std::vector<Problem> random_problems(std::uint64_t seed, std::size_t n) {
  std::vector<Problem> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(random_problem(seed, i));
  return out;
}

BatchProblem to_batch(const std::vector<Problem>& ps) {
  BatchProblem bp;
  bp.reserve(ps.size());
  for (const Problem& p : ps) bp.push_back(p);
  return bp;
}

// ---------------------------------------------------------------------------
// Bitwise double comparison: NaN payloads and signed zeros count.
bool same_bits(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

#define EXPECT_SAME_BITS(a, b) \
  EXPECT_PRED2(same_bits, (a), (b)) << "lane " << i

void expect_diag_eq(const core::SolverDiag& got, const core::SolverDiag& want,
                    std::size_t i) {
  EXPECT_EQ(got.kernel, want.kernel) << "lane " << i;
  EXPECT_EQ(got.status, want.status) << "lane " << i;
  EXPECT_EQ(got.iterations, want.iterations) << "lane " << i;
  EXPECT_PRED2(same_bits, got.residual, want.residual) << "lane " << i;
  EXPECT_EQ(got.recovered, want.recovered) << "lane " << i;
  ASSERT_EQ(got.chain.size(), want.chain.size()) << "lane " << i;
  for (std::size_t e = 0; e < got.chain.size(); ++e) {
    EXPECT_EQ(got.chain[e].kernel, want.chain[e].kernel)
        << "lane " << i << " event " << e;
    EXPECT_EQ(got.chain[e].status, want.chain[e].status)
        << "lane " << i << " event " << e;
    EXPECT_EQ(got.chain[e].iterations, want.chain[e].iterations)
        << "lane " << i << " event " << e;
    EXPECT_PRED2(same_bits, got.chain[e].residual, want.chain[e].residual)
        << "lane " << i << " event " << e;
    EXPECT_EQ(got.chain[e].note, want.chain[e].note)
        << "lane " << i << " event " << e;
  }
}

/// What the scalar path did for one Problem: a Solution, or the exception
/// it threw.
struct ScalarOutcome {
  bool threw = false;
  bool invalid = false;  // std::invalid_argument (vs SolveError)
  Solution sol;
  std::string what;
  core::SolverDiag diag;  // SolveError::diag() when threw && !invalid
  StatusCode status = StatusCode::kOk;
};

ScalarOutcome run_scalar(const Problem& p) {
  ScalarOutcome o;
  try {
    o.sol = solve(p);
  } catch (const SolveError& e) {
    o.threw = true;
    o.what = e.what();
    o.diag = e.diag();
    o.status = e.status();
  } catch (const std::invalid_argument& e) {
    o.threw = true;
    o.invalid = true;
    o.what = e.what();
    o.status = StatusCode::kInvalidInput;
  }
  return o;
}

std::vector<ScalarOutcome> run_scalar_all(const std::vector<Problem>& ps) {
  std::vector<ScalarOutcome> out;
  out.reserve(ps.size());
  for (const Problem& p : ps) out.push_back(run_scalar(p));
  return out;
}

/// The differential oracle: lane i of `bs` must be indistinguishable from
/// the scalar outcome — values, status, diag chain, and rethrown exception.
void expect_lane_matches(const BatchSolution& bs, std::size_t i,
                         const ScalarOutcome& o) {
  if (!o.threw) {
    ASSERT_EQ(bs.status[i], StatusCode::kOk) << "lane " << i << ": batch "
        << "failed where scalar solved: " << bs.lane_error(i);
    EXPECT_SAME_BITS(bs.t_metal[i], o.sol.t_metal.value());
    EXPECT_SAME_BITS(bs.delta_t[i], o.sol.delta_t.value());
    EXPECT_SAME_BITS(bs.j_peak[i], o.sol.j_peak.value());
    EXPECT_SAME_BITS(bs.j_rms[i], o.sol.j_rms.value());
    EXPECT_SAME_BITS(bs.j_avg[i], o.sol.j_avg.value());
    EXPECT_EQ(bs.iterations[i], o.sol.iterations) << "lane " << i;
    EXPECT_EQ(bs.invalid[i], 0) << "lane " << i;
    expect_diag_eq(bs.lane_diag(i), o.sol.diag, i);

    const Solution round = bs.lane_solution(i);
    EXPECT_SAME_BITS(round.t_metal.value(), o.sol.t_metal.value());
    EXPECT_TRUE(round.converged) << "lane " << i;
    return;
  }
  ASSERT_NE(bs.status[i], StatusCode::kOk)
      << "lane " << i << ": batch solved where scalar threw: " << o.what;
  EXPECT_EQ(bs.status[i], o.status) << "lane " << i;
  if (o.invalid) {
    EXPECT_EQ(bs.invalid[i], 1) << "lane " << i;
    EXPECT_EQ(bs.lane_error(i), o.what) << "lane " << i;
    try {
      bs.throw_lane(i);
      FAIL() << "lane " << i << ": throw_lane did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), o.what) << "lane " << i;
    }
    return;
  }
  EXPECT_EQ(bs.invalid[i], 0) << "lane " << i;
  expect_diag_eq(bs.lane_diag(i), o.diag, i);
  try {
    bs.throw_lane(i);
    FAIL() << "lane " << i << ": throw_lane did not throw";
  } catch (const SolveError& e) {
    // what() embeds the diag chain rendering, so string equality here also
    // covers residual formatting and event ordering.
    EXPECT_EQ(std::string(e.what()), o.what) << "lane " << i;
    EXPECT_EQ(e.status(), o.status) << "lane " << i;
  }
}

void expect_all_match(const BatchSolution& bs,
                      const std::vector<ScalarOutcome>& scalar) {
  ASSERT_EQ(bs.size(), scalar.size());
  for (std::size_t i = 0; i < scalar.size(); ++i)
    expect_lane_matches(bs, i, scalar[i]);
}

// ---------------------------------------------------------------------------
// The headline differential: >= 2000 randomized lanes, scalar vs batch,
// bit for bit, at serial and parallel thread counts.
TEST(BatchDifferential, RandomizedLanesMatchScalarBitwise) {
  const std::size_t kLanes = 2500;
  const std::vector<Problem> ps = random_problems(0xD5A7C0DEULL, kLanes);
  const std::vector<ScalarOutcome> scalar = run_scalar_all(ps);

  // Sanity: the generator actually produced every outcome family — a
  // differential harness that only ever sees kOk proves much less.
  std::size_t ok = 0, invalid = 0, failed = 0;
  for (const ScalarOutcome& o : scalar) {
    if (!o.threw) ++ok;
    else if (o.invalid) ++invalid;
    else ++failed;
  }
  EXPECT_GE(ok, kLanes / 2);
  EXPECT_GT(invalid, 0u);
  EXPECT_GT(failed, 0u);

  const BatchProblem bp = to_batch(ps);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    parallel::set_thread_count(threads);
    const BatchSolution bs = solve_batch(bp);
    expect_all_match(bs, scalar);
  }
  parallel::set_thread_count(0);
}

// A second seed catches generator-shaped blind spots cheaply.
TEST(BatchDifferential, SecondSeedMatchesScalarBitwise) {
  const std::vector<Problem> ps = random_problems(0x5EED0002ULL, 1000);
  const std::vector<ScalarOutcome> scalar = run_scalar_all(ps);
  const BatchSolution bs = solve_batch(to_batch(ps));
  expect_all_match(bs, scalar);
}

// The recovery chain must actually have been exercised by the generator:
// some lane's diag chain has to contain an expanded-bracket retry.
TEST(BatchDifferential, GeneratorExercisesRecoveryChain) {
  const std::vector<Problem> ps = random_problems(0xD5A7C0DEULL, 2500);
  const BatchSolution bs = solve_batch(to_batch(ps));
  std::size_t retries = 0, no_bracket = 0;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (bs.status[i] == StatusCode::kNoBracket) ++no_bracket;
    const core::SolverDiag d = bs.lane_diag(i);
    for (const core::DiagEvent& e : d.chain)
      if (e.note.rfind("retry on expanded bracket", 0) == 0) ++retries;
  }
  EXPECT_GT(retries, 0u) << "no lane went through expand_bracket + retry";
  EXPECT_GT(no_bracket, 0u) << "no lane failed to bracket";
}

// ---------------------------------------------------------------------------
// Fault injection: the hooks are pure per (kernel, iteration), so an armed
// plan must fault the batch lanes exactly as it faults the scalar solves —
// same failures, same recovery chains, same total injection count.
TEST(BatchDifferential, FaultInjectedLanesMatchScalar) {
  using numeric::fault::FaultKind;
  using numeric::fault::FaultPlan;
  using numeric::fault::ScopedFault;

  const std::vector<Problem> ps = random_problems(0xFA017ULL, 300);
  const BatchProblem bp = to_batch(ps);

  const FaultPlan plans[] = {
      {FaultKind::kNanResidual, "numeric/brent", 3, 10.0},
      {FaultKind::kExhaustIterations, "numeric/brent", 5, 10.0},
      {FaultKind::kPerturbResidual, "numeric/brent", 2, -5.0},
      {FaultKind::kNanResidual, "numeric/bisect", 10, 10.0},
      {FaultKind::kExhaustIterations, "", 1, 10.0},
  };
  for (const FaultPlan& plan : plans) {
    std::vector<ScalarOutcome> scalar;
    int scalar_count = 0;
    {
      ScopedFault sf(plan);
      scalar = run_scalar_all(ps);
      scalar_count = numeric::fault::injection_count();
    }
    BatchSolution bs;
    int batch_count = 0;
    {
      ScopedFault sf(plan);
      bs = solve_batch(bp);
      batch_count = numeric::fault::injection_count();
    }
    expect_all_match(bs, scalar);
    EXPECT_EQ(batch_count, scalar_count)
        << "fault plan on '" << plan.kernel_substr
        << "' fired a different number of times under batching";
  }
}

// ---------------------------------------------------------------------------
// Property: permuting the lanes permutes the results and changes nothing
// else — no lane's bits depend on its position in the batch.
TEST(BatchProperty, LanePermutationInvariance) {
  const std::size_t n = 512;
  const std::vector<Problem> ps = random_problems(0x9E21ULL, n);
  const BatchSolution base = solve_batch(to_batch(ps));

  // Deterministic Fisher-Yates driven by the same counter-based stream.
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(perm[i], perm[rng(0x7E12ABULL, i) % (i + 1)]);

  std::vector<Problem> shuffled;
  shuffled.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shuffled.push_back(ps[perm[i]]);
  const BatchSolution got = solve_batch(to_batch(shuffled));

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = perm[i];
    EXPECT_PRED2(same_bits, got.t_metal[i], base.t_metal[j]) << i;
    EXPECT_PRED2(same_bits, got.j_peak[i], base.j_peak[j]) << i;
    EXPECT_EQ(got.status[i], base.status[j]) << i;
    EXPECT_EQ(got.iterations[i], base.iterations[j]) << i;
    EXPECT_EQ(got.lane_error(i), base.lane_error(j)) << i;
    expect_diag_eq(got.lane_diag(i), base.lane_diag(j), i);
  }
}

// Property: batch size is invisible. One batch of n, batches of 64, batches
// of 7, and n solve_one calls all produce the same bits per lane.
TEST(BatchProperty, BatchSizeIndependence) {
  const std::size_t n = 300;
  const std::vector<Problem> ps = random_problems(0xC4B0ULL, n);
  const std::vector<ScalarOutcome> scalar = run_scalar_all(ps);
  const BatchSolution whole = solve_batch(to_batch(ps));
  expect_all_match(whole, scalar);

  for (const std::size_t chunk : {std::size_t{64}, std::size_t{7}}) {
    for (std::size_t start = 0; start < n; start += chunk) {
      const std::size_t end = std::min(n, start + chunk);
      const std::vector<Problem> part(ps.begin() +
                                          static_cast<std::ptrdiff_t>(start),
                                      ps.begin() +
                                          static_cast<std::ptrdiff_t>(end));
      const BatchSolution bs = solve_batch(to_batch(part));
      for (std::size_t i = 0; i < bs.size(); ++i)
        expect_lane_matches(bs, i, scalar[start + i]);
    }
  }

  // solve_one is the 1-lane adapter with scalar throw semantics.
  for (std::size_t i = 0; i < 40; ++i) {
    const ScalarOutcome& o = scalar[i];
    if (o.threw) {
      try {
        (void)solve_one(ps[i]);
        FAIL() << "solve_one lane " << i << " did not throw";
      } catch (const SolveError& e) {
        EXPECT_EQ(std::string(e.what()), o.what) << i;
      } catch (const std::invalid_argument& e) {
        EXPECT_TRUE(o.invalid) << i;
        EXPECT_EQ(std::string(e.what()), o.what) << i;
      }
    } else {
      const Solution s = solve_one(ps[i]);
      EXPECT_PRED2(same_bits, s.t_metal.value(), o.sol.t_metal.value()) << i;
      EXPECT_PRED2(same_bits, s.j_peak.value(), o.sol.j_peak.value()) << i;
      EXPECT_EQ(s.iterations, o.sol.iterations) << i;
    }
  }
}

// Property: retired-lane isolation. Surrounding a healthy lane with lanes
// that fail in every known way must not move a single bit of its result.
TEST(BatchProperty, RetiredLaneIsolation) {
  Problem good = random_problem(0x600DULL, 0);
  good.duty_cycle = 0.1;  // comfortably well-posed
  good.j0 = MA_per_cm2(0.6);
  const Solution alone = solve_one(good);

  Problem invalid = good;
  invalid.duty_cycle = -1.0;
  Problem nan_input = good;
  nan_input.heating_coefficient =
      units::HeatingCoefficient{std::numeric_limits<double>::quiet_NaN()};
  Problem no_bracket = good;
  no_bracket.j0 = A_per_m2(1e18);

  // Poisoned lanes on both sides of every good lane.
  const std::vector<Problem> mixed = {invalid, good, no_bracket,  good,
                                      nan_input, good, invalid,   good,
                                      no_bracket};
  const BatchSolution bs = solve_batch(to_batch(mixed));
  for (const std::size_t i : {1u, 3u, 5u, 7u}) {
    ASSERT_EQ(bs.status[i], StatusCode::kOk) << "lane " << i;
    EXPECT_PRED2(same_bits, bs.t_metal[i], alone.t_metal.value()) << i;
    EXPECT_PRED2(same_bits, bs.delta_t[i], alone.delta_t.value()) << i;
    EXPECT_PRED2(same_bits, bs.j_peak[i], alone.j_peak.value()) << i;
    EXPECT_PRED2(same_bits, bs.j_rms[i], alone.j_rms.value()) << i;
    EXPECT_PRED2(same_bits, bs.j_avg[i], alone.j_avg.value()) << i;
    EXPECT_EQ(bs.iterations[i], alone.iterations) << i;
  }
  EXPECT_EQ(bs.first_failure(), 0u);
  for (const std::size_t i : {0u, 2u, 4u, 6u, 8u})
    EXPECT_NE(bs.status[i], StatusCode::kOk) << "lane " << i;
}

// Property: the static block decomposition makes thread count invisible —
// every lane's bits are identical at DSMT_THREADS = 1, 2, 3, 5, 8.
TEST(BatchProperty, ThreadCountInvariance) {
  const std::vector<Problem> ps = random_problems(0x7EADULL, 700);
  const BatchProblem bp = to_batch(ps);

  parallel::set_thread_count(1);
  const BatchSolution base = solve_batch(bp);
  for (const std::size_t threads : {2u, 3u, 5u, 8u}) {
    parallel::set_thread_count(threads);
    const BatchSolution got = solve_batch(bp);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_PRED2(same_bits, got.t_metal[i], base.t_metal[i])
          << threads << " threads, lane " << i;
      EXPECT_PRED2(same_bits, got.j_peak[i], base.j_peak[i])
          << threads << " threads, lane " << i;
      EXPECT_EQ(got.status[i], base.status[i])
          << threads << " threads, lane " << i;
      EXPECT_EQ(got.iterations[i], base.iterations[i])
          << threads << " threads, lane " << i;
      EXPECT_EQ(got.lane_error(i), base.lane_error(i))
          << threads << " threads, lane " << i;
      expect_diag_eq(got.lane_diag(i), base.lane_diag(i), i);
    }
  }
  parallel::set_thread_count(0);
}

// BatchProblem::problem round-trips the physics fields, so a lane can be
// re-solved scalar for error reporting.
TEST(BatchProperty, ProblemRoundTrip) {
  const std::vector<Problem> ps = random_problems(0x2077ULL, 64);
  const BatchProblem bp = to_batch(ps);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const Problem r = bp.problem(i);
    EXPECT_PRED2(same_bits, r.duty_cycle, ps[i].duty_cycle) << i;
    EXPECT_PRED2(same_bits, r.j0.value(), ps[i].j0.value()) << i;
    EXPECT_PRED2(same_bits, r.t_ref.value(), ps[i].t_ref.value()) << i;
    EXPECT_PRED2(same_bits, r.heating_coefficient.value(),
                 ps[i].heating_coefficient.value())
        << i;
    EXPECT_PRED2(same_bits, r.metal.rho_ref.value(),
                 ps[i].metal.rho_ref.value())
        << i;
    EXPECT_PRED2(same_bits, r.metal.tcr, ps[i].metal.tcr) << i;
  }
}

TEST(BatchProperty, EmptyBatchIsEmpty) {
  const BatchSolution bs = solve_batch(BatchProblem{});
  EXPECT_EQ(bs.size(), 0u);
  EXPECT_EQ(bs.first_failure(), BatchSolution::npos);
  bs.throw_first_failure();  // no-op
}

}  // namespace
}  // namespace dsmt::selfconsistent
