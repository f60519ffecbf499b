// Generated property test of selfconsistent::solve, the one Eq.-13 solver.
//
// A counter-based splitmix64 generator (reproducible run to run) draws
// thousands of Problems spanning the four stock metals, duty cycles across
// three decades, j0 across the design space and beyond it, bracket-edge
// cases that push the root find through expand_bracket retries, and every
// invalid-input family. Every lane must end in exactly one typed outcome —
// a converged Solution, std::invalid_argument from validate(), or a
// SolveError carrying a non-OK status and its chain — and parallel_map of
// solve over the lanes (the batch) must give the same bits, iterations,
// chains and what() text as a plain loop of solve (the scalar reference)
// and as itself at every thread count, also under armed fault plans.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/status.h"
#include "materials/metal.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
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

constexpr std::uint64_t kFirstSeed = 0xD5A7C0DEULL;
constexpr std::uint64_t kSecondSeed = 0x5EED0002ULL;
constexpr std::size_t kLanes = 2500;

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
/// solver can produce:
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
  p.heating_coefficient = units::HeatingCoefficient{
      std::pow(10.0, -14.0 + 4.0 * u01(seed, base + 4))};

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
  for (std::size_t i = 0; i < n; ++i) out.push_back(random_problem(seed, i));
  return out;
}

// ---------------------------------------------------------------------------
/// How one solve ended: its Solution, or the exception it threw.
enum class Ending { kSolved, kInvalid, kFailed };

struct Outcome {
  Ending ending = Ending::kSolved;
  Solution sol;
  std::string what;       // exception text when the solve threw
  core::SolverDiag diag;  // SolveError::diag() for kFailed
};

Outcome run(const Problem& p) {
  Outcome o;
  try {
    o.sol = solve(p);
  } catch (const SolveError& e) {
    o.ending = Ending::kFailed;
    o.what = e.what();
    o.diag = e.diag();
  } catch (const std::invalid_argument& e) {
    o.ending = Ending::kInvalid;
    o.what = e.what();
  }
  return o;
}

/// A plain serial loop of solve over `ps`: the scalar reference.
std::vector<Outcome> run_scalar(const std::vector<Problem>& ps) {
  std::vector<Outcome> out;
  out.reserve(ps.size());
  for (const Problem& p : ps) out.push_back(run(p));
  return out;
}

/// parallel_map of solve over `ps` at `threads` threads.
std::vector<Outcome> run_all(const std::vector<Problem>& ps,
                             std::size_t threads) {
  parallel::set_thread_count(threads);
  std::vector<Outcome> out = parallel::parallel_map<Outcome>(
      ps.size(), [&](std::size_t i) { return run(ps[i]); });
  parallel::set_thread_count(0);
  return out;
}

// Bitwise double comparison: NaN payloads and signed zeros count.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

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

/// Two runs of one lane are indistinguishable: same ending, same bits, same
/// iterations, same chain, same exception text.
void expect_same_outcome(const Outcome& got, const Outcome& want,
                         std::size_t i) {
  ASSERT_EQ(got.ending, want.ending) << "lane " << i;
  EXPECT_EQ(got.what, want.what) << "lane " << i;
  EXPECT_PRED2(same_bits, got.sol.t_metal.value(), want.sol.t_metal.value())
      << "lane " << i;
  EXPECT_PRED2(same_bits, got.sol.delta_t.value(), want.sol.delta_t.value())
      << "lane " << i;
  EXPECT_PRED2(same_bits, got.sol.j_peak.value(), want.sol.j_peak.value())
      << "lane " << i;
  EXPECT_PRED2(same_bits, got.sol.j_rms.value(), want.sol.j_rms.value())
      << "lane " << i;
  EXPECT_PRED2(same_bits, got.sol.j_avg.value(), want.sol.j_avg.value())
      << "lane " << i;
  EXPECT_EQ(got.sol.converged, want.sol.converged) << "lane " << i;
  EXPECT_EQ(got.sol.iterations, want.sol.iterations) << "lane " << i;
  expect_diag_eq(got.sol.diag, want.sol.diag, i);
  expect_diag_eq(got.diag, want.diag, i);
}

void expect_same_outcomes(const std::vector<Outcome>& got,
                          const std::vector<Outcome>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_same_outcome(got[i], want[i], i);
}

bool is_validate_message(const std::string& what) {
  return what == "Problem: duty cycle outside (0,1]" ||
         what == "Problem: j0 <= 0 or non-finite" ||
         what == "Problem: t_ref <= 0 or non-finite" ||
         what == "Problem: heating coefficient <= 0 or non-finite";
}

/// Every lane ended in exactly one typed outcome, and the generator reached
/// all three of them.
void expect_typed_outcomes(const std::vector<Outcome>& outcomes) {
  std::size_t solved = 0, invalid = 0, failed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    switch (o.ending) {
      case Ending::kSolved: {
        ++solved;
        const Solution& s = o.sol;
        EXPECT_TRUE(s.converged) << "lane " << i;
        EXPECT_TRUE(std::isfinite(s.t_metal.value()) &&
                    std::isfinite(s.delta_t.value()) &&
                    std::isfinite(s.j_peak.value()) &&
                    std::isfinite(s.j_rms.value()) &&
                    std::isfinite(s.j_avg.value()))
            << "lane " << i;
        EXPECT_EQ(s.diag.kernel, "eq13/solve") << "lane " << i;
        EXPECT_FALSE(s.diag.chain.empty()) << "lane " << i;
        break;
      }
      case Ending::kInvalid:
        ++invalid;
        EXPECT_TRUE(is_validate_message(o.what))
            << "lane " << i << ": " << o.what;
        break;
      case Ending::kFailed:
        ++failed;
        EXPECT_NE(o.diag.status, StatusCode::kOk) << "lane " << i;
        EXPECT_FALSE(o.diag.chain.empty()) << "lane " << i;
        break;
    }
  }
  EXPECT_GE(solved, outcomes.size() / 2);
  EXPECT_GT(invalid, 0u);
  EXPECT_GT(failed, 0u);
}

// ---------------------------------------------------------------------------
// The headline differential: 2,500 randomized lanes, each ending in one typed
// outcome, and the batch bit for bit equal to the scalar loop at serial and
// parallel thread counts.
TEST(BatchDifferential, RandomizedLanesMatchScalarBitwise) {
  const std::vector<Problem> ps = random_problems(kFirstSeed, kLanes);
  const std::vector<Outcome> scalar = run_scalar(ps);
  expect_typed_outcomes(scalar);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_same_outcomes(run_all(ps, threads), scalar);
  }
}

// A second seed catches generator-shaped blind spots cheaply.
TEST(SolveProperty, SecondSeedLanesEndInOneTypedOutcome) {
  const std::vector<Problem> ps = random_problems(kSecondSeed, kLanes);
  const std::vector<Outcome> serial = run_all(ps, 1);
  expect_typed_outcomes(serial);
  expect_same_outcomes(run_all(ps, 8), serial);
}

// The static block decomposition makes thread count invisible: every lane's
// outcome is identical at 1, 2, 3, 5 and 8 threads.
TEST(BatchProperty, ThreadCountInvariance) {
  const std::vector<Problem> ps = random_problems(0x7EADULL, 700);
  const std::vector<Outcome> base = run_all(ps, 1);
  for (const std::size_t threads : {2u, 3u, 5u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_same_outcomes(run_all(ps, threads), base);
  }
}

// The recovery chain must actually have been exercised by the generator:
// some lane's chain has to contain an expanded-bracket retry, and some lane
// has to fail to bracket at all.
TEST(SolveProperty, GeneratorExercisesRecoveryChain) {
  const std::vector<Outcome> outcomes =
      run_all(random_problems(kFirstSeed, kLanes), 1);
  std::size_t retries = 0, no_bracket = 0;
  for (const Outcome& o : outcomes) {
    if (o.ending == Ending::kFailed && o.diag.status == StatusCode::kNoBracket)
      ++no_bracket;
    const core::SolverDiag& d =
        o.ending == Ending::kFailed ? o.diag : o.sol.diag;
    for (const core::DiagEvent& e : d.chain)
      if (e.note.rfind("retry on expanded bracket", 0) == 0) ++retries;
  }
  EXPECT_GT(retries, 0u) << "no lane went through expand_bracket + retry";
  EXPECT_GT(no_bracket, 0u) << "no lane failed to bracket";
}

// The fault hooks are pure per (kernel, iteration), so an armed plan faults
// every lane the same way at any thread count: same outcomes, same chains,
// same total injection count.
TEST(SolveProperty, FaultInjectedLanesMatchAtOneAndEightThreads) {
  using numeric::fault::FaultKind;
  using numeric::fault::FaultPlan;
  using numeric::fault::ScopedFault;

  const FaultPlan plans[] = {
      {FaultKind::kNanResidual, "numeric/brent", 3, 10.0, ""},
      {FaultKind::kExhaustIterations, "numeric/brent", 5, 10.0, ""},
      {FaultKind::kPerturbResidual, "numeric/brent", 2, -5.0, ""},
      {FaultKind::kNanResidual, "numeric/bisect", 10, 10.0, ""},
      {FaultKind::kExhaustIterations, "", 1, 10.0, ""},
  };
  for (const std::uint64_t seed : {kFirstSeed, kSecondSeed}) {
    const std::vector<Problem> ps = random_problems(seed, kLanes);
    for (const FaultPlan& plan : plans) {
      std::vector<Outcome> serial, threaded;
      int serial_count = 0, threaded_count = 0;
      {
        ScopedFault sf(plan);
        serial = run_all(ps, 1);
        serial_count = numeric::fault::injection_count();
      }
      {
        ScopedFault sf(plan);
        threaded = run_all(ps, 8);
        threaded_count = numeric::fault::injection_count();
      }
      SCOPED_TRACE("fault plan on '" + plan.kernel_substr + "'");
      EXPECT_EQ(threaded_count, serial_count);
      expect_same_outcomes(threaded, serial);
    }
  }
}

}  // namespace
}  // namespace dsmt::selfconsistent
