// Long-job resilience contract: monotonic deadlines and cooperative
// cancellation must compose with the determinism and fault-injection layers
// — a run killed mid-sweep ends with the exact interruption status and
// leaves nothing behind, so a rerun is bitwise identical to an uninterrupted
// run at every thread count; an expired deadline surfaces as
// kDeadlineExceeded in the SolverDiag chain within a bounded wall time; and
// an inert RunContext changes no output bit.
//
// This suite mutates the global thread count and arms fault plans, so it
// lives in its own executable (label: resilience).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/atomic_file.h"
#include "core/run_context.h"
#include "core/signoff.h"
#include "core/status.h"
#include "core/variation.h"
#include "materials/dielectric.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
#include "selfconsistent/sweep.h"
#include "tech/ntrs.h"
#include "thermal/impedance.h"

namespace dsmt {
namespace {

using core::RunContext;
using core::ScopedRunContext;
using core::StatusCode;
using numeric::fault::FaultKind;
using numeric::fault::ScopedFault;

void expect_bits_equal(double a, double b, const std::string& what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << what << ": " << a << " != " << b;
}

selfconsistent::Problem fig2_problem() {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.metal.em.activation_energy_ev = 0.7;
  p.j0 = MA_per_cm2(0.6);
  const auto weff =
      thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
  const auto rth =
      thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff);
  p.heating_coefficient =
      selfconsistent::heating_coefficient(um(3.0), um(0.5), rth);
  return p;
}

selfconsistent::TableSpec table_spec() {
  selfconsistent::TableSpec spec;
  spec.technology = tech::make_ntrs_100nm_cu();
  spec.gap_fills = materials::paper_dielectrics();
  spec.levels = {5, 6, 7, 8};
  spec.duty_cycles = {0.1, 1.0};
  spec.j0 = MA_per_cm2(0.6);
  return spec;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void compare_tables(const std::vector<selfconsistent::TableCell>& ref,
                    const std::vector<selfconsistent::TableCell>& got,
                    const std::string& tag) {
  ASSERT_EQ(ref.size(), got.size()) << tag;
  for (std::size_t c = 0; c < ref.size(); ++c) {
    EXPECT_EQ(ref[c].level, got[c].level) << tag;
    EXPECT_EQ(ref[c].dielectric, got[c].dielectric) << tag;
    const std::string cell = tag + " cell " + std::to_string(c);
    expect_bits_equal(ref[c].sol.t_metal, got[c].sol.t_metal, cell);
    expect_bits_equal(ref[c].sol.delta_t, got[c].sol.delta_t, cell);
    expect_bits_equal(ref[c].sol.j_peak, got[c].sol.j_peak, cell);
    expect_bits_equal(ref[c].sol.j_rms, got[c].sol.j_rms, cell);
    expect_bits_equal(ref[c].sol.j_avg, got[c].sol.j_avg, cell);
  }
}

// ---------------------------------------------------------------------------
// Atomic file writer.

TEST(AtomicFile, CommitPublishesWholeContent) {
  const std::string path = temp_path("atomic_commit.txt");
  std::remove(path.c_str());
  core::AtomicFile file(path);
  file.stream() << "line one\nline two\n";
  EXPECT_FALSE(file.committed());
  file.commit();
  EXPECT_TRUE(file.committed());
  EXPECT_EQ(read_file(path), "line one\nline two\n");
  std::remove(path.c_str());
}

TEST(AtomicFile, AbandonedWriterLeavesTargetUntouched) {
  const std::string path = temp_path("atomic_abandon.txt");
  core::atomic_write_file(path, "original");
  {
    core::AtomicFile file(path);
    file.stream() << "half-written garbage";
    // No commit: simulates an exception unwinding an emitter mid-write.
  }
  EXPECT_EQ(read_file(path), "original");
  std::remove(path.c_str());
}

TEST(AtomicFile, DoubleCommitThrows) {
  const std::string path = temp_path("atomic_double.txt");
  core::AtomicFile file(path);
  file.stream() << "x";
  file.commit();
  EXPECT_THROW(file.commit(), std::logic_error);
  std::remove(path.c_str());
}

TEST(AtomicFile, OverwriteReplacesAtomically) {
  const std::string path = temp_path("atomic_replace.txt");
  core::atomic_write_file(path, "first");
  core::atomic_write_file(path, "second");
  EXPECT_EQ(read_file(path), "second");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RunContext primitives.

TEST(RunContext, ExpiredDeadlineInterruptsSolveWithDiagChain) {
  RunContext ctx = RunContext::with_deadline_after(std::chrono::nanoseconds(0));
  ScopedRunContext scope(ctx);
  try {
    (void)selfconsistent::generate_design_rule_table(table_spec());
    FAIL() << "expected SolveError from the expired deadline";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), StatusCode::kDeadlineExceeded);
    bool saw = false;
    for (const auto& ev : e.diag().chain)
      saw = saw || ev.status == StatusCode::kDeadlineExceeded;
    EXPECT_TRUE(saw) << e.diag().to_string();
  }
}

TEST(RunContext, PreCancelledTokenInterruptsSolve) {
  RunContext ctx;
  ctx.cancel().request_cancel();
  EXPECT_TRUE(ctx.cancel().cancel_requested());
  ScopedRunContext scope(ctx);
  try {
    (void)selfconsistent::sweep_duty_cycle(fig2_problem(), {0.1, 0.5, 1.0});
    FAIL() << "expected SolveError from the cancelled run";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), StatusCode::kCancelled);
  }
}

TEST(RunContext, DeadlineBoundedRunReturnsWithinBudget) {
  parallel::set_thread_count(8);
  const auto start = std::chrono::steady_clock::now();
  RunContext ctx =
      RunContext::with_deadline_after(std::chrono::milliseconds(10));
  ScopedRunContext scope(ctx);
  bool interrupted = false;
  try {
    // Roughly a second of work uninterrupted — far beyond the 10 ms budget
    // on any machine, so the deadline must fire.
    const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 500000);
    (void)selfconsistent::sweep_duty_cycle(fig2_problem(), duties);
  } catch (const SolveError& e) {
    interrupted = true;
    EXPECT_EQ(e.status(), StatusCode::kDeadlineExceeded);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(interrupted);
  // Generous bound: the poll spacing is one root-finder iteration, so the
  // overshoot past the 20 ms budget must be far below seconds.
  EXPECT_LT(elapsed, 10.0);
  EXPECT_LT(ctx.seconds_remaining(), 0.0);
  parallel::set_thread_count(0);
}

TEST(RunContext, HeartbeatAdvancesWhileKernelsIterate) {
  RunContext ctx;
  ScopedRunContext scope(ctx);
  EXPECT_EQ(ctx.beats(), 0u);
  (void)selfconsistent::solve(fig2_problem());
  EXPECT_GT(ctx.beats(), 0u);
}

TEST(RunContext, CancelAfterChecksTripsExactlyOnce) {
  core::CancelToken token;
  token.cancel_after_checks(2);
  EXPECT_FALSE(token.observe());  // fuse 2 -> 1
  EXPECT_FALSE(token.observe());  // fuse 1 -> 0
  EXPECT_TRUE(token.observe());   // fuse 0 trips
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_TRUE(token.observe());  // stays tripped
}

TEST(RunContext, InertContextChangesNoOutputBit) {
  parallel::set_thread_count(2);
  const auto bare = selfconsistent::generate_design_rule_table(table_spec());
  RunContext ctx;  // no deadline, no cancel
  ScopedRunContext scope(ctx);
  const auto guarded = selfconsistent::generate_design_rule_table(table_spec());
  compare_tables(bare, guarded, "inert context");
  parallel::set_thread_count(0);
}

// ---------------------------------------------------------------------------
// Kill-then-rerun chaos: cancel at randomized poll counts and require the
// exact interruption status, then rerun with no context and require bitwise
// equality with the uninterrupted reference at 1, 2, and 8 threads. An
// interrupted sweep leaves nothing behind, so the rerun is a fresh run of the
// same deterministic grid. Composes with the fault injector below. (The
// suite keeps the names these tests had when sweeps resumed from a
// checkpoint file; DESIGN.md §17 records why that file is gone.)

/// Runs `job` under a context whose token trips after `fuse` kernel polls,
/// and expects the run to end in SolveError with exactly kCancelled.
template <typename Job>
void expect_cancelled_after(std::uint64_t fuse, const Job& job,
                            const std::string& tag) {
  RunContext ctx;
  ctx.cancel().cancel_after_checks(fuse);
  ScopedRunContext scope(ctx);
  try {
    (void)job();
    ADD_FAILURE() << tag << ": expected SolveError from the cancelled run";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), StatusCode::kCancelled) << tag;
  }
}

TEST(CheckpointResume, TableSweepKillThenResumeBitIdentical) {
  parallel::set_thread_count(1);
  // Probe run: collect the reference AND the total poll count, so the chaos
  // fuses below are guaranteed to trip mid-run on any machine.
  RunContext probe;
  std::vector<selfconsistent::TableCell> reference;
  {
    ScopedRunContext scope(probe);
    reference = selfconsistent::generate_design_rule_table(table_spec());
  }
  const std::uint64_t total_polls = probe.beats();
  ASSERT_GT(total_polls, 10u);

  const auto run_table = [] {
    return selfconsistent::generate_design_rule_table(table_spec());
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const std::uint64_t fuse :
         {std::uint64_t{3}, total_polls / 3, (2 * total_polls) / 3}) {
      const std::string tag = "threads=" + std::to_string(threads) +
                              " fuse=" + std::to_string(fuse);
      parallel::set_thread_count(threads);
      expect_cancelled_after(fuse, run_table, tag);
      compare_tables(reference, run_table(), tag);
    }
  }
  parallel::set_thread_count(0);
}

TEST(CheckpointResume, MonteCarloKillThenResumeBitIdentical) {
  const auto run_mc = [] {
    core::VariationSpec spec;
    return core::monte_carlo_jpeak(tech::make_ntrs_100nm_cu(), 8,
                                   materials::make_hsq(), 2.45, 0.1,
                                   MA_per_cm2(1.8), spec, 64);
  };
  parallel::set_thread_count(1);
  RunContext probe;
  std::optional<core::VariationResult> reference_holder;
  {
    ScopedRunContext scope(probe);
    reference_holder = run_mc();
  }
  const auto& reference = *reference_holder;
  const std::uint64_t total_polls = probe.beats();
  ASSERT_GT(total_polls, 10u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::uint64_t fuse : {total_polls / 5, total_polls / 2}) {
      const std::string tag = "threads=" + std::to_string(threads) +
                              " fuse=" + std::to_string(fuse);
      parallel::set_thread_count(threads);
      expect_cancelled_after(fuse, run_mc, tag);
      const auto rerun = run_mc();
      ASSERT_EQ(reference.samples.size(), rerun.samples.size()) << tag;
      for (std::size_t s = 0; s < reference.samples.size(); ++s)
        expect_bits_equal(reference.samples[s], rerun.samples[s],
                          tag + " sample " + std::to_string(s));
      expect_bits_equal(reference.nominal, rerun.nominal, tag + " nominal");
      expect_bits_equal(reference.mean, rerun.mean, tag + " mean");
      expect_bits_equal(reference.stddev, rerun.stddev, tag + " stddev");
      expect_bits_equal(reference.p01, rerun.p01, tag + " p01");
      expect_bits_equal(reference.p99, rerun.p99, tag + " p99");
    }
  }
  parallel::set_thread_count(0);
}

// The j0 family nests one duty-cycle sweep per row inside parallel_map; a
// cancellation anywhere in the grid surfaces once, on the caller.
TEST(CheckpointResume, NestedJ0SweepClaimsAtOuterGranularity) {
  const std::vector<double> j0s = {MA_per_cm2(0.6), MA_per_cm2(1.2),
                                   MA_per_cm2(1.8)};
  const auto duties = selfconsistent::log_spaced(1e-3, 1.0, 7);
  const auto run_j0 = [&] {
    return selfconsistent::sweep_j0(fig2_problem(), j0s, duties);
  };
  parallel::set_thread_count(1);
  RunContext probe;
  std::vector<std::vector<selfconsistent::DutyCyclePoint>> reference;
  {
    ScopedRunContext scope(probe);
    reference = run_j0();
  }
  ASSERT_GT(probe.beats(), 10u);

  parallel::set_thread_count(2);
  expect_cancelled_after(probe.beats() / 2, run_j0, "j0 sweep");
  const auto rerun = run_j0();
  ASSERT_EQ(reference.size(), rerun.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i].size(), rerun[i].size());
    for (std::size_t k = 0; k < reference[i].size(); ++k) {
      const std::string tag =
          "point [" + std::to_string(i) + "][" + std::to_string(k) + "]";
      expect_bits_equal(reference[i][k].sc.j_peak, rerun[i][k].sc.j_peak,
                        tag + " j_peak");
      expect_bits_equal(reference[i][k].jpeak_thermal_only,
                        rerun[i][k].jpeak_thermal_only, tag + " jth");
    }
  }
  parallel::set_thread_count(0);
}

TEST(CheckpointResume, DeadlineKillThenResumeBitIdentical) {
  parallel::set_thread_count(1);
  const auto reference =
      selfconsistent::generate_design_rule_table(table_spec());
  parallel::set_thread_count(2);
  {
    RunContext ctx =
        RunContext::with_deadline_after(std::chrono::milliseconds(2));
    ScopedRunContext scope(ctx);
    try {
      // A fast machine may legitimately finish inside the budget; then the
      // bounded run itself must equal the reference.
      compare_tables(reference,
                     selfconsistent::generate_design_rule_table(table_spec()),
                     "deadline run");
    } catch (const SolveError& e) {
      EXPECT_EQ(e.status(), StatusCode::kDeadlineExceeded);
    }
  }
  compare_tables(reference,
                 selfconsistent::generate_design_rule_table(table_spec()),
                 "deadline rerun");
  parallel::set_thread_count(0);
}

// Chaos composition: the fault injector perturbs every Brent residual
// (deterministically) while cancellation kills the run mid-flight; the rerun
// must still match the uninterrupted run under the same fault plan.
TEST(CheckpointResume, ComposesWithFaultInjector) {
  const numeric::fault::FaultPlan plan{FaultKind::kPerturbResidual,
                                       "numeric/brent", 3, 10.0, ""};
  parallel::set_thread_count(1);
  RunContext probe;
  std::vector<selfconsistent::TableCell> reference;
  {
    ScopedRunContext scope(probe);
    ScopedFault fault(plan);
    reference = selfconsistent::generate_design_rule_table(table_spec());
  }
  ASSERT_GT(probe.beats(), 10u);
  const auto run_table = [] {
    return selfconsistent::generate_design_rule_table(table_spec());
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string tag = "chaos threads=" + std::to_string(threads);
    parallel::set_thread_count(threads);
    {
      ScopedFault fault(plan);
      expect_cancelled_after(probe.beats() / 3, run_table, tag);
    }
    ScopedFault fault(plan);
    compare_tables(reference, run_table(), tag);
  }
  parallel::set_thread_count(0);
}

// ---------------------------------------------------------------------------
// JSON sign-off round-trip.

TEST(SignoffJson, RunKeyCarriesResilienceState) {
  core::SignoffReport report;
  report.technology = "unit-test";
  {
    // No ambient context: no run key at all.
    const std::string plain = report.to_json(0);
    EXPECT_EQ(plain.find("\"run\""), std::string::npos);
  }
  RunContext ctx =
      RunContext::with_deadline_after(std::chrono::seconds(3600));
  ScopedRunContext scope(ctx);
  const std::string json = report.to_json(0);
  EXPECT_NE(json.find("\"run\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_armed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_remaining_s\""), std::string::npos);
  EXPECT_NE(json.find("\"cancelled\": false"), std::string::npos);
  EXPECT_NE(json.find("\"beats\""), std::string::npos);
  EXPECT_EQ(json.find("\"checkpoints\""), std::string::npos);
}

}  // namespace
}  // namespace dsmt
