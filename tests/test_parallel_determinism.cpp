// Determinism contract of the parallel layer: every fan-out adopted on top
// of src/parallel/ must produce bit-identical results for any thread count,
// and a solver failure inside a worker must surface on the caller with its
// SolverDiag chain intact — parallelization changes wall-clock, nothing else.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/status.h"
#include "core/variation.h"
#include "numeric/constants.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
#include "selfconsistent/sweep.h"
#include "tech/ntrs.h"
#include "thermal/fd2d.h"
#include "thermal/impedance.h"

namespace dsmt {
namespace {

using numeric::fault::FaultKind;
using numeric::fault::ScopedFault;

// Exact binary equality — EXPECT_DOUBLE_EQ tolerates 4 ulps, which would
// hide exactly the class of drift this suite exists to forbid.
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

/// Runs `compute` at each thread count and compares every result against
/// the 1-thread reference bitwise via `compare(reference, candidate)`.
template <typename Compute, typename Compare>
void for_thread_counts(Compute&& compute, Compare&& compare) {
  parallel::set_thread_count(1);
  const auto reference = compute();
  for (std::size_t n : {std::size_t{2}, std::size_t{8}}) {
    parallel::set_thread_count(n);
    compare(reference, compute(), "threads=" + std::to_string(n));
  }
  parallel::set_thread_count(0);  // restore the DSMT_THREADS/hardware default
}

TEST(ParallelDeterminism, SweepDutyCycleBitIdentical) {
  const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 33);
  for_thread_counts(
      [&] { return selfconsistent::sweep_duty_cycle(fig2_problem(), duties); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.size(), got.size()) << tag;
        for (std::size_t k = 0; k < ref.size(); ++k) {
          expect_bits_equal(ref[k].sc.t_metal, got[k].sc.t_metal,
                            tag + " t_metal[" + std::to_string(k) + "]");
          expect_bits_equal(ref[k].sc.j_peak, got[k].sc.j_peak,
                            tag + " j_peak[" + std::to_string(k) + "]");
          expect_bits_equal(ref[k].jpeak_thermal_only,
                            got[k].jpeak_thermal_only,
                            tag + " jth[" + std::to_string(k) + "]");
        }
      });
}

TEST(ParallelDeterminism, DesignRuleTableBitIdentical) {
  for_thread_counts(
      [&] { return selfconsistent::generate_design_rule_table(table_spec()); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.size(), got.size()) << tag;
        for (std::size_t c = 0; c < ref.size(); ++c) {
          // Identical cell ordering is part of the contract: downstream
          // table printers index by position.
          EXPECT_EQ(ref[c].level, got[c].level) << tag;
          EXPECT_EQ(ref[c].dielectric, got[c].dielectric) << tag;
          expect_bits_equal(ref[c].sol.j_peak, got[c].sol.j_peak,
                            tag + " cell " + std::to_string(c));
          expect_bits_equal(ref[c].sol.t_metal, got[c].sol.t_metal,
                            tag + " cell " + std::to_string(c));
        }
      });
}

TEST(ParallelDeterminism, SweepJ0BitIdentical) {
  const std::vector<double> j0s = {MA_per_cm2(0.6), MA_per_cm2(1.2),
                                   MA_per_cm2(1.8), MA_per_cm2(2.4)};
  const auto duties = selfconsistent::log_spaced(1e-3, 1.0, 9);
  for_thread_counts(
      [&] { return selfconsistent::sweep_j0(fig2_problem(), j0s, duties); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.size(), got.size()) << tag;
        for (std::size_t i = 0; i < ref.size(); ++i)
          for (std::size_t k = 0; k < ref[i].size(); ++k)
            expect_bits_equal(ref[i][k].sc.j_peak, got[i][k].sc.j_peak,
                              tag + " [" + std::to_string(i) + "][" +
                                  std::to_string(k) + "]");
      });
}

TEST(ParallelDeterminism, MonteCarloBitIdentical) {
  core::VariationSpec spec;
  for_thread_counts(
      [&] {
        return core::monte_carlo_jpeak(tech::make_ntrs_100nm_cu(), 8,
                                       materials::make_hsq(), 2.45, 0.1,
                                       MA_per_cm2(1.8), spec, 64);
      },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.samples.size(), got.samples.size()) << tag;
        for (std::size_t s = 0; s < ref.samples.size(); ++s)
          expect_bits_equal(ref.samples[s], got.samples[s],
                            tag + " sample " + std::to_string(s));
        // The ordered reduction makes the summary bit-stable too, not just
        // statistically equal.
        expect_bits_equal(ref.mean, got.mean, tag + " mean");
        expect_bits_equal(ref.stddev, got.stddev, tag + " stddev");
        expect_bits_equal(ref.p01, got.p01, tag + " p01");
        expect_bits_equal(ref.p99, got.p99, tag + " p99");
      });
}

TEST(ParallelDeterminism, CrossSectionCouplingBitIdentical) {
  auto build = [] {
    thermal::CrossSection2D xs(12e-6, 8e-6, 1.4);
    xs.add_band(2e-6, 2.5e-6, 0.4);
    for (int w = 0; w < 5; ++w)
      xs.add_wire({1e-6 + 2e-6 * w, 1.8e-6 + 2e-6 * w, 2.1e-6, 2.4e-6}, 395.0);
    return xs;
  };
  // 1 W/m in each wire in turn: column j holds every wire's rise, the
  // coupling Theta(i, j).
  for_thread_counts(
      [&] {
        const auto xs = build();
        std::vector<std::vector<double>> columns;
        for (std::size_t j = 0; j < 5; ++j) {
          std::vector<double> p(5, 0.0);
          p[j] = 1.0;
          columns.push_back(xs.solve(p).wire_avg_rise);
        }
        return columns;
      },
      [](const auto& ref, const auto& got, const std::string& tag) {
        for (std::size_t i = 0; i < 5; ++i)
          for (std::size_t j = 0; j < 5; ++j)
            expect_bits_equal(ref[j][i], got[j][i],
                              tag + " theta(" + std::to_string(i) + "," +
                                  std::to_string(j) + ")");
      });
}

TEST(ParallelDeterminism, EngineCheckLayersBitIdentical) {
  const core::DesignRuleEngine engine(tech::make_ntrs_100nm_cu(),
                                      MA_per_cm2(1.8));
  for_thread_counts(
      [&] { return engine.check_layers({5, 6, 7, 8}, 2.0,
                                       materials::make_hsq()); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.size(), got.size()) << tag;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(ref[i].pass, got[i].pass) << tag;
          expect_bits_equal(ref[i].jpeak_margin, got[i].jpeak_margin,
                            tag + " margin " + std::to_string(i));
        }
      });
}

// A fault armed inside one sweep must surface from the worker thread as a
// SolveError whose diag chain still tells the whole story — the parallel
// layer carries the exception object across the join, it does not flatten
// it into a generic error.
TEST(ParallelDeterminism, FaultInSweepCellSurfacesAcrossThreads) {
  parallel::set_thread_count(8);
  // "numeric/b" poisons Brent AND its bisection fallback — the recovery
  // chain exhausts, so the failure must escape the worker as a SolveError.
  ScopedFault fault({FaultKind::kNanResidual, "numeric/b", 1, 0.0, ""});
  try {
    (void)selfconsistent::generate_design_rule_table(table_spec());
    FAIL() << "expected SolveError from the poisoned sweep";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), core::StatusCode::kNonFinite);
    ASSERT_FALSE(e.diag().chain.empty());
    // The chain records the failed Brent attempt (and its bisection
    // fallback), proving the diagnostics crossed the thread boundary.
    bool saw_brent = false;
    for (const auto& ev : e.diag().chain)
      saw_brent |= ev.kernel.find("numeric/") != std::string::npos;
    EXPECT_TRUE(saw_brent) << e.diag().to_string();
  }
  parallel::set_thread_count(0);
}

// The propagated failure is the one a serial loop would have hit first
// (lowest flattened index), independent of thread scheduling.
TEST(ParallelDeterminism, FirstFailureIsDeterministic) {
  std::string serial_what, parallel_what;
  {
    parallel::set_thread_count(1);
    ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
    try {
      (void)selfconsistent::generate_design_rule_table(table_spec());
    } catch (const SolveError& e) {
      serial_what = e.what();
    }
  }
  for (int repeat = 0; repeat < 3; ++repeat) {
    parallel::set_thread_count(8);
    ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
    try {
      (void)selfconsistent::generate_design_rule_table(table_spec());
      FAIL() << "expected SolveError";
    } catch (const SolveError& e) {
      parallel_what = e.what();
    }
    EXPECT_EQ(serial_what, parallel_what) << "repeat " << repeat;
  }
  parallel::set_thread_count(0);
  EXPECT_FALSE(serial_what.empty());
}

TEST(ParallelDeterminism, ThreadCountEnvAndOverride) {
  parallel::set_thread_count(3);
  EXPECT_EQ(parallel::thread_count(), 3u);
  ::setenv("DSMT_THREADS", "5", 1);
  // Explicit override wins over the environment...
  EXPECT_EQ(parallel::thread_count(), 3u);
  // ...and resetting to 0 falls back to DSMT_THREADS.
  parallel::set_thread_count(0);
  EXPECT_EQ(parallel::thread_count(), 5u);
  ::unsetenv("DSMT_THREADS");
  EXPECT_GE(parallel::thread_count(), 1u);
}

TEST(ParallelDeterminism, ThreadCountReadsEnvironmentOnlyAtConfiguration) {
  // The count is resolved when the pool is configured and read lock-free
  // after that: a later change to the environment is seen only by the next
  // set_thread_count().
  const char* saved = std::getenv("DSMT_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("DSMT_THREADS", "3", 1);
  parallel::set_thread_count(0);
  EXPECT_EQ(parallel::thread_count(), 3u);
  ::setenv("DSMT_THREADS", "6", 1);
  EXPECT_EQ(parallel::thread_count(), 3u);
  parallel::set_thread_count(0);
  EXPECT_EQ(parallel::thread_count(), 6u);
  if (saved != nullptr)
    ::setenv("DSMT_THREADS", restore.c_str(), 1);
  else
    ::unsetenv("DSMT_THREADS");
  parallel::set_thread_count(0);
}

TEST(ParallelDeterminism, ParallelForCoversEveryIndexOnce) {
  parallel::set_thread_count(8);
  std::vector<int> hits(1000, 0);
  parallel::parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "index " << i;
  parallel::set_thread_count(0);
}

TEST(ParallelDeterminism, NestedParallelForRunsInline) {
  parallel::set_thread_count(4);
  std::vector<int> sums(8, 0);
  parallel::parallel_for(sums.size(), [&](std::size_t i) {
    // Inner region must not deadlock on the shared pool.
    parallel::parallel_for(16, [&](std::size_t) { sums[i] += 1; });
  });
  for (int s : sums) EXPECT_EQ(s, 16);
  parallel::set_thread_count(0);
}

/// The calling thread's CPU mask.
cpu_set_t own_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(::sched_getaffinity(0, sizeof mask, &mask), 0);
  return mask;
}

/// `mask` as a list of CPUs ("0,1,3").
std::string cpu_list(const cpu_set_t& mask) {
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

/// The CPU masks of the pool's `workers` workers, sorted: one task per
/// worker, each held until every worker has taken one.
std::vector<std::string> pool_worker_cpus(std::size_t workers) {
  struct Meeting {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t arrived = 0;
    std::size_t done = 0;
    std::vector<std::string> masks;
  };
  auto meeting = std::make_shared<Meeting>();
  for (std::size_t w = 0; w < workers; ++w) {
    parallel::pool_submit([meeting, workers] {
      const std::string mask = cpu_list(own_cpus());
      std::unique_lock<std::mutex> lock(meeting->mu);
      meeting->masks.push_back(mask);
      ++meeting->arrived;
      meeting->cv.notify_all();
      meeting->cv.wait(lock, [&] { return meeting->arrived == workers; });
      ++meeting->done;
      meeting->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(meeting->mu);
  meeting->cv.wait(lock, [&] { return meeting->done == workers; });
  std::sort(meeting->masks.begin(), meeting->masks.end());
  return meeting->masks;
}

bool allows_two_cpus() {
  const cpu_set_t mask = own_cpus();
  return CPU_COUNT(&mask) >= 2;
}

// At two threads, the caller's block and the pool worker's block each run
// on one CPU from start to end, and not on the same one: a woken worker
// does not share its waker's CPU.
TEST(ParallelFor, BlocksRunOnTheirOwnCpus) {
  if (!allows_two_cpus()) GTEST_SKIP() << "fewer than two allowed CPUs";
  parallel::set_thread_count(2);
  const std::string caller = cpu_list(own_cpus());
  std::vector<std::set<int>> seen(2);
  parallel::parallel_for(seen.size(), [&](std::size_t b) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until)
      seen[b].insert(::sched_getcpu());
  });
  parallel::set_thread_count(0);
  EXPECT_EQ(cpu_list(own_cpus()), caller) << "the caller stayed pinned";
  ASSERT_EQ(seen[0].size(), 1u) << "block 0 moved between CPUs";
  ASSERT_EQ(seen[1].size(), 1u) << "block 1 moved between CPUs";
  EXPECT_NE(*seen[0].begin(), *seen[1].begin());
}

// Placement lasts only for the region: afterwards the caller and every
// pool worker have the CPU masks they had before, also when the region's
// body throws.
TEST(ParallelFor, RestoresThreadAffinity) {
  if (!allows_two_cpus()) GTEST_SKIP() << "fewer than two allowed CPUs";
  parallel::set_thread_count(2);
  const std::string caller = cpu_list(own_cpus());
  const std::vector<std::string> workers = pool_worker_cpus(2);

  std::vector<int> cpus_in_block(64, 0);
  parallel::parallel_for(cpus_in_block.size(), [&](std::size_t i) {
    const cpu_set_t mask = own_cpus();
    cpus_in_block[i] = CPU_COUNT(&mask);
  });
  for (int count : cpus_in_block) EXPECT_EQ(count, 1) << "a block ran unpinned";
  EXPECT_EQ(cpu_list(own_cpus()), caller) << "after a clean region";
  EXPECT_EQ(pool_worker_cpus(2), workers) << "after a clean region";

  EXPECT_THROW(parallel::parallel_for(
                   64, [](std::size_t) { throw std::runtime_error("body"); }),
               std::runtime_error);
  EXPECT_EQ(cpu_list(own_cpus()), caller) << "after a region that threw";
  EXPECT_EQ(pool_worker_cpus(2), workers) << "after a region that threw";
  parallel::set_thread_count(0);
}

}  // namespace
}  // namespace dsmt
