// Large parameterized sweeps asserting the solver invariants across the
// full (technology x level x dielectric x duty) space — the structural
// guarantees behind every table in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/variation.h"
#include "numeric/constants.h"
#include "parallel/parallel_for.h"
#include "selfconsistent/sweep.h"
#include "tech/ntrs.h"
#include "thermal/impedance.h"

namespace dsmt::selfconsistent {
namespace {

tech::Technology node_by_index(int node) {
  switch (node) {
    case 0: return tech::make_ntrs_250nm_cu();
    case 1: return tech::make_ntrs_180nm_cu();
    case 2: return tech::make_ntrs_130nm_cu();
    default: return tech::make_ntrs_100nm_cu();
  }
}

materials::Dielectric dielectric_by_index(int d) {
  switch (d) {
    case 0: return materials::make_oxide();
    case 1: return materials::make_hsq();
    default: return materials::make_polyimide();
  }
}

// (node, level, dielectric, duty-index) — levels beyond a node's stack are
// clamped to its top.
using Case = std::tuple<int, int, int, int>;

class SolverInvariants : public ::testing::TestWithParam<Case> {
 protected:
  static constexpr double kDuties[3] = {0.05, 0.1, 1.0};

  Problem problem() const {
    const auto [node, level_raw, d, duty_idx] = GetParam();
    const auto technology = node_by_index(node);
    const int level = std::min(level_raw, technology.top_level());
    return make_level_problem(technology, level, dielectric_by_index(d),
                              thermal::kPhiQuasi2D, kDuties[duty_idx],
                              MA_per_cm2(1.8));
  }
};

TEST_P(SolverInvariants, SolutionIsPhysicalAndSelfConsistent) {
  const Problem p = problem();
  const Solution s = solve(p);
  ASSERT_TRUE(s.converged);

  // Physicality.
  EXPECT_GT(s.t_metal, p.t_ref);
  EXPECT_LT(s.t_metal, p.metal.t_melt);
  EXPECT_GT(s.j_peak, 0.0);

  // Waveform identities (Eqs. 4-5).
  EXPECT_NEAR(s.j_avg, p.duty_cycle * s.j_peak, 1e-6 * s.j_avg);
  EXPECT_NEAR(s.j_rms, std::sqrt(p.duty_cycle) * s.j_peak, 1e-6 * s.j_rms);

  // Residual vanishes at the root.
  EXPECT_NEAR(residual(p, s.t_metal), 0.0,
              1e-6 * p.j0 * p.j0 + std::abs(residual(p, s.t_metal)) * 1e-3);

  // Thermal side reproduces delta_t exactly.
  const double dt = s.j_rms * s.j_rms * p.metal.resistivity(s.t_metal) *
                    p.heating_coefficient;
  EXPECT_NEAR(dt, s.delta_t, 1e-6 * std::max(1e-9, s.delta_t.value()));

  // Never exceeds the EM-only bound.
  EXPECT_LE(s.j_peak, jpeak_em_only(p) * (1.0 + 1e-9));
}

TEST_P(SolverInvariants, PerturbationsMoveTheAnswerTheRightWay) {
  const Problem base = problem();
  const Solution s0 = solve(base);

  Problem hotter = base;
  hotter.heating_coefficient *= 1.3;
  EXPECT_LT(solve(hotter).j_peak, s0.j_peak * (1.0 + 1e-12));

  Problem stronger_em = base;
  stronger_em.j0 *= 1.3;
  EXPECT_GT(solve(stronger_em).j_peak, s0.j_peak * (1.0 - 1e-12));

  if (base.duty_cycle < 0.9) {
    Problem denser = base;
    denser.duty_cycle = std::min(1.0, base.duty_cycle * 1.5);
    EXPECT_LT(solve(denser).j_peak, s0.j_peak);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullSpace, SolverInvariants,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),     // node
                       ::testing::Values(1, 4, 6, 8),     // level (clamped)
                       ::testing::Values(0, 1, 2),        // dielectric
                       ::testing::Values(0, 1, 2)));      // duty

// Level monotonicity within each node/dielectric/duty combination.
using LevelCase = std::tuple<int, int, int>;
class LevelMonotonicity : public ::testing::TestWithParam<LevelCase> {};

TEST_P(LevelMonotonicity, JpeakNeverIncreasesGoingUpTheStack) {
  const auto [node, d, duty_idx] = GetParam();
  const double duties[2] = {0.1, 1.0};
  const auto technology = node_by_index(node);
  const auto gf = dielectric_by_index(d);
  double prev = 1e300;
  for (int level = 1; level <= technology.top_level(); ++level) {
    const auto s = solve(make_level_problem(technology, level, gf,
                                            thermal::kPhiQuasi2D,
                                            duties[duty_idx],
                                            MA_per_cm2(1.8)));
    EXPECT_LE(s.j_peak, prev * (1.0 + 1e-9))
        << technology.name << " level " << level;
    prev = s.j_peak;
  }
}

INSTANTIATE_TEST_SUITE_P(AllNodes, LevelMonotonicity,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 1)));

// Structural properties of the parallel sweep drivers. These run at an
// elevated thread count on purpose: the invariants must hold on the pooled
// path, not just on the serial fallback this machine would otherwise take.
class ParallelSweepProperties : public ::testing::Test {
 protected:
  void SetUp() override { parallel::set_thread_count(4); }
  void TearDown() override { parallel::set_thread_count(0); }

  static Problem fig_problem() {
    Problem p;
    p.metal = materials::make_copper();
    p.metal.em.activation_energy_ev = 0.7;
    p.j0 = MA_per_cm2(0.6);
    const auto weff =
        thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
    const auto rth =
        thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff);
    p.heating_coefficient = heating_coefficient(um(3.0), um(0.5), rth);
    return p;
  }
};

TEST_F(ParallelSweepProperties, SweepJ0MonotoneInJ0) {
  // A stronger EM design rule can only admit more current: at every duty
  // cycle the j_peak family must be strictly increasing in j_o.
  const std::vector<double> j0s = {MA_per_cm2(0.3), MA_per_cm2(0.6),
                                   MA_per_cm2(1.2), MA_per_cm2(1.8),
                                   MA_per_cm2(2.4)};
  const auto duties = log_spaced(1e-4, 1.0, 13);
  const auto family = sweep_j0(fig_problem(), j0s, duties);
  ASSERT_EQ(family.size(), j0s.size());
  for (std::size_t k = 0; k < duties.size(); ++k)
    for (std::size_t i = 1; i < j0s.size(); ++i)
      EXPECT_GT(family[i][k].sc.j_peak, family[i - 1][k].sc.j_peak)
          << "duty " << duties[k] << ", j0 step " << i;
}

TEST_F(ParallelSweepProperties, DutyCyclePermutationInvariance) {
  // Reordering the requested duty cycles must reorder the outputs
  // identically — bit-for-bit, not approximately: each point's solve is
  // independent of its position in the sweep vector.
  const Problem p = fig_problem();
  const auto duties = log_spaced(1e-4, 1.0, 17);
  std::vector<double> reversed(duties.rbegin(), duties.rend());
  std::vector<double> rotated(duties.begin() + 5, duties.end());
  rotated.insert(rotated.end(), duties.begin(), duties.begin() + 5);

  const auto fwd = sweep_duty_cycle(p, duties);
  const auto rev = sweep_duty_cycle(p, reversed);
  const auto rot = sweep_duty_cycle(p, rotated);
  ASSERT_EQ(fwd.size(), rev.size());
  for (std::size_t k = 0; k < fwd.size(); ++k) {
    const auto& mirror = rev[fwd.size() - 1 - k];
    EXPECT_EQ(fwd[k].duty_cycle, mirror.duty_cycle);
    EXPECT_EQ(fwd[k].sc.j_peak.value(), mirror.sc.j_peak.value());
    EXPECT_EQ(fwd[k].sc.t_metal.value(), mirror.sc.t_metal.value());
    EXPECT_EQ(fwd[k].jpeak_thermal_only.value(),
              mirror.jpeak_thermal_only.value());
    const auto& spun = rot[(k + fwd.size() - 5) % fwd.size()];
    EXPECT_EQ(fwd[k].sc.j_peak.value(), spun.sc.j_peak.value());
  }
}

TEST_F(ParallelSweepProperties, TableCellsIndependentOfGridShape) {
  // Solving a cell alone must give the bit-identical answer to solving it
  // as part of the full grid — cells share nothing.
  TableSpec spec;
  spec.technology = tech::make_ntrs_100nm_cu();
  spec.gap_fills = materials::paper_dielectrics();
  spec.levels = {6, 7, 8};
  spec.duty_cycles = {0.1, 1.0};
  spec.j0 = MA_per_cm2(0.6);
  const auto grid = generate_design_rule_table(spec);

  TableSpec one = spec;
  one.levels = {7};
  one.gap_fills = {materials::make_hsq()};
  one.duty_cycles = {1.0};
  const auto solo = generate_design_rule_table(one);
  ASSERT_EQ(solo.size(), 1u);
  const auto it = std::find_if(grid.begin(), grid.end(), [](const auto& c) {
    return c.level == 7 && c.dielectric == "HSQ" && c.duty_cycle == 1.0;
  });
  ASSERT_NE(it, grid.end());
  EXPECT_EQ(it->sol.j_peak.value(), solo[0].sol.j_peak.value());
  EXPECT_EQ(it->sol.t_metal.value(), solo[0].sol.t_metal.value());
}

TEST_F(ParallelSweepProperties, SweepPointsMatchDirectSolves) {
  // The sweep driver adds no arithmetic between the solver and its points:
  // each point is bitwise a direct solve of the base problem at its duty.
  const Problem base = fig_problem();
  const auto duties = log_spaced(1e-4, 1.0, 17);
  const auto points = sweep_duty_cycle(base, duties);
  ASSERT_EQ(points.size(), duties.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    Problem p = base;
    p.duty_cycle = duties[k];
    const Solution s = solve(p);
    EXPECT_EQ(points[k].duty_cycle, duties[k]) << "duty " << k;
    EXPECT_EQ(points[k].sc.t_metal.value(), s.t_metal.value()) << "duty " << k;
    EXPECT_EQ(points[k].sc.j_peak.value(), s.j_peak.value()) << "duty " << k;
    EXPECT_EQ(points[k].sc.j_rms.value(), s.j_rms.value()) << "duty " << k;
    EXPECT_EQ(points[k].sc.iterations, s.iterations) << "duty " << k;
  }
}

TEST_F(ParallelSweepProperties, TableCellsMatchDirectSolves) {
  // Every table cell is bitwise a direct solve of its level problem, and the
  // cells come back in (duty x gap-fill x level) order.
  TableSpec spec;
  spec.technology = tech::make_ntrs_130nm_cu();
  spec.gap_fills = materials::paper_dielectrics();
  spec.levels = {2, 5, 7};
  spec.duty_cycles = {0.01, 0.1, 1.0};
  spec.j0 = MA_per_cm2(0.6);
  const auto cells = generate_design_rule_table(spec);
  ASSERT_EQ(cells.size(), spec.duty_cycles.size() * spec.gap_fills.size() *
                              spec.levels.size());
  std::size_t idx = 0;
  for (const double r : spec.duty_cycles)
    for (const auto& gf : spec.gap_fills)
      for (const int level : spec.levels) {
        const TableCell& cell = cells[idx++];
        const Solution s = solve(make_level_problem(
            spec.technology, level, gf, spec.phi, r, spec.j0));
        EXPECT_EQ(cell.level, level) << idx;
        EXPECT_EQ(cell.dielectric, gf.name) << idx;
        EXPECT_EQ(cell.duty_cycle, r) << idx;
        EXPECT_EQ(cell.sol.t_metal.value(), s.t_metal.value()) << idx;
        EXPECT_EQ(cell.sol.j_peak.value(), s.j_peak.value()) << idx;
        EXPECT_EQ(cell.sol.iterations, s.iterations) << idx;
      }
}

TEST_F(ParallelSweepProperties, MonteCarloSamplesMatchDirectSolves) {
  // With every variation at zero, each sample's problem is the nominal one,
  // so every sample is bitwise the direct solve of it.
  const auto technology = tech::make_ntrs_180nm_cu();
  const int level = technology.top_level();
  const auto gf = materials::make_hsq();
  const Solution s = solve(make_level_problem(
      technology, level, gf, thermal::kPhiQuasi2D, 0.1, MA_per_cm2(1.8)));
  core::VariationSpec flat;
  flat.width = flat.thickness = flat.stack = flat.k_thermal = 0.0;
  const auto res =
      core::monte_carlo_jpeak(technology, level, gf, thermal::kPhiQuasi2D,
                              0.1, MA_per_cm2(1.8), flat, 37);
  EXPECT_EQ(res.nominal, s.j_peak.value());
  ASSERT_EQ(res.samples.size(), 37u);
  for (std::size_t k = 0; k < res.samples.size(); ++k)
    EXPECT_EQ(res.samples[k], s.j_peak.value()) << "sample " << k;

  // Under variation, sample k depends only on (seed, k): a longer run
  // repeats a shorter one's samples bit for bit.
  const core::VariationSpec spec;
  const auto shorter =
      core::monte_carlo_jpeak(technology, level, gf, thermal::kPhiQuasi2D,
                              0.1, MA_per_cm2(1.8), spec, 40);
  const auto longer =
      core::monte_carlo_jpeak(technology, level, gf, thermal::kPhiQuasi2D,
                              0.1, MA_per_cm2(1.8), spec, 101);
  for (std::size_t k = 0; k < shorter.samples.size(); ++k)
    EXPECT_EQ(shorter.samples[k], longer.samples[k]) << "sample " << k;
}

}  // namespace
}  // namespace dsmt::selfconsistent
