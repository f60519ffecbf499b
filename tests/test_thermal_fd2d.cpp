// 2-D cross-section finite-volume solver tests.
#include <gtest/gtest.h>

#include <cmath>

#include "numeric/constants.h"
#include "thermal/fd2d.h"
#include "thermal/impedance.h"
#include "thermal/scenarios.h"

namespace dsmt::thermal {
namespace {

MeshOptions coarse() {
  MeshOptions m;
  m.h_min = 0.05e-6;
  m.h_max = 0.5e-6;
  return m;
}

TEST(CrossSection2D, WidePlateMatches1DConduction) {
  // A heater spanning (almost) the full domain width above a slab: the heat
  // flow is 1-D, dT = P' * b / (k * W).
  const double w = um(50), b = um(2), t_wire = um(0.5);
  CrossSection2D cs(w, b + t_wire + um(1), 1.15);
  cs.add_wire({um(0.5), w - um(0.5), b, b + t_wire}, 400.0);
  const auto sol = cs.solve({1.0}, coarse());
  ASSERT_TRUE(sol.converged);
  const double expected = 1.0 * b / (1.15 * (w - um(1.0)));
  EXPECT_NEAR(sol.wire_avg_rise[0], expected, 0.08 * expected);
}

TEST(CrossSection2D, LinearityInPower) {
  SingleLineSpec spec;
  auto cs1 = make_single_line_section(spec);
  const auto s1 = cs1.solve({1.0}, coarse());
  const auto s2 = cs1.solve({3.0}, coarse());
  ASSERT_TRUE(s1.converged && s2.converged);
  EXPECT_NEAR(s2.wire_avg_rise[0] / s1.wire_avg_rise[0], 3.0, 1e-6);
}

TEST(CrossSection2D, CouplingMatrixReciprocity) {
  // Two wires side by side, 1 W/m in one at a time. heat_j[i] is the
  // coupling Theta(i, j): it must be symmetric (reciprocity), and the self
  // terms larger than the coupling terms.
  CrossSection2D cs(um(20), um(6), 1.15);
  cs.add_wire({um(8), um(9), um(2), um(2.5)}, 400.0);
  cs.add_wire({um(11), um(12), um(2), um(2.5)}, 400.0);
  const auto heat_0 = cs.solve({1.0, 0.0}, coarse()).wire_avg_rise;
  const auto heat_1 = cs.solve({0.0, 1.0}, coarse()).wire_avg_rise;
  EXPECT_NEAR(heat_1[0], heat_0[1], 0.05 * std::max(heat_1[0], heat_0[1]));
  EXPECT_GT(heat_0[0], heat_1[0]);
  EXPECT_GT(heat_1[1], heat_0[1]);
  EXPECT_GT(heat_1[0], 0.0);  // heating one wire warms the other
}

TEST(CrossSection2D, NarrowLineSpreadingBeatsQuasi1D) {
  // For a narrow line the FD rise is well below the no-spreading (phi = 0)
  // estimate and in the neighborhood of the quasi-2D (phi = 2.45) one.
  SingleLineSpec spec;  // W = 0.35 um over 1.2 um oxide
  const double rth_fd = solve_rth_per_length(spec, coarse());
  const double rth_no_spread = rth_per_length_uniform(
      metres(spec.t_ox_below), W_per_mK(1.15), metres(spec.width));
  const double rth_q2d = rth_per_length_uniform(
      metres(spec.t_ox_below), W_per_mK(1.15),
      effective_width(metres(spec.width), metres(spec.t_ox_below),
                      kPhiQuasi2D));
  EXPECT_LT(rth_fd, 0.5 * rth_no_spread);
  EXPECT_GT(rth_fd, 0.5 * rth_q2d);
  EXPECT_LT(rth_fd, 2.0 * rth_q2d);
}

TEST(CrossSection2D, MeshRefinementConverges) {
  SingleLineSpec spec;
  MeshOptions fine;
  fine.h_min = 0.015e-6;
  fine.h_max = 0.15e-6;
  const double r_coarse = solve_rth_per_length(spec, coarse());
  const double r_fine = solve_rth_per_length(spec, fine);
  EXPECT_NEAR(r_coarse, r_fine, 0.05 * r_fine);
}

TEST(CrossSection2D, InvalidInputsThrow) {
  EXPECT_THROW(CrossSection2D(0.0, 1.0, 1.0), std::invalid_argument);
  CrossSection2D cs(um(10), um(5), 1.15);
  EXPECT_THROW(cs.add_material({0, 0, 0, 0}, 1.0), std::invalid_argument);
  EXPECT_THROW(cs.add_material({0, um(1), 0, um(1)}, 0.0),
               std::invalid_argument);
  cs.add_wire({um(4), um(5), um(2), um(3)}, 400.0);
  EXPECT_THROW(cs.solve({1.0, 2.0}), std::invalid_argument);  // power size
}

TEST(Scenarios, Figure5ThetaDecreasesWithWidth) {
  double prev = 1e30;
  for (double w_um : {0.35, 1.0, 3.1}) {
    SingleLineSpec spec;
    spec.width = um(w_um);
    const double theta = solve_theta_line(spec, um(1000), coarse());
    EXPECT_LT(theta, prev);
    prev = theta;
  }
}

TEST(Scenarios, Figure5HsqGapFillRaisesTheta) {
  SingleLineSpec ox;
  SingleLineSpec hsq;
  hsq.gap_fill = materials::make_hsq();
  const double t_ox = solve_theta_line(ox, um(1000), coarse());
  const double t_hsq = solve_theta_line(hsq, um(1000), coarse());
  // Paper: ~20% higher for the 0.35 um line with HSQ gap-fill.
  EXPECT_GT(t_hsq, 1.05 * t_ox);
  EXPECT_LT(t_hsq, 1.45 * t_ox);
}

TEST(Scenarios, PhiExtractionNearPaperValue) {
  SingleLineSpec spec;  // the paper's extraction geometry (W = 0.35 um)
  const double rth = solve_rth_per_length(spec, coarse());
  const double phi = extract_phi(rth, spec.width, spec.t_ox_below, 1.15);
  // Paper extracted phi = 2.45 from measurements; the FD solve should land
  // in the same regime (well above Bilotti's 0.88).
  EXPECT_GT(phi, 1.5);
  EXPECT_LT(phi, 3.5);
}

TEST(Scenarios, ExtractPhiInverseOfEffectiveWidth) {
  // Exact inverse: build rth from a known phi and recover it.
  const auto w = um(0.5), b = um(2.0);
  const double k = 1.15, phi = 2.45;
  const double rth =
      rth_per_length_uniform(b, W_per_mK(k), effective_width(w, b, phi));
  EXPECT_NEAR(extract_phi(rth, w, b, k), phi, 1e-10);
}

}  // namespace
}  // namespace dsmt::thermal
