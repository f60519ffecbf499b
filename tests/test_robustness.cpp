// Failure injection and extreme-input robustness: parsers must throw (never
// crash) on garbage, and the solvers must stay finite and ordered at the
// edges of their legal domains.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "circuit/deck.h"
#include "numeric/constants.h"
#include "selfconsistent/solver.h"
#include "tech/techfile.h"
#include "thermal/impedance.h"

namespace dsmt {
namespace {

TEST(Robustness, DeckParserThrowsOnGarbageNeverCrashes) {
  const char* cases[] = {
      "",                     // empty -> missing .end is fine? no cards: ok
      "\x01\x02\x03",         // binary junk card
      "R",                    // bare element
      "R1 a",                 // missing node
      "R1 a 0 1k extra",      // trailing token (swallowed? must not crash)
      "V1 a 0 PULSE(",        // unterminated args
      "V1 a 0 PULSE(1 2 3 4 5 6 7",  // unterminated paren
      "M1 a b",               // missing terminals
      "M1 a b c nmos vt",     // key without value
      ".tran x y",            // non-numeric tran
      "C1 a 0 1f\n.tran 1p\n.end",  // missing tstop
      "R1 a 0 1k\n.frobnicate\n.end",
  };
  for (const char* text : cases) {
    try {
      circuit::parse_deck(text);
    } catch (const std::exception&) {
      // throwing is the expected failure mode
    }
  }
  SUCCEED();
}

TEST(Robustness, TechfileParserThrowsOnGarbageNeverCrashes) {
  const char* cases[] = {
      "tech",
      "tech x\nfeature_um -1\nend",
      "tech x\nlayer one w_um 1\nend",
      "tech x\nlayer 1 w_um nope pitch_um 2 t_um 1 ild_um 1\nend",
      "device vdd 1\nend",
      "tech x\nmetal\nend",
      "tech x\nlayer 1 w_um 1 pitch_um 2 t_um 1 ild_um 1 bogus 3\nend",
  };
  for (const char* text : cases) {
    try {
      tech::parse_techfile(text);
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

/// Asserts parse_techfile rejects `text` with a std::runtime_error whose
/// message carries the offending line number ("techfile:N:") and, when
/// `fragment` is non-empty, the expected description.
void ExpectTechfileError(const std::string& text, int line,
                         const std::string& fragment) {
  try {
    (void)tech::parse_techfile(text);
    FAIL() << "expected parse_techfile to throw on: " << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("techfile:" + std::to_string(line) + ":"),
              std::string::npos)
        << "wrong line number in: " << what;
    if (!fragment.empty()) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing '" << fragment << "' in: " << what;
    }
  }
}

TEST(Robustness, TechfileRejectsTruncatedLines) {
  ExpectTechfileError("tech x\nlayer 1 w_um\nend\n", 2,
                      "layer: missing value for w_um");
  ExpectTechfileError("tech x\ndevice vdd\nend\n", 2,
                      "device: missing value for vdd");
  ExpectTechfileError("tech\nend\n", 1, "tech: missing name");
  ExpectTechfileError("tech x\nmetal\nend\n", 2, "metal: missing name");
}

TEST(Robustness, TechfileRejectsOutOfOrderLayers) {
  ExpectTechfileError(
      "tech x\n"
      "layer 3 w_um 1 pitch_um 2 t_um 1 ild_um 1\n"
      "layer 2 w_um 1 pitch_um 2 t_um 1 ild_um 1\n"
      "end\n",
      3, "layer: levels must be ascending");
  // Equal levels are just as wrong as descending ones.
  ExpectTechfileError(
      "tech x\n"
      "layer 2 w_um 1 pitch_um 2 t_um 1 ild_um 1\n"
      "layer 2 w_um 1 pitch_um 2 t_um 1 ild_um 1\n"
      "end\n",
      3, "layer: levels must be ascending");
}

TEST(Robustness, TechfileRejectsNonFiniteValues) {
  // Whether the stream rejects the token or the isfinite guard catches it,
  // the error must carry the right line number.
  ExpectTechfileError("tech x\nfeature_um nan\nend\n", 2, "feature_um");
  ExpectTechfileError("tech x\nfeature_um inf\nend\n", 2, "feature_um");
  ExpectTechfileError("tech x\ndevice vdd nan\nend\n", 2, "device:");
  ExpectTechfileError(
      "tech x\nlayer 1 w_um inf pitch_um 2 t_um 1 ild_um 1\nend\n", 2,
      "layer:");
}

TEST(Robustness, TechfileRejectsDuplicateKeys) {
  ExpectTechfileError(
      "tech x\nlayer 1 w_um 1 w_um 2 pitch_um 2 t_um 1 ild_um 1\nend\n", 2,
      "layer: duplicate key w_um");
  ExpectTechfileError("tech x\ndevice vdd 1 vdd 2\nend\n", 2,
                      "device: duplicate key vdd");
  ExpectTechfileError("tech x\ntech y\nend\n", 2,
                      "duplicate 'tech' directive");
  ExpectTechfileError("tech x\nfeature_um 1\nfeature_um 2\nend\n", 3,
                      "duplicate 'feature_um' directive");
}

TEST(Robustness, SolverRejectsIllegalProblems) {
  const auto make_valid = [] {
    selfconsistent::Problem p;
    p.metal = materials::make_copper();
    p.j0 = MA_per_cm2(0.6);
    p.duty_cycle = 0.1;
    const auto weff =
        thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
    p.heating_coefficient = selfconsistent::heating_coefficient(
        um(3.0), um(0.5),
        thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff));
    return p;
  };
  ASSERT_NO_THROW((void)selfconsistent::solve(make_valid()));

  // Negative / zero / super-unity duty cycle.
  for (double r : {-0.5, 0.0, 1.5}) {
    auto p = make_valid();
    p.duty_cycle = r;
    EXPECT_THROW((void)selfconsistent::solve(p), std::invalid_argument) << r;
  }
  // Default-constructed (zero) heating coefficient: the thermal feedback
  // term would silently vanish, so the solver must refuse to run.
  {
    auto p = make_valid();
    p.heating_coefficient = units::HeatingCoefficient{};
    EXPECT_THROW((void)selfconsistent::solve(p), std::invalid_argument);
  }
  // Non-finite or non-positive design-rule density.
  for (double j : {std::nan(""), -1.0, 0.0,
                   std::numeric_limits<double>::infinity()}) {
    auto p = make_valid();
    p.j0 = A_per_m2(j);
    EXPECT_THROW((void)selfconsistent::solve(p), std::invalid_argument) << j;
  }
  // Non-physical reference temperature.
  {
    auto p = make_valid();
    p.t_ref = units::Kelvin{-1.0};
    EXPECT_THROW((void)selfconsistent::solve(p), std::invalid_argument);
  }
}

TEST(Robustness, SolverStaysFiniteAtExtremeDutyCycles) {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.j0 = MA_per_cm2(0.6);
  const auto weff =
      thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
  p.heating_coefficient = selfconsistent::heating_coefficient(
      um(3.0), um(0.5), thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff));
  for (double r : {1e-6, 1e-5, 0.999999, 1.0}) {
    p.duty_cycle = r;
    const auto s = selfconsistent::solve(p);
    EXPECT_TRUE(std::isfinite(s.j_peak)) << r;
    EXPECT_TRUE(std::isfinite(s.t_metal)) << r;
    EXPECT_GT(s.j_peak, 0.0) << r;
  }
}

TEST(Robustness, SolverHandlesExtremeGeometry) {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.j0 = MA_per_cm2(0.6);
  p.duty_cycle = 0.1;
  // Nanoscale line over a thin stack and a huge bus over a thick one.
  for (const auto& [w, t, b] :
       {std::tuple{nm(30), nm(60), nm(100)},
        std::tuple{um(20.0), um(5.0), um(50.0)}}) {
    const auto weff = thermal::effective_width(w, b, 2.45);
    p.heating_coefficient = selfconsistent::heating_coefficient(
        w, t, thermal::rth_per_length_uniform(b, W_per_mK(1.15), weff));
    const auto s = selfconsistent::solve(p);
    EXPECT_TRUE(s.converged);
    EXPECT_GT(s.j_peak, 0.0);
    EXPECT_LT(s.t_metal, p.metal.t_melt);
  }
}

TEST(Robustness, SolverHandlesExtremeJ0) {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.duty_cycle = 0.1;
  const auto weff =
      thermal::effective_width(um(1.0), um(3.0), thermal::kPhiQuasi1D);
  p.heating_coefficient = selfconsistent::heating_coefficient(
      um(1.0), um(0.5), thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff));
  // Tiny j0: EM-dominated, nearly no heating.
  p.j0 = MA_per_cm2(1e-4);
  const auto weak = selfconsistent::solve(p);
  EXPECT_NEAR(weak.j_peak, selfconsistent::jpeak_em_only(p),
              0.01 * selfconsistent::jpeak_em_only(p));
  // Enormous j0: thermally clamped far below the EM-only line.
  p.j0 = MA_per_cm2(1e4);
  const auto strong = selfconsistent::solve(p);
  EXPECT_TRUE(strong.converged);
  EXPECT_LT(strong.j_peak, 0.05 * selfconsistent::jpeak_em_only(p));
  EXPECT_LT(strong.t_metal, p.metal.t_melt);
}

TEST(Robustness, SelfHeatingRunawayIsFlaggedNotInf) {
  const auto cu = materials::make_copper();
  for (double j_ma : {1e2, 1e3, 1e4}) {
    const auto sol = thermal::solve_self_heating(MA_per_cm2(j_ma), cu, um(1),
                                                 um(1), K_m_per_W(1.0), kTrefK);
    EXPECT_TRUE(std::isfinite(sol.t_metal));
    if (sol.runaway) {
      EXPECT_DOUBLE_EQ(sol.t_metal, cu.t_melt);
    }
  }
}

}  // namespace
}  // namespace dsmt
