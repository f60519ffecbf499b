// Fig. 2: self-consistent solutions for T_m and j_peak vs duty cycle r.
// Geometry from the figure caption: Cu, j_o = 0.6 MA/cm^2, t_ox = 3 um,
// t_m = 0.5 um, W_m = 3 um, quasi-1D W_eff; rho(T) per the caption.
#include <cstdio>

#include "numeric/constants.h"
#include "report/table.h"
#include "selfconsistent/sweep.h"
#include "thermal/impedance.h"

using namespace dsmt;

int main() {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.metal.em.activation_energy_ev = 0.7;  // AlCu-era Q used by the paper
  p.j0 = MA_per_cm2(0.6);
  const auto weff =
      thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
  const auto rth = thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff);
  p.heating_coefficient =
      selfconsistent::heating_coefficient(um(3.0), um(0.5), rth);

  std::printf("== Fig. 2: T_m and j_peak vs duty cycle (Cu, j0 = 0.6 MA/cm2) ==\n\n");
  report::Table table({"duty r", "T_m [C]", "j_peak_sc [MA/cm2]",
                       "j0/r (line a)", "j_rms/sqrt(r) (line b)",
                       "sc/EM-only"});
  const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 17);
  const auto points = selfconsistent::sweep_duty_cycle(p, duties);
  for (const auto& pt : points) {
    table.add_row(
        {report::fmt(pt.duty_cycle, 5),
         report::fmt(kelvin_to_celsius(pt.sc.t_metal), 1),
         report::fmt(to_MA_per_cm2(pt.sc.j_peak), 2),
         report::fmt(to_MA_per_cm2(pt.jpeak_em_only), 2),
         report::fmt(to_MA_per_cm2(pt.jpeak_thermal_only), 2),
         report::fmt(pt.sc.j_peak / pt.jpeak_em_only, 3)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Full-resolution series for plotting.
  {
    std::vector<double> r, tm, jp, jem, jth;
    for (const auto& pt : selfconsistent::sweep_duty_cycle(
             p, selfconsistent::log_spaced(1e-4, 1.0, 81))) {
      r.push_back(pt.duty_cycle);
      tm.push_back(kelvin_to_celsius(pt.sc.t_metal));
      jp.push_back(to_MA_per_cm2(pt.sc.j_peak));
      jem.push_back(to_MA_per_cm2(pt.jpeak_em_only));
      jth.push_back(to_MA_per_cm2(pt.jpeak_thermal_only));
    }
    report::write_csv("fig2_series.csv",
                      {"duty", "tm_C", "jpeak_sc", "jpeak_em_only",
                       "jpeak_thermal_only"},
                      {r, tm, jp, jem, jth});
    std::printf("Full 81-point series written to fig2_series.csv\n\n");
  }

  // Headline check at r = 1e-2.
  selfconsistent::Problem pc = p;
  pc.duty_cycle = 1e-2;
  const auto sc = selfconsistent::solve(pc);
  std::printf(
      "Paper: at r = 1e-2 the self-consistent j_peak is 'nearly 2 times\n"
      "smaller' than the EM-only j0/r line. Measured factor: %.2fx.\n",
      (selfconsistent::jpeak_em_only(pc) / sc.j_peak).value());
  std::printf(
      "Paper: T_m decreases monotonically toward T_ref = 100 C as r -> 1;\n"
      "measured T_m(r=1) = %.1f C, T_m(r=1e-4) = %.1f C.\n",
      kelvin_to_celsius(points.back().sc.t_metal),
      kelvin_to_celsius(points.front().sc.t_metal));
  return 0;
}
