// Fig. 3: dependence of the self-consistent T_m and j_peak on the EM
// design-rule current density j_o (same geometry as Fig. 2).
#include <cstdio>

#include "numeric/constants.h"
#include "report/table.h"
#include "selfconsistent/sweep.h"
#include "thermal/impedance.h"

using namespace dsmt;

int main() {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.metal.em.activation_energy_ev = 0.7;
  const auto weff =
      thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
  const auto rth = thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff);
  p.heating_coefficient =
      selfconsistent::heating_coefficient(um(3.0), um(0.5), rth);

  std::printf("== Fig. 3: T_m and j_peak vs duty cycle for several j_o ==\n\n");
  const std::vector<double> j0s = {MA_per_cm2(0.6), MA_per_cm2(1.2),
                                   MA_per_cm2(1.8), MA_per_cm2(2.4)};
  const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 9);
  const auto family = selfconsistent::sweep_j0(p, j0s, duties);

  report::Table table({"duty r", "j0 [MA/cm2]", "T_m [C]",
                       "j_peak_sc [MA/cm2]"});
  for (std::size_t k = 0; k < duties.size(); ++k)
    for (std::size_t i = 0; i < j0s.size(); ++i)
      table.add_row({report::fmt(duties[k], 5),
                     report::fmt(to_MA_per_cm2(j0s[i]), 1),
                     report::fmt(kelvin_to_celsius(family[i][k].sc.t_metal), 1),
                     report::fmt(to_MA_per_cm2(family[i][k].sc.j_peak), 2)});
  std::printf("%s\n", table.to_string().c_str());

  // Full-resolution series per j0 for plotting.
  {
    const auto fine = selfconsistent::log_spaced(1e-4, 1.0, 61);
    const auto fam = selfconsistent::sweep_j0(p, j0s, fine);
    std::vector<std::string> names{"duty"};
    std::vector<std::vector<double>> cols{fine};
    for (std::size_t i = 0; i < j0s.size(); ++i) {
      names.push_back("jpeak_j0_" +
                      report::fmt(to_MA_per_cm2(j0s[i]), 1));
      names.push_back("tm_j0_" + report::fmt(to_MA_per_cm2(j0s[i]), 1));
      std::vector<double> jp, tm;
      for (const auto& pt : fam[i]) {
        jp.push_back(to_MA_per_cm2(pt.sc.j_peak));
        tm.push_back(kelvin_to_celsius(pt.sc.t_metal));
      }
      cols.push_back(jp);
      cols.push_back(tm);
    }
    report::write_csv("fig3_series.csv", names, cols);
    std::printf("Full 61-point series written to fig3_series.csv\n\n");
  }

  // Paper's observation: raising j0 raises T_m, but j_peak gains become
  // increasingly ineffective as r decreases below ~1e-3.
  auto gain = [&](std::size_t k) {
    return (family.back()[k].sc.j_peak / family.front()[k].sc.j_peak).value();
  };
  std::printf(
      "j_peak gain from 4x j0 at r = 1:    %.2fx\n"
      "j_peak gain from 4x j0 at r = 1e-4: %.2fx  (diminishing returns)\n",
      gain(duties.size() - 1), gain(0));
  return 0;
}
