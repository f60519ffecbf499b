#include "selfconsistent/sweep.h"

#include <cmath>
#include <stdexcept>

#include "parallel/parallel_for.h"
#include "thermal/impedance.h"

namespace dsmt::selfconsistent {

std::vector<double> log_spaced(double lo, double hi, int points) {
  if (lo <= 0.0 || hi <= lo || points < 2)
    throw std::invalid_argument("log_spaced: bad range");
  std::vector<double> v(points);
  const double step = std::log(hi / lo) / (points - 1);
  for (int i = 0; i < points; ++i) v[i] = lo * std::exp(i * step);
  v.back() = hi;
  return v;
}

std::vector<DutyCyclePoint> sweep_duty_cycle(
    const Problem& base, const std::vector<double>& duty_cycles) {
  // Reference thermal-only line (b): j_rms at the r = 1 self-consistent
  // point, divided by sqrt(r).
  Problem dc = base;
  dc.duty_cycle = 1.0;
  const double jrms_dc = solve(dc).j_rms;

  // Each point is an independent solve of the base problem at its duty
  // cycle, so the points are bitwise the same at every thread count, and a
  // failure throws the lowest failed point's exception.
  return parallel::parallel_map<DutyCyclePoint>(
      duty_cycles.size(), [&](std::size_t k) {
        Problem p = base;
        p.duty_cycle = duty_cycles[k];
        DutyCyclePoint pt;
        pt.duty_cycle = p.duty_cycle;
        pt.sc = solve(p);
        pt.jpeak_em_only = jpeak_em_only(p);
        pt.jpeak_thermal_only = A_per_m2(jrms_dc / std::sqrt(p.duty_cycle));
        return pt;
      });
}

std::vector<std::vector<DutyCyclePoint>> sweep_j0(
    const Problem& base, const std::vector<double>& j0_values,
    const std::vector<double>& duty_cycles) {
  // Parallel over the j0 family; the nested sweep_duty_cycle runs inline on
  // the worker, so the grid is covered once with no oversubscription.
  return parallel::parallel_map<std::vector<DutyCyclePoint>>(
      j0_values.size(), [&](std::size_t i) {
        Problem p = base;
        p.j0 = A_per_m2(j0_values[i]);
        return sweep_duty_cycle(p, duty_cycles);
      });
}

Problem make_level_problem(const tech::Technology& technology, int level,
                           const materials::Dielectric& gap_fill, double phi,
                           double duty_cycle, units::CurrentDensity j0) {
  const auto& layer = technology.layer(level);
  const auto stack = technology.stack_below(level, gap_fill);
  const auto b = metres(stack.total_thickness());
  const auto w_eff = thermal::effective_width(metres(layer.width), b, phi);
  const auto rth = thermal::rth_per_length(stack, w_eff);

  Problem p;
  p.metal = technology.metal;
  p.duty_cycle = duty_cycle;
  p.j0 = j0;
  p.heating_coefficient = heating_coefficient(
      metres(layer.width), metres(layer.thickness), rth);
  return p;
}

std::vector<TableCell> generate_design_rule_table(const TableSpec& spec) {
  // The returned vector is laid out in the serial (duty x gap-fill x level)
  // nesting order: idx = (r_idx * n_gf + gf_idx) * n_lv + lv_idx.
  const std::size_t n_r = spec.duty_cycles.size();
  const std::size_t n_gf = spec.gap_fills.size();
  const std::size_t n_lv = spec.levels.size();
  const std::size_t n_cells = n_r * n_gf * n_lv;
  if (n_cells == 0) return {};

  // The duty cycle only sets Problem::duty_cycle (the heating coefficient is
  // geometry-only), so each (gap-fill, level) pair builds its layer stack
  // exactly once and its n_r cells patch the duty. Prototypes are built in
  // cell order, so a bad level throws from the lowest cell that names it.
  std::vector<Problem> protos;
  protos.reserve(n_gf * n_lv);
  for (const auto& gap_fill : spec.gap_fills)
    for (const int level : spec.levels)
      protos.push_back(make_level_problem(spec.technology, level, gap_fill,
                                          spec.phi, spec.duty_cycles.front(),
                                          spec.j0));

  // One independent solve per cell, in cell order: a failure throws the
  // lowest failed cell's exception.
  return parallel::parallel_map<TableCell>(n_cells, [&](std::size_t idx) {
    const std::size_t lv_idx = idx % n_lv;
    const std::size_t gf_idx = idx / n_lv % n_gf;
    const std::size_t r_idx = idx / (n_lv * n_gf);
    Problem p = protos[gf_idx * n_lv + lv_idx];
    p.duty_cycle = spec.duty_cycles[r_idx];
    TableCell cell;
    cell.level = spec.levels[lv_idx];
    cell.dielectric = spec.gap_fills[gf_idx].name;
    cell.duty_cycle = p.duty_cycle;
    cell.sol = solve(p);
    return cell;
  });
}

}  // namespace dsmt::selfconsistent
