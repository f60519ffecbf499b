// 2-D steady heat-conduction solver on interconnect cross-sections.
//
// Solves div(k grad T) = -q on a rectilinear finite-volume mesh with
// heterogeneous conductivity (oxide / low-k gap-fill / metal), a Dirichlet
// substrate boundary at the bottom, and adiabatic side/top boundaries
// (worst case: all heat leaves through the silicon).
//
// This is the in-silico substitute for two things the paper obtained
// externally: the measured thermal impedances of Fig. 5 (from which the
// heat-spreading parameter phi = 2.45 is extracted) and the finite-element
// array simulations of Rzepka et al. [11] behind Table 7's 3-D coupling
// constant. Because the wires run perpendicular to the modeled plane, a
// per-unit-length 2-D solve captures exactly the line-to-line and
// level-to-level coupling the paper's empirical Eq. 18 constant encodes.
#pragma once

#include <cstddef>
#include <vector>

#include "core/status.h"

namespace dsmt::thermal {

/// Axis-aligned rectangle in cross-section coordinates [m]; x spans the
/// lateral direction, y the vertical (y = 0 is the substrate surface).
struct RectRegion {
  double x0 = 0.0, x1 = 0.0, y0 = 0.0, y1 = 0.0;
  double width() const { return x1 - x0; }
  double height() const { return y1 - y0; }
  double area() const { return width() * height(); }
};

/// Mesh-resolution controls. Cell sizes grade between `h_min` (inside and
/// near wires) and `h_max` (far field).
struct MeshOptions {
  double h_min = 0.02e-6;
  double h_max = 0.25e-6;
  double cg_rel_tol = 1e-9;
  int cg_max_iterations = 40000;
};

/// A heterogeneous cross-section with embedded heated wires.
class CrossSection2D {
 public:
  /// Domain [0, width] x [0, height] filled with `k_background` [W/m*K].
  CrossSection2D(double width, double height, double k_background);

  /// Paints a material rectangle (later calls override earlier ones).
  void add_material(const RectRegion& r, double k_thermal);
  /// Paints a full-width horizontal band (intra-level gap-fill layers).
  void add_band(double y0, double y1, double k_thermal);
  /// Registers a wire (also paints it with the metal conductivity).
  /// Returns the wire index used by solve().
  /// k_metal [W/(m*K)].
  std::size_t add_wire(const RectRegion& r, double k_metal);

  std::size_t wire_count() const { return wires_.size(); }
  const RectRegion& wire(std::size_t i) const { return wires_.at(i); }

  /// Per-wire steady temperatures for the given per-unit-length powers [W/m].
  /// Temperatures are rises above the substrate boundary (Dirichlet 0).
  struct Solution {
    std::vector<double> wire_avg_rise;   ///< [K] area-averaged per wire
    std::vector<double> wire_peak_rise;  ///< [K] hottest cell per wire
    int cg_iterations = 0;
    bool converged = false;
    std::size_t unknowns = 0;
    core::SolverDiag diag;  ///< linear-solve history incl. recovery stages
  };
  Solution solve(const std::vector<double>& p_per_len,
                 const MeshOptions& mesh = {}) const;

 private:
  struct Paint {
    RectRegion r;
    double k;
  };

  struct Mesh;  // internal rectilinear mesh + assembled operator
  Mesh build_mesh(const MeshOptions& opts) const;

  double width_, height_, k_background_;
  std::vector<Paint> paints_;
  std::vector<RectRegion> wires_;
};

}  // namespace dsmt::thermal
