#include "thermal/fd2d.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "numeric/mesh.h"
#include "numeric/sparse.h"
#include "parallel/parallel_for.h"

namespace dsmt::thermal {

struct CrossSection2D::Mesh {
  std::vector<double> xe, ye;           // cell edges
  std::vector<double> xc, yc, dx, dy;   // centers and sizes
  std::vector<double> k;                // cell conductivity (nx*ny)
  std::vector<int> unknown_index;       // -1 for Dirichlet cells
  std::size_t n_unknowns = 0;
  numeric::CsrMatrix a;
  std::vector<std::vector<std::size_t>> wire_cells;  // cells per wire
  std::vector<double> wire_area;                     // painted area per wire

  std::size_t nx() const { return dx.size(); }
  std::size_t ny() const { return dy.size(); }
  std::size_t cell(std::size_t i, std::size_t j) const { return j * nx() + i; }
};

CrossSection2D::CrossSection2D(double width, double height,
                               double k_background)
    : width_(width), height_(height), k_background_(k_background) {
  if (width <= 0 || height <= 0 || k_background <= 0)
    throw std::invalid_argument("CrossSection2D: bad domain");
}

void CrossSection2D::add_material(const RectRegion& r, double k_thermal) {
  if (k_thermal <= 0) throw std::invalid_argument("add_material: k <= 0");
  if (r.width() <= 0 || r.height() <= 0)
    throw std::invalid_argument("add_material: empty region");
  paints_.push_back({r, k_thermal});
}

void CrossSection2D::add_band(double y0, double y1, double k_thermal) {
  add_material({0.0, width_, y0, y1}, k_thermal);
}

std::size_t CrossSection2D::add_wire(const RectRegion& r, double k_metal) {
  add_material(r, k_metal);
  wires_.push_back(r);
  return wires_.size() - 1;
}

CrossSection2D::Mesh CrossSection2D::build_mesh(const MeshOptions& opts) const {
  Mesh m;
  std::set<double> xb, yb;
  for (const auto& p : paints_) {
    xb.insert(std::clamp(p.r.x0, 0.0, width_));
    xb.insert(std::clamp(p.r.x1, 0.0, width_));
    yb.insert(std::clamp(p.r.y0, 0.0, height_));
    yb.insert(std::clamp(p.r.y1, 0.0, height_));
  }
  m.xe = numeric::graded_axis(xb, 0.0, width_, opts.h_min, opts.h_max);
  m.ye = numeric::graded_axis(yb, 0.0, height_, opts.h_min, opts.h_max);

  const std::size_t nx = m.xe.size() - 1, ny = m.ye.size() - 1;
  m.xc.resize(nx);
  m.dx.resize(nx);
  for (std::size_t i = 0; i < nx; ++i) {
    m.dx[i] = m.xe[i + 1] - m.xe[i];
    m.xc[i] = 0.5 * (m.xe[i] + m.xe[i + 1]);
  }
  m.yc.resize(ny);
  m.dy.resize(ny);
  for (std::size_t j = 0; j < ny; ++j) {
    m.dy[j] = m.ye[j + 1] - m.ye[j];
    m.yc[j] = 0.5 * (m.ye[j] + m.ye[j + 1]);
  }

  // Paint conductivities, later paints override. Paints stay serial (their
  // order is the override rule); each paint's row sweep is parallel — rows
  // touch disjoint cells, so the result is thread-count-invariant.
  m.k.assign(nx * ny, k_background_);
  for (const auto& p : paints_) {
    parallel::parallel_for(ny, [&](std::size_t j) {
      if (m.yc[j] < p.r.y0 || m.yc[j] > p.r.y1) return;
      for (std::size_t i = 0; i < nx; ++i) {
        if (m.xc[i] < p.r.x0 || m.xc[i] > p.r.x1) continue;
        m.k[m.cell(i, j)] = p.k;
      }
    });
  }

  // Wire cell lists and areas: one task per wire, each owning its own list,
  // scanned in row order so the cell ordering matches the serial build.
  m.wire_cells.resize(wires_.size());
  m.wire_area.assign(wires_.size(), 0.0);
  parallel::parallel_for(wires_.size(), [&](std::size_t w) {
    const RectRegion& r = wires_[w];
    for (std::size_t j = 0; j < ny; ++j) {
      if (m.yc[j] < r.y0 || m.yc[j] > r.y1) continue;
      for (std::size_t i = 0; i < nx; ++i) {
        if (m.xc[i] < r.x0 || m.xc[i] > r.x1) continue;
        m.wire_cells[w].push_back(m.cell(i, j));
        m.wire_area[w] += m.dx[i] * m.dy[j];
      }
    }
    if (m.wire_cells[w].empty())
      throw std::runtime_error("CrossSection2D: wire not resolved by mesh");
  });

  // Unknown numbering: bottom row (j = 0) is Dirichlet (substrate, rise 0).
  m.unknown_index.assign(nx * ny, -1);
  std::size_t next = 0;
  for (std::size_t j = 1; j < ny; ++j)
    for (std::size_t i = 0; i < nx; ++i)
      m.unknown_index[m.cell(i, j)] = static_cast<int>(next++);
  m.n_unknowns = next;

  // Assemble the 5-point finite-volume operator over the unknowns.
  numeric::SparseBuilder builder(m.n_unknowns);
  auto face_g = [&](std::size_t c1, std::size_t c2, double w1, double w2,
                    double area) {
    // Series (harmonic) conductance through the two half cells.
    const double k1 = m.k[c1], k2 = m.k[c2];
    return area / (0.5 * w1 / k1 + 0.5 * w2 / k2);
  };
  for (std::size_t j = 1; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t c = m.cell(i, j);
      const int row = m.unknown_index[c];
      double diag = 0.0;
      // West/east faces.
      if (i > 0) {
        const std::size_t cw = m.cell(i - 1, j);
        const double g = face_g(c, cw, m.dx[i], m.dx[i - 1], m.dy[j]);
        diag += g;
        builder.add(row, m.unknown_index[cw], -g);
      }
      if (i + 1 < nx) {
        const std::size_t ce = m.cell(i + 1, j);
        const double g = face_g(c, ce, m.dx[i], m.dx[i + 1], m.dy[j]);
        diag += g;
        builder.add(row, m.unknown_index[ce], -g);
      }
      // South face (j-1 may be Dirichlet row: contributes only to diagonal,
      // the fixed rise is 0 so nothing reaches the RHS).
      {
        const std::size_t cs = m.cell(i, j - 1);
        const double g = face_g(c, cs, m.dy[j], m.dy[j - 1], m.dx[i]);
        diag += g;
        if (m.unknown_index[cs] >= 0) builder.add(row, m.unknown_index[cs], -g);
      }
      // North face (top row is adiabatic: no face).
      if (j + 1 < ny) {
        const std::size_t cn = m.cell(i, j + 1);
        const double g = face_g(c, cn, m.dy[j], m.dy[j + 1], m.dx[i]);
        diag += g;
        builder.add(row, m.unknown_index[cn], -g);
      }
      builder.add(row, row, diag);
    }
  }
  m.a = numeric::CsrMatrix(builder);
  return m;
}

CrossSection2D::Solution CrossSection2D::solve(
    const std::vector<double>& p_per_len, const MeshOptions& opts) const {
  if (p_per_len.size() != wires_.size())
    throw std::invalid_argument("CrossSection2D::solve: power vector size");
  const Mesh m = build_mesh(opts);

  std::vector<double> rhs(m.n_unknowns, 0.0);
  for (std::size_t w = 0; w < wires_.size(); ++w) {
    if (p_per_len[w] == 0.0) continue;
    const double q = p_per_len[w] / m.wire_area[w];  // W/m^3
    for (std::size_t c : m.wire_cells[w]) {
      const std::size_t i = c % m.nx();
      const std::size_t j = c / m.nx();
      const int row = m.unknown_index[c];
      if (row >= 0) rhs[row] += q * m.dx[i] * m.dy[j];
    }
  }

  std::vector<double> x(m.n_unknowns, 0.0);
  Solution sol;
  sol.diag.kernel = "thermal/fd2d";
  const auto cg = numeric::conjugate_gradient_robust(
      m.a, rhs, x, {opts.cg_rel_tol, opts.cg_max_iterations}, sol.diag);

  sol.cg_iterations = cg.iterations;
  sol.converged = cg.ok();
  sol.unknowns = m.n_unknowns;
  sol.wire_avg_rise.resize(wires_.size());
  sol.wire_peak_rise.resize(wires_.size());
  for (std::size_t w = 0; w < wires_.size(); ++w) {
    double acc = 0.0, peak = 0.0;
    for (std::size_t c : m.wire_cells[w]) {
      const std::size_t i = c % m.nx();
      const std::size_t j = c / m.nx();
      const int row = m.unknown_index[c];
      const double t = (row >= 0) ? x[row] : 0.0;
      acc += t * m.dx[i] * m.dy[j];
      peak = std::max(peak, t);
    }
    sol.wire_avg_rise[w] = acc / m.wire_area[w];
    sol.wire_peak_rise[w] = peak;
  }
  return sol;
}

}  // namespace dsmt::thermal
