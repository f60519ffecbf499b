#include "core/variation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "numeric/stats.h"
#include "parallel/parallel_for.h"
#include "selfconsistent/sweep.h"

namespace dsmt::core {

namespace {

/// Deterministic counter-based standard normal (splitmix64 + Box-Muller).
///
/// Each Monte-Carlo sample owns an independent stream keyed on
/// (seed, sample index), so sample s draws the same perturbations no matter
/// which thread computes it or in what order — the parallel sampling stream
/// is identical to the serial one by construction, not by scheduling luck.
class CounterNormalGen {
 public:
  CounterNormalGen(unsigned seed, std::uint64_t sample)
      : state_(mix64(0x9E3779B97F4A7C15ULL * (sample + 1) ^
                     (static_cast<std::uint64_t>(seed) << 1 | 1ULL))) {}

  double operator()() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    // Guard the log.
    const double u1 = std::max(uniform(), 1e-12);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    have_spare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
  }

 private:
  static std::uint64_t mix64(std::uint64_t z) {
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z;
  }

  double uniform() {
    state_ += 0x9E3779B97F4A7C15ULL;
    return static_cast<double>(mix64(state_) >> 11) * 0x1.0p-53;
  }

  std::uint64_t state_;
  bool have_spare_ = false;
  double spare_ = 0.0;
};

double percentile(std::vector<double> sorted, double p) {
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double f = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - f) + sorted[hi] * f;
}

}  // namespace

VariationResult monte_carlo_jpeak(const tech::Technology& technology,
                                  int level,
                                  const materials::Dielectric& gap_fill,
                                  double phi, double duty_cycle, double j0,
                                  const VariationSpec& spec, int n_samples) {
  if (n_samples < 2)
    throw std::invalid_argument("monte_carlo_jpeak: n_samples < 2");

  VariationResult out;
  out.nominal = selfconsistent::solve(selfconsistent::make_level_problem(
                                          technology, level, gap_fill, phi,
                                          duty_cycle, A_per_m2(j0)))
                    .j_peak;

  // Sampling phase: every sample draws from its own counter-seeded stream
  // (draw order fw, ft, fb, fk), solves its perturbed problem and writes its
  // own slot, so the parallel result is bit-identical to the serial one for
  // any thread count, and a failure throws the lowest failed sample's
  // exception.
  out.samples = parallel::parallel_map<double>(
      static_cast<std::size_t>(n_samples), [&](std::size_t s) {
        CounterNormalGen gen(spec.seed, s);
        tech::Technology t = technology;
        materials::Dielectric gf = gap_fill;
        // Lognormal perturbations keep every quantity positive.
        const double fw = std::exp(spec.width * gen());
        const double ft = std::exp(spec.thickness * gen());
        const double fb = std::exp(spec.stack * gen());
        const double fk = std::exp(spec.k_thermal * gen());
        for (auto& l : t.layers) {
          if (l.level == level) {
            l.pitch += l.width * (fw - 1.0);
            l.width *= fw;
            l.thickness *= ft;
          }
          l.ild_below *= fb;
        }
        gf.k_thermal *= fk;
        return selfconsistent::solve(
                   selfconsistent::make_level_problem(
                       t, level, gf, phi, duty_cycle, A_per_m2(j0)))
            .j_peak.value();
      });
  // Reduction phase: fold the summary in index order on this thread — the
  // exact floating-point accumulation sequence of the serial loop.
  const auto stats = parallel::ordered_reduce(
      numeric::RunningStats{}, out.samples,
      [](numeric::RunningStats acc, double j) {
        acc.add(j);
        return acc;
      });
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  std::vector<double> sorted = out.samples;
  std::sort(sorted.begin(), sorted.end());
  out.p01 = percentile(sorted, 0.01);
  out.p50 = percentile(sorted, 0.50);
  out.p99 = percentile(sorted, 0.99);
  return out;
}

}  // namespace dsmt::core
