#include "service/retry.h"

#include <algorithm>

namespace dsmt::service {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t backoff_ns(const RetryPolicy& policy, std::uint64_t key,
                         int attempt) {
  if (attempt < 1) attempt = 1;
  // Exponential ramp by repeated multiplication, clamped at the cap each
  // step so the loop cannot overflow no matter how large `attempt` is.
  double ramp = static_cast<double>(policy.base_backoff_ns);
  const double cap = static_cast<double>(policy.max_backoff_ns);
  const double growth = policy.multiplier > 1.0 ? policy.multiplier : 1.0;
  for (int i = 1; i < attempt && ramp < cap; ++i) ramp *= growth;
  ramp = std::min(ramp, cap);

  // Seeded jitter in [1 - jitter, 1 + jitter]: one splitmix64 draw keyed on
  // (seed, key, attempt). The 53 high bits give a uniform double in
  // [0, 1) exactly as the Monte-Carlo generator does.
  const std::uint64_t draw =
      mix64(policy.seed ^ mix64(key ^ static_cast<std::uint64_t>(attempt)));
  const double u =
      static_cast<double>(draw >> 11) * 0x1.0p-53;  // [0, 1)
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  const double factor = 1.0 + jitter * (2.0 * u - 1.0);

  const double scheduled = std::max(ramp * factor, 0.0);
  return static_cast<std::uint64_t>(scheduled);
}

}  // namespace dsmt::service
