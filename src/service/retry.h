// Deterministic exponential backoff with seeded jitter.
//
// supervise::WorkerPool paces the reforks of a crashing worker slot with
// this schedule. It is a pure function of (policy, key, attempt):
// splitmix64 jitter keyed on the caller's key, never a wall clock or a
// shared RNG, so a schedule is bitwise reproducible across runs and thread
// counts. Sleeping on the schedule is the caller's concern; this layer only
// computes it.
#pragma once

#include <cstdint>

namespace dsmt::service {

/// Backoff schedule parameters.
struct RetryPolicy {
  std::uint64_t base_backoff_ns = 1000000;    ///< schedule base (1 ms) [ns]
  double multiplier = 2.0;                    ///< exponential growth [1]
  std::uint64_t max_backoff_ns = 1000000000;  ///< schedule cap (1 s) [ns]
  double jitter = 0.25;  ///< +/- fractional seeded jitter [1]
  std::uint64_t seed = 0x646d7374;  ///< jitter stream seed ("dsmt")
};

/// splitmix64 finalizer — the same mixer as the Monte-Carlo counter RNG
/// (core/variation.cpp), chosen for platform-independent bit behavior.
std::uint64_t mix64(std::uint64_t z);

/// Backoff [ns] scheduled after failed attempt `attempt` (1-based) of the
/// work identified by `key`. Pure function of its arguments; the
/// exponential ramp is computed by repeated multiplication (no pow()) so
/// the result is bit-stable everywhere.
std::uint64_t backoff_ns(const RetryPolicy& policy, std::uint64_t key,
                         int attempt);

}  // namespace dsmt::service
