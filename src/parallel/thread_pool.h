// Fixed-size worker pool behind the deterministic parallel layer.
//
// This header and its .cpp are the only places in the library allowed to
// create threads or place them on CPUs (lint rule R6 no-raw-thread): every
// other subsystem gets its concurrency through parallel_for.h, which is
// what carries the determinism guarantee. The pool itself is a plain task
// queue — it knows nothing about partitioning or ordering.
//
// Sizing: the global pool is built lazily on first use with thread_count()
// threads — the `DSMT_THREADS` environment variable when set (clamped to
// [1, 256]), otherwise std::thread::hardware_concurrency(). The count is
// resolved once, at first use, and read from an atomic after that; the
// environment is read again only when set_thread_count() configures the
// pool. Tests and benches may override at runtime with set_thread_count();
// the pool is rebuilt when idle.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace dsmt::parallel {

/// Thread count the global pool uses: the explicit set_thread_count()
/// override if one is active, else DSMT_THREADS, else hardware concurrency,
/// as resolved at first use or at the last set_thread_count(). Always >= 1.
/// Lock-free once resolved.
std::size_t thread_count();

/// Overrides the global pool size (rebuilding the pool on next use), or
/// restores the DSMT_THREADS/hardware default when n == 0, reading the
/// environment now. Must not be called from inside a parallel region.
void set_thread_count(std::size_t n);

/// True on a pool worker thread. parallel_for uses this to run nested
/// parallel regions inline instead of deadlocking on the shared queue.
bool on_worker_thread();

/// True while the current thread is executing a parallel_for block — which
/// includes the *calling* thread running block 0 of its own region, not
/// just pool workers. parallel_for nests inline whenever this holds:
/// without it, a nested region launched from the caller-run block would fan
/// out concurrently with the outer region's worker blocks, and the nesting
/// contract ("inner loops run serially") would silently only be true on
/// workers.
bool in_parallel_region();

namespace detail {

/// RAII marker for in_parallel_region(), installed by parallel_for around
/// the caller-run block. Depth-counted so sibling regions compose.
class RegionGuard {
 public:
  RegionGuard();
  ~RegionGuard();
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
};

/// The CPUs the blocks of a fan-out region run on: the calling thread's
/// allowed CPUs in ascending order, rotated to start at the one it runs on
/// now, so block b runs on cpus[b % size] and block 0 stays where it is.
/// Empty when fewer than two CPUs are allowed or a call fails; the blocks
/// then run wherever the scheduler puts them.
std::vector<int> block_cpus();

/// RAII: runs the calling thread on `cpu` alone until destruction, then
/// restores the CPU mask the thread had, also when the block throws.
/// `cpu` < 0, or a failed call, pins nothing.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;    // the thread's mask before the pin
  const bool pinned_;  // saved_ holds a mask to restore
};

}  // namespace detail

/// High-water mark on queued-but-unstarted pool tasks. pool_submit() from a
/// producer thread blocks while the queue is at the mark, so a burst of
/// submissions holds bounded memory instead of growing the queue without
/// limit. Workers never block on the mark (they only drain), and nested
/// parallel regions run inline without submitting, so the bound cannot
/// deadlock the pool. Default kDefaultQueueHighWater.
inline constexpr std::size_t kDefaultQueueHighWater = 1024;
std::size_t queue_high_water();
/// Sets the high-water mark (clamped to >= 1). Takes effect on the next
/// submission; must not be called from inside a parallel region.
void set_queue_high_water(std::size_t n);

/// Total tasks drained (dequeued and run) by pool workers since process
/// start. Monotonic across pool rebuilds; lets tests and service metrics
/// observe that a burst actually flowed through the bounded queue.
std::uint64_t tasks_drained();

/// Deepest queue occupancy observed since process start — always <= the
/// high-water mark in force at the time, which is what makes the bound
/// checkable from outside.
std::size_t queue_peak_depth();

/// Submits `task` to the global pool. Internal plumbing for parallel_for;
/// prefer the primitives in parallel_for.h. Blocks while the queue sits at
/// the high-water mark.
void pool_submit(std::function<void()> task);

}  // namespace dsmt::parallel
