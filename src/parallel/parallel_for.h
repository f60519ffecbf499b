// Deterministic data-parallel primitives over the fixed-size thread pool.
//
// Determinism contract: parallel_for(n, body) runs body(i) exactly once for
// every i in [0, n), each call fully independent of the others, and any
// output is written to the caller's index-addressed slot. Work is split into
// at most thread_count() contiguous static index blocks; because no
// cross-item state exists and no reduction is performed inside the parallel
// region, the results are bit-identical for every thread count (including 1).
// Reductions happen after the join, in index order, on the calling thread —
// see ordered_reduce and docs/THEORY.md "Deterministic parallel sweeps".
//
// Error contract: if one or more body(i) calls throw, the exception of the
// LOWEST failing index is rethrown on the calling thread after all blocks
// finish — the same exception a serial loop would surface first. A
// dsmt::SolveError therefore crosses the thread boundary intact, with its
// SolverDiag attempt/recovery chain preserved (the exception object itself
// is carried by std::exception_ptr, not re-synthesized).
//
// Nesting: a parallel_for entered from inside any active parallel region —
// on a pool worker, or on the calling thread while it runs its own block 0
// — runs inline and serially. Outer loops get the threads; inner loops stay
// deterministic, deadlock-free, and free of sibling-block write races.
//
// Placement: a region that fans out runs each block on its own CPU. The
// calling thread's allowed CPUs are read at entry, starting at the one it
// runs on, and block b is pinned to the b-th of them (wrapping around when
// there are more blocks than CPUs), so block 0 never migrates and a woken
// pool worker does not share its waker's CPU. Each block restores its
// thread's CPU mask when it ends, also when its body throws, so pool tasks
// outside a region never run pinned. With one allowed CPU, or when a call
// fails, the blocks run unpinned. The serial path and nested regions place
// nothing. Placement decides only where a block runs, never which indices
// it runs, so results stay bit-identical at every thread count.
//
// Resilience: the caller's ambient core::RunContext (deadline, cancel token,
// heartbeat) is snapshotted at entry and installed on every worker for the
// region's duration, and each block polls it between index items. An
// interruption surfaces as a dsmt::SolveError with kDeadlineExceeded /
// kCancelled, routed through the same lowest-index first-failure channel as
// any other worker exception — so a cancelled parallel sweep reports the
// item a serial loop would have been interrupted at (the lowest unfinished
// index among the observing blocks), not a scheduling accident.
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "core/run_context.h"
#include "core/thread_annotations.h"
#include "parallel/thread_pool.h"

namespace dsmt::parallel {

namespace detail {

/// First-failure slot shared by the blocks of one parallel_for: keeps the
/// exception thrown at the lowest item index, which is what a serial loop
/// would have thrown first.
class FirstError {
 public:
  void offer(std::size_t i, std::exception_ptr e) DSMT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (error_ == nullptr || i < index_) {
      index_ = i;
      error_ = std::move(e);
    }
  }

  /// The recorded exception (nullptr when every block finished cleanly).
  /// Called after the join, but the lock keeps the analysis — and TSan —
  /// happy about the handoff from the last offering worker.
  std::exception_ptr take() DSMT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return error_;
  }

 private:
  Mutex mu_;
  std::size_t index_ DSMT_GUARDED_BY(mu_) = static_cast<std::size_t>(-1);
  std::exception_ptr error_ DSMT_GUARDED_BY(mu_);
};

/// Completion latch: parallel_for blocks the caller until every submitted
/// block has run (std::latch minus the C++20 header-availability gamble).
class BlockLatch {
 public:
  explicit BlockLatch(std::size_t count) : remaining_(count) {}

  void count_down() DSMT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void wait() DSMT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (remaining_ != 0) cv_.wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::size_t remaining_ DSMT_GUARDED_BY(mu_);
};

template <typename F>
void run_block(std::size_t begin, std::size_t end, F& body, FirstError& err) {
  for (std::size_t i = begin; i < end; ++i) {
    try {
      // Cooperative cancellation/deadline point between items: workers stop
      // dispatching new items as soon as the run is interrupted, and the
      // interruption is offered at this item's index like any failure.
      core::throw_if_run_interrupted("parallel/parallel_for");
      body(i);
    } catch (...) {
      // Record the block's first failure (its minimum index) and stop the
      // block: later indices of this block would not have run serially
      // either once the loop threw.
      err.offer(i, std::current_exception());
      return;
    }
  }
}

}  // namespace detail

/// Runs body(i) for every i in [0, n) across the global pool with static
/// contiguous index blocks; see the header comment for the determinism and
/// error contracts. Safe to call from anywhere; nested calls run inline.
template <typename F>
void parallel_for(std::size_t n, F&& body) {
  if (n == 0) return;
  // Nesting first: an inner region never needs the thread count.
  const std::size_t workers =
      n == 1 || on_worker_thread() || in_parallel_region() ? 1
                                                           : thread_count();
  if (workers <= 1) {
    // Serial path: identical iteration order, natural exception flow, same
    // between-item interruption points as the parallel blocks.
    for (std::size_t i = 0; i < n; ++i) {
      core::throw_if_run_interrupted("parallel/parallel_for");
      body(i);
    }
    return;
  }

  const std::size_t blocks = workers < n ? workers : n;
  const std::size_t base = n / blocks;
  const std::size_t rem = n % blocks;

  auto err = std::make_shared<detail::FirstError>();
  auto latch = std::make_shared<detail::BlockLatch>(blocks - 1);
  // The functor is shared by reference across blocks: body must be
  // re-entrant, which the independence requirement already implies.
  auto& fn = body;

  // Snapshot the caller's ambient resilience context so pool workers poll
  // the same deadline/cancel token (copies share the underlying state). The
  // shared_ptr keeps the snapshot alive until the last block finishes.
  std::shared_ptr<const core::RunContext> run_ctx;
  if (const core::RunContext* ambient = core::current_run_context())
    run_ctx = std::make_shared<const core::RunContext>(*ambient);

  // Each block runs on its own allowed CPU for the region (see Placement
  // in the header comment); the indices a block runs do not depend on it.
  const std::vector<int> cpus = detail::block_cpus();
  const auto cpu_of = [&cpus](std::size_t b) {
    return cpus.empty() ? -1 : cpus[b % cpus.size()];
  };

  std::size_t begin = 0;
  std::size_t first_end = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t len = base + (b < rem ? 1 : 0);
    const std::size_t end = begin + len;
    if (b == 0) {
      first_end = end;  // block 0 runs on the calling thread below
    } else {
      pool_submit([begin, end, &fn, err, latch, run_ctx,
                   cpu = cpu_of(b)]() mutable {
        {
          detail::ScopedPin pin(cpu);
          core::ScopedRunContext scope(run_ctx.get());
          detail::run_block(begin, end, fn, *err);
        }
        // Drop the first-error reference BEFORE signaling: the closure
        // itself is destroyed after count_down, so without this reset a
        // straggling worker could hold the last FirstError reference and
        // destroy the captured exception (and its what() string) on the
        // worker thread while the caller, already rethrown-and-caught, is
        // still reading it. With the reset, the caller always holds the
        // last reference and the exception dies on the calling thread.
        err.reset();
        latch->count_down();
      });
    }
    begin = end;
  }
  {
    // The caller-run block is part of the region too: a nested parallel_for
    // from inside it must run inline, exactly as it does on a pool worker —
    // otherwise the nested region would fan out concurrently with the outer
    // region's worker blocks and the serial-nesting contract would break.
    detail::RegionGuard region;
    detail::ScopedPin pin(cpu_of(0));
    detail::run_block(0, first_end, fn, *err);
  }
  latch->wait();

  if (std::exception_ptr e = err->take()) std::rethrow_exception(e);
}

/// Ordered map: out[i] = fn(i) for i in [0, n), computed in parallel,
/// returned in index order. T must be default-constructible.
template <typename T, typename F>
std::vector<T> parallel_map(std::size_t n, F&& fn) {
  std::vector<T> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Ordered reduction: folds `items` serially in index order on the calling
/// thread — acc = fold(acc, items[i]) for i = 0..n-1. Pairing parallel_map
/// with ordered_reduce gives the exact floating-point sum/extremum sequence
/// of the serial code regardless of thread count.
template <typename Acc, typename T, typename Fold>
Acc ordered_reduce(Acc acc, const std::vector<T>& items, Fold&& fold) {
  for (const T& item : items) acc = fold(std::move(acc), item);
  return acc;
}

}  // namespace dsmt::parallel
