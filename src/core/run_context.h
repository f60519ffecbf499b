// Long-job resilience: deadlines, cooperative cancellation, and progress
// heartbeats for every iterative kernel in the library.
//
// A RunContext carries three things:
//   * a monotonic deadline (std::chrono::steady_clock — never wall clock, so
//     an NTP step cannot expire or extend a budget; lint rule R7 fences
//     system_clock out of src/ for exactly this reason),
//   * a CancelToken that any thread may trip to request cooperative
//     cancellation, and
//   * a heartbeat counter bumped on every kernel poll, so a watchdog can
//     distinguish "still grinding" from "hung".
//
// The context is *ambient*: callers install it with ScopedRunContext for the
// duration of a job, and every iteration loop polls it through run_check()
// — the same pattern as the fault-injection hooks, so no kernel signature
// changes. parallel_for snapshots the caller's ambient context and installs
// it on pool workers, which observe cancellation between index items; the
// lowest-index interruption is rethrown on the caller, preserving the
// serial-equivalent first-failure contract. With no context installed,
// run_check() is a single thread-local load — release outputs stay
// bit-identical.
//
// An interrupted job keeps no partial state: every sweep is deterministic
// and cheap next to any snapshot of it (DESIGN.md §17), so the caller simply
// reruns it and gets the uninterrupted output bitwise.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/status.h"

namespace dsmt::core {

/// Shared cancellation flag. Copies observe the same underlying state, so a
/// token handed to a job can be tripped from any other thread.
class CancelToken {
 public:
  CancelToken();

  /// Requests cooperative cancellation: every subsequent kernel poll
  /// observes kCancelled. Idempotent, safe from any thread.
  void request_cancel();
  bool cancel_requested() const;

  /// Chaos/test hook: arms a fuse that trips the token after `checks` more
  /// polls observe it (0 = the very next poll). Used by the soak harness to
  /// cancel at randomized points inside a run.
  void cancel_after_checks(std::uint64_t checks);

  /// One poll: counts down an armed fuse and reports the cancel state.
  bool observe() const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<std::int64_t> fuse{-1};  ///< polls left before trip; <0 = off
  };
  std::shared_ptr<State> state_;
};

/// The resilience context threaded (ambiently) through a long job. Copies
/// share the cancel token and heartbeat counter; the deadline is a plain
/// value.
class RunContext {
 public:
  RunContext();

  /// Context whose deadline is `budget` from now on the monotonic clock.
  static RunContext with_deadline_after(std::chrono::nanoseconds budget);

  void set_deadline(std::chrono::steady_clock::time_point when);
  bool has_deadline() const { return deadline_.has_value(); }
  /// Remaining budget [s]; negative once expired. Requires has_deadline().
  double seconds_remaining() const;

  CancelToken& cancel() { return cancel_; }
  const CancelToken& cancel() const { return cancel_; }

  /// Heartbeat: total kernel polls observed by this run so far. Strictly
  /// increasing while any kernel is making iteration progress.
  std::uint64_t beats() const;

  /// One kernel poll: bumps the heartbeat, then reports kCancelled /
  /// kDeadlineExceeded / kOk. Cancellation wins over an expired deadline.
  StatusCode poll() const;

 private:
  // R10-ok: deadline_ is a plain value configured before the context is
  // shared with workers (parallel_for snapshots a const copy); only the
  // shared state behind the pointers is touched cross-thread.
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  CancelToken cancel_;
  std::shared_ptr<std::atomic<std::uint64_t>> beats_;
};

/// The steady-clock instant `budget_ns` [ns] from now, saturating at the
/// clock's last instant: a budget past the clock's range means "no practical
/// deadline", never an instant that wrapped into the past. Every configured
/// request budget (net, service) becomes a deadline through this one sum.
std::chrono::steady_clock::time_point deadline_after(std::uint64_t budget_ns);

/// The ambient context of the current thread, or nullptr outside any
/// ScopedRunContext. Kernels never call this directly — they use run_check().
const RunContext* current_run_context();

/// RAII installation of a RunContext as the current thread's ambient
/// context; restores the previous one (usually none) on destruction.
class ScopedRunContext {
 public:
  explicit ScopedRunContext(const RunContext& context);
  /// Pointer form for propagation plumbing: nullptr installs nothing.
  explicit ScopedRunContext(const RunContext* context);
  ~ScopedRunContext();
  ScopedRunContext(const ScopedRunContext&) = delete;
  ScopedRunContext& operator=(const ScopedRunContext&) = delete;

 private:
  // R10-ok: a ScopedRunContext lives on one thread's stack and edits that
  // thread's thread_local ambient slot; nothing here is shared.
  const RunContext* prev_ = nullptr;
  bool installed_ = false;  // R10-ok: same — single-thread RAII state
};

/// Kernel poll hook: kOk (and nothing else happens) when no context is
/// installed, otherwise RunContext::poll(). Safe from pool workers.
StatusCode run_check();

/// Poll-and-throw for driver loops: on interruption, throws dsmt::SolveError
/// whose SolverDiag chain records `kernel` with the interruption status.
void throw_if_run_interrupted(const char* kernel);

}  // namespace dsmt::core
