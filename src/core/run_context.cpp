#include "core/run_context.h"

namespace dsmt::core {

namespace {
thread_local const RunContext* g_current = nullptr;
}  // namespace

CancelToken::CancelToken() : state_(std::make_shared<State>()) {}

void CancelToken::request_cancel() {
  state_->cancelled.store(true, std::memory_order_relaxed);
}

bool CancelToken::cancel_requested() const {
  return state_->cancelled.load(std::memory_order_relaxed);
}

void CancelToken::cancel_after_checks(std::uint64_t checks) {
  state_->fuse.store(static_cast<std::int64_t>(checks),
                     std::memory_order_relaxed);
}

bool CancelToken::observe() const {
  if (state_->cancelled.load(std::memory_order_relaxed)) return true;
  // An armed fuse counts down one poll at a time; the poll that takes it
  // below zero trips the token. Several threads may race past zero — each
  // sees a distinct previous value, and tripping is idempotent.
  if (state_->fuse.load(std::memory_order_relaxed) >= 0 &&
      state_->fuse.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
    state_->cancelled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

RunContext::RunContext()
    : beats_(std::make_shared<std::atomic<std::uint64_t>>(0)) {}

RunContext RunContext::with_deadline_after(std::chrono::nanoseconds budget) {
  RunContext ctx;
  ctx.set_deadline(std::chrono::steady_clock::now() + budget);
  return ctx;
}

void RunContext::set_deadline(std::chrono::steady_clock::time_point when) {
  deadline_ = when;
}

double RunContext::seconds_remaining() const {
  return std::chrono::duration<double>(*deadline_ -
                                       std::chrono::steady_clock::now())
      .count();
}

std::uint64_t RunContext::beats() const {
  return beats_->load(std::memory_order_relaxed);
}

StatusCode RunContext::poll() const {
  beats_->fetch_add(1, std::memory_order_relaxed);
  if (cancel_.observe()) return StatusCode::kCancelled;
  if (deadline_ && std::chrono::steady_clock::now() >= *deadline_)
    return StatusCode::kDeadlineExceeded;
  return StatusCode::kOk;
}

std::chrono::steady_clock::time_point deadline_after(std::uint64_t budget_ns) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const auto headroom = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::time_point::max() - now);
  if (budget_ns >= static_cast<std::uint64_t>(headroom.count()))
    return Clock::time_point::max();
  return now + std::chrono::nanoseconds(static_cast<std::int64_t>(budget_ns));
}

const RunContext* current_run_context() { return g_current; }

ScopedRunContext::ScopedRunContext(const RunContext& context)
    : prev_(g_current), installed_(true) {
  g_current = &context;
}

ScopedRunContext::ScopedRunContext(const RunContext* context) {
  if (context != nullptr) {
    prev_ = g_current;
    installed_ = true;
    g_current = context;
  }
}

ScopedRunContext::~ScopedRunContext() {
  if (installed_) g_current = prev_;
}

StatusCode run_check() {
  const RunContext* ctx = g_current;
  return ctx == nullptr ? StatusCode::kOk : ctx->poll();
}

void throw_if_run_interrupted(const char* kernel) {
  const StatusCode rc = run_check();
  if (rc == StatusCode::kOk) return;
  SolverDiag diag;
  diag.record(kernel, rc, 0, 0.0,
              rc == StatusCode::kCancelled
                  ? "cooperative cancellation observed"
                  : "monotonic deadline exceeded");
  throw SolveError(std::string(kernel) + ": run interrupted (" +
                       status_name(rc) + ")",
                   diag);
}

}  // namespace dsmt::core
