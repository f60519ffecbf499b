// Unified solver failure taxonomy and diagnostics.
//
// Every iterative kernel in the library (Brent/bisection/Newton root finds,
// conjugate gradients, Picard loops, the electrothermal fixed point) reports
// its outcome through this vocabulary: a StatusCode classifying the failure
// mode and a SolverDiag record accumulating the attempt/recovery chain.
// Public entry points either return a diagnosed result (possibly after a
// recovery stage) or throw dsmt::SolveError carrying the full chain — an
// unconverged number must never escape silently.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dsmt::core {

/// Failure taxonomy shared by every iterative kernel.
enum class StatusCode {
  kOk = 0,          ///< converged within tolerance
  kInvalidInput,    ///< malformed problem (NaN spec, empty system, ...)
  kNoBracket,       ///< root finder could not find a sign change
  kMaxIterations,   ///< iteration budget exhausted before tolerance
  kNonFinite,       ///< NaN/Inf appeared in the iteration
  kSingularSystem,  ///< linear operator is singular / derivative vanished
  kDeadlineExceeded,  ///< the RunContext monotonic deadline passed mid-solve
  kCancelled,         ///< cooperative cancellation was requested mid-solve
  kRejectedOverload,  ///< request shed at admission: queue above high water
  kWorkerCrashed,     ///< isolated worker process died mid-request (signal)
};

/// The highest StatusCode. Codes run densely from kOk, so a decoder that
/// reads a code as an integer range-checks it against this; move it when a
/// code is appended.
inline constexpr StatusCode kLastStatusCode = StatusCode::kWorkerCrashed;

/// Short stable name for a status code ("ok", "no-bracket", ...).
const char* status_name(StatusCode code);

/// True for the run-interruption outcomes (deadline / cancellation). An
/// interrupted kernel is not broken: recovery wrappers must return it as-is
/// instead of burning the remaining budget on retries that cannot help.
constexpr bool is_interruption(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled;
}

/// One step in a solve: the primary attempt, a recovery stage, or a context
/// frame added while the failure propagated outward.
struct DiagEvent {
  std::string kernel;  ///< e.g. "numeric/brent", "numeric/cg"
  StatusCode status = StatusCode::kOk;
  int iterations = 0;
  double residual = 0.0;  ///< final residual in the kernel's own norm [1]
  std::string note;       ///< context ("retry on expanded bracket", ...)
};

/// Sequence of DiagEvent with inline storage for the first event. A clean
/// solve records exactly one, so the common case touches no heap; recovery
/// chains (retries, fallbacks, context frames) spill into a vector. Exposes
/// the subset of std::vector the diag consumers use (iteration, size,
/// indexing, front/back) plus push_back/prepend/append for the recorders.
class DiagChain {
 public:
  using value_type = DiagEvent;
  using iterator = DiagEvent*;
  using const_iterator = const DiagEvent*;

  DiagChain() = default;
  DiagChain(const DiagChain&) = default;
  DiagChain& operator=(const DiagChain&) = default;
  // Moves must zero the source size: the source's spill vector is emptied
  // by the member move, and a stale size would point its begin()/end()
  // past the inline buffer.
  DiagChain(DiagChain&& other) noexcept
      : inline_(std::move(other.inline_)),
        spill_(std::move(other.spill_)),
        size_(other.size_) {
    other.size_ = 0;
  }
  DiagChain& operator=(DiagChain&& other) noexcept {
    if (this != &other) {
      inline_ = std::move(other.inline_);
      spill_ = std::move(other.spill_);
      size_ = other.size_;
      other.size_ = 0;
    }
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  DiagEvent& operator[](std::size_t i) { return data()[i]; }
  const DiagEvent& operator[](std::size_t i) const { return data()[i]; }
  DiagEvent& front() { return data()[0]; }
  const DiagEvent& front() const { return data()[0]; }
  DiagEvent& back() { return data()[size_ - 1]; }
  const DiagEvent& back() const { return data()[size_ - 1]; }

  void push_back(DiagEvent ev);
  /// Inserts at the front (context frames are outermost-first).
  void prepend(DiagEvent ev);
  /// Appends a copy of every event in `tail`, oldest first.
  void append(const DiagChain& tail);

 private:
  static constexpr std::size_t kInline = 1;
  // Invariant: events live in inline_[0..size_) while size_ <= kInline;
  // once size_ exceeds kInline, all of them live in spill_.
  DiagEvent* data() {
    return size_ > kInline ? spill_.data() : inline_.data();
  }
  const DiagEvent* data() const {
    return size_ > kInline ? spill_.data() : inline_.data();
  }

  std::array<DiagEvent, kInline> inline_{};
  std::vector<DiagEvent> spill_;
  std::uint32_t size_ = 0;
};

/// Diagnostic chain for one logical solve. The summary fields mirror the
/// most recent event; `chain` keeps every attempt in order, so a recovered
/// solve shows the failed first attempt followed by the stage that saved it.
struct SolverDiag {
  std::string kernel;  ///< outermost kernel ("eq13/solve", ...)
  StatusCode status = StatusCode::kOk;
  int iterations = 0;      ///< total across all attempts
  double residual = 0.0;   ///< final residual in the last kernel's norm [1]
  bool recovered = false;  ///< a fallback stage was needed and succeeded
  DiagChain chain;         ///< attempts and recoveries, oldest first

  bool ok() const { return status == StatusCode::kOk; }

  /// Appends an event and folds it into the summary fields. A kOk event
  /// recorded after a failed one marks the solve as recovered.
  /// residual_value [1]: final residual in the kernel's own norm.
  void record(std::string kernel_name, StatusCode event_status,
              int iterations_used, double residual_value,
              std::string note = {});

  /// Prepends a context frame (outermost caller first) to the chain.
  void add_context(std::string context);

  /// Merges an inner solve's chain under a context label, adopting its
  /// status/residual as the current outcome.
  void absorb(const SolverDiag& inner, std::string context);

  /// One-line summary plus the chain, for exception messages and logs.
  std::string to_string() const;
};

}  // namespace dsmt::core

namespace dsmt {

/// Thrown when a solve fails after its recovery chain is exhausted. Derives
/// std::runtime_error so legacy catch sites keep working; new call sites
/// catch SolveError and inspect diag() for the full attempt chain.
class SolveError : public std::runtime_error {
 public:
  SolveError(const std::string& what_prefix, core::SolverDiag diagnostics);

  const core::SolverDiag& diag() const { return diag_; }
  core::StatusCode status() const { return diag_.status; }

  /// Copy with an extra outer context frame, for rethrow sites that want
  /// to tag the failure with where it surfaced ("core/engine.check_layer").
  SolveError with_context(const std::string& context) const;

 private:
  core::SolverDiag diag_;
};

}  // namespace dsmt
