#include "core/status.h"

#include <sstream>
#include <utility>

namespace dsmt::core {

const char* status_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidInput:
      return "invalid-input";
    case StatusCode::kNoBracket:
      return "no-bracket";
    case StatusCode::kMaxIterations:
      return "max-iterations";
    case StatusCode::kNonFinite:
      return "non-finite";
    case StatusCode::kSingularSystem:
      return "singular-system";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kRejectedOverload:
      return "rejected-overload";
    case StatusCode::kWorkerCrashed:
      return "worker-crashed";
  }
  return "unknown";
}

void DiagChain::push_back(DiagEvent ev) {
  if (size_ < kInline) {
    inline_[size_] = std::move(ev);
  } else {
    if (size_ == kInline) {
      // First spill: migrate the inline events so the sequence stays
      // contiguous in one place.
      spill_.reserve(kInline + 2);
      for (auto& e : inline_) spill_.push_back(std::move(e));
    }
    spill_.push_back(std::move(ev));
  }
  ++size_;
}

void DiagChain::prepend(DiagEvent ev) {
  push_back(DiagEvent{});  // grow one slot (may migrate), then shift right
  DiagEvent* d = data();
  for (std::size_t i = size_ - 1; i > 0; --i) d[i] = std::move(d[i - 1]);
  d[0] = std::move(ev);
}

void DiagChain::append(const DiagChain& tail) {
  for (const DiagEvent& ev : tail) push_back(ev);
}

void SolverDiag::record(std::string kernel_name, StatusCode event_status,
                        int iterations_used, double residual_value,
                        std::string note) {
  DiagEvent ev;
  ev.kernel = std::move(kernel_name);
  ev.status = event_status;
  ev.iterations = iterations_used;
  ev.residual = residual_value;
  ev.note = std::move(note);
  if (kernel.empty()) kernel = ev.kernel;
  if (event_status == StatusCode::kOk && status != StatusCode::kOk &&
      !chain.empty())
    recovered = true;
  status = event_status;
  iterations += iterations_used;
  residual = residual_value;
  chain.push_back(std::move(ev));
}

void SolverDiag::add_context(std::string context) {
  DiagEvent ev;
  ev.kernel = std::move(context);
  ev.status = status;
  ev.note = "context";
  chain.prepend(std::move(ev));
}

void SolverDiag::absorb(const SolverDiag& inner, std::string context) {
  DiagEvent frame;
  frame.kernel = std::move(context);
  frame.status = inner.status;
  frame.iterations = inner.iterations;
  frame.residual = inner.residual;
  frame.note = "inner solve";
  chain.push_back(std::move(frame));
  chain.append(inner.chain);
  status = inner.status;
  iterations += inner.iterations;
  residual = inner.residual;
  recovered = recovered || inner.recovered;
}

std::string SolverDiag::to_string() const {
  std::ostringstream os;
  os << (kernel.empty() ? "solve" : kernel) << ": " << status_name(status)
     << " after " << iterations << " iteration(s), residual " << residual;
  if (recovered) os << " (recovered)";
  for (const auto& ev : chain) {
    os << "\n  - " << ev.kernel << ": " << status_name(ev.status) << ", "
       << ev.iterations << " it, residual " << ev.residual;
    if (!ev.note.empty()) os << " [" << ev.note << "]";
  }
  return os.str();
}

}  // namespace dsmt::core

namespace dsmt {

SolveError::SolveError(const std::string& what_prefix,
                       core::SolverDiag diagnostics)
    : std::runtime_error(what_prefix + "\n" + diagnostics.to_string()),
      diag_(std::move(diagnostics)) {}

SolveError SolveError::with_context(const std::string& context) const {
  core::SolverDiag d = diag_;
  d.add_context(context);
  const std::string w = what();
  return SolveError(context + ": " + w.substr(0, w.find('\n')), std::move(d));
}

}  // namespace dsmt
