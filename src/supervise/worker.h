// The supervised worker child: rlimit rails, crash-fault opt-in, and the
// one-request-at-a-time serve loop over the SEQPACKET channel.
//
// Everything here runs in the FORKED CHILD. The loop owns a private
// service::Server (sign-off publication forced off — the parent owns the
// process-wide sign-off slot), reads one request datagram at a time,
// decodes its binary id and canonical key (protocol.h; no JSON), executes
// it, and writes back one reply datagram carrying the status byte and the
// reply frame. A datagram that does not decode gets a typed kInvalidInput
// reply, and the loop keeps serving. Parent closing the channel is the
// clean-shutdown signal: read returns EOF and the loop exits 0. A reply the
// parent will never read (EPIPE after a parent crash) exits nonzero — the
// child must never outlive its supervisor.
#pragma once

#include <cstddef>
#include <cstdint>

#include "numeric/fault_injection.h"
#include "service/server.h"

namespace dsmt::supervise {

/// Per-worker resource rails and chaos arming, applied in the child before
/// the first request is read.
struct WorkerLimits {
  /// RLIMIT_AS cap [bytes] (0 = unlimited): a runaway allocation dies in
  /// the child as bad_alloc -> kRejectedOverload, or by the kCrashOom arm.
  std::uint64_t rlimit_as_bytes = 0;
  /// RLIMIT_CPU cap [s] (0 = unlimited): a runaway compute lane is killed
  /// by the kernel (SIGXCPU/SIGKILL) in the child, never in the parent.
  std::uint64_t rlimit_cpu_seconds = 0;
  /// Crash-chaos plan armed IN THE CHILD ONLY (after allow_crash_faults());
  /// kNone leaves fault injection untouched.
  numeric::fault::FaultPlan child_fault{};
};

/// Child-side entry point: installs `limits`, arms the chaos plan (if any),
/// and serves `channel_fd` until EOF. Returns the child's exit code
/// (0 = clean shutdown on parent close). Never throws.
int run_worker(int channel_fd, service::ServerConfig service_config,
               const WorkerLimits& limits, std::size_t max_payload_bytes);

}  // namespace dsmt::supervise
