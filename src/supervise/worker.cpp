#include "supervise/worker.h"

#include <sys/resource.h>

#include <new>
#include <string>
#include <vector>

#include "core/status.h"
#include "net/socket_io.h"
#include "supervise/protocol.h"

namespace dsmt::supervise {

namespace {

/// Installs one soft+hard rlimit rail; failure is fatal for the child (a
/// worker that cannot honor its rails must not serve).
bool apply_rlimit(int resource, std::uint64_t value) {
  if (value == 0) return true;
  struct rlimit rl;
  rl.rlim_cur = static_cast<rlim_t>(value);
  rl.rlim_max = static_cast<rlim_t>(value);
  return ::setrlimit(resource, &rl) == 0;
}

/// Diag kernel of every reply the worker builds itself.
constexpr const char* kWhere = "supervise/worker";

}  // namespace

int run_worker(int channel_fd, service::ServerConfig service_config,
               const WorkerLimits& limits, std::size_t max_payload_bytes) {
  // The parent owns the process-wide sign-off slot; a child that registered
  // into it would fight its siblings and dangle after exit.
  service_config.publish_signoff = false;

  if (!apply_rlimit(RLIMIT_AS, limits.rlimit_as_bytes) ||
      !apply_rlimit(RLIMIT_CPU, limits.rlimit_cpu_seconds))
    return 3;

  if (limits.child_fault.kind != numeric::fault::FaultKind::kNone) {
    // Crash faults stay inert without this per-process opt-in, so arming
    // the same plan in the parent (operator error) cannot kill the front
    // end — only forked workers ever die by it.
    numeric::fault::allow_crash_faults();
    numeric::fault::arm(limits.child_fault);
  }

  try {
    service::Server server(service_config);
    std::vector<char> buffer(kMessageOverheadBytes + max_payload_bytes);
    for (;;) {
      const net::IoResult r =
          net::read_some(channel_fd, buffer.data(), buffer.size());
      if (r.n == 0) return 0;  // parent closed the channel: clean shutdown
      if (r.n < 0) {
        if (r.would_block()) continue;
        return r.reset() ? 0 : 3;
      }

      std::uint64_t seq = 0;
      service::Request request;
      service::Response response;
      if (!decode_request_message(buffer.data(),
                                  static_cast<std::size_t>(r.n), seq,
                                  request)) {
        response = service::failure_response(
            "", core::StatusCode::kInvalidInput, kWhere,
            "malformed supervision datagram");
      } else {
        // Chaos hook: poison requests die HERE, in the child, by the armed
        // crash mechanism — the containment the supervisor exists to
        // prove.
        numeric::fault::crash_point("supervise/worker", request.id);
        try {
          response = server.handle(request);
        } catch (const std::bad_alloc&) {
          response = service::failure_response(
              request, core::StatusCode::kRejectedOverload, kWhere,
              "allocation failure in worker: request shed");
        } catch (const std::exception& e) {
          response = service::failure_response(
              request, core::StatusCode::kInvalidInput, kWhere,
              std::string("worker error: ") + e.what());
        }
      }

      std::string reply;
      try {
        const std::size_t message_cap =
            kMessageOverheadBytes + max_payload_bytes;
        reply = encode_response_message(seq, response);
        if (reply.size() > message_cap) {
          // Elide ONLY the diag chain: the status and the numeric results
          // the client asked for are kept — a successful solve must not
          // turn into a hollow kOk with no temperatures just because its
          // diagnostics grew.
          service::Response elided = response;
          elided.diag = core::SolverDiag{};
          elided.diag.record("supervise/worker", response.status,
                             response.diag.iterations,
                             response.diag.residual,
                             "diag chain elided: full reply exceeds the "
                             "supervision datagram cap");
          reply = encode_response_message(seq, elided);
          if (reply.size() > message_cap) {
            // Still over — only a pathological id can do this. Nothing
            // meaningful fits, so the status must say failure rather than
            // a success with every result field dropped.
            request.id = request.id.substr(0, 128);
            reply = encode_response_message(
                seq, service::failure_response(
                         request, core::StatusCode::kInvalidInput, kWhere,
                         "response exceeds the supervision datagram cap"));
          }
        }
      } catch (const std::exception& e) {
        reply = encode_response_message(
            seq, service::failure_response(
                     request, core::StatusCode::kInvalidInput, kWhere,
                     std::string("response encoding failed: ") + e.what()));
      }
      if (send_message(channel_fd, reply) != 0)
        return 4;  // parent vanished mid-reply: nothing left to serve
    }
  } catch (const std::bad_alloc&) {
    return 5;  // construction/loop allocation failure under the AS rail
  } catch (...) {
    return 6;
  }
}

}  // namespace dsmt::supervise
