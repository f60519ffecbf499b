// Fault-tolerant in-process request service over the self-consistent solver.
//
// The Server is the hardened front end a full-chip caller (an EM/IR-drop
// engine firing thousands of per-wire queries) talks to. One batch in, one
// structured response per request out — ALWAYS:
//
//   admission   The batch is a burst against a bounded queue of
//               `queue_capacity` slots. Admission is decided serially in
//               index order before any parallel work, so the decision is a
//               pure function of the batch — requests that do not fit are
//               shed with kRejectedOverload (explicit load-shedding, never
//               unbounded buffering).
//   deadline    Each admitted request runs under a RunContext whose
//               monotonic budget is `deadline_ns` (0 = none), merged with
//               any tighter ambient deadline of the caller.
//   cache       With a solve cache attached, one lookup: a verified hit
//               replays the cold reply's exact bytes and skips the solve.
//   solve       A request the cache does not answer gets exactly one full
//               solve. The solve is pure, so running it again cannot
//               change a failure, and a failure says nothing about any
//               other request.
//   degradation Full quasi-2D solve -> analytic quasi-1D bound
//               (degrade.h). Degraded responses carry degradation_level
//               and conservative = true.
//
// Server::execute is the solve cache's only reader and writer: it publishes
// each canonical solve after answering it. Two concurrent misses on one key
// each solve; their bytes are identical and the second publish appends
// nothing. The cache is the only state requests share, and its hits are
// byte-identical to cold solves, so a reply depends only on its own request.
//
// Responses never escape as exceptions: every request — malformed, shed,
// failed, degraded — yields exactly one terminal Response. With fault
// injection disarmed the full batch output is bit-identical for every
// DSMT_THREADS value (admission is serial, the solve is deterministic, and
// replies are index-addressed).
//
// A batch is served in chunks of kBatchChunk requests: admission decides
// the whole burst first, then each chunk is solved in parallel and handed
// to a sink in index order, so a caller that writes each chunk out holds
// one chunk of replies at a time (write_batch_document).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/solve_cache.h"
#include "report/json.h"
#include "service/degrade.h"
#include "service/request.h"

namespace dsmt::service {

struct ServerConfig {
  /// Bounded admission queue: per-burst slots before shedding starts (0
  /// sheds every request of a burst).
  std::size_t queue_capacity = 256;
  /// Per-request deadline budget [ns] (0 = none). Merged with any tighter
  /// ambient deadline already installed by the caller.
  std::uint64_t deadline_ns = 0;
  /// Publish this server's service_json() under the sign-off "service" key
  /// (core/signoff.h) for the server's lifetime.
  bool publish_signoff = true;
  /// Content-addressed solve cache above ladder rung 0 (cache/solve_cache.h):
  /// verified hits replay the cold path's exact reply bytes, canonical
  /// solves are published. Null = no cache.
  std::shared_ptr<cache::SolveCache> solve_cache;
};

/// Monotonic counters since construction (snapshot).
struct ServerMetrics {
  std::uint64_t received = 0;   ///< requests seen at admission
  std::uint64_t admitted = 0;   ///< entered the bounded queue
  std::uint64_t shed = 0;       ///< kRejectedOverload at admission
  std::uint64_t ok_full = 0;    ///< answered by the full quasi-2D solve
  std::uint64_t ok_analytic = 0;  ///< answered by ladder rung 2
  std::uint64_t failed = 0;     ///< terminal non-kOk responses
};

/// Requests solved per parallel region of a batch: the replies a batch
/// holds at once. Large enough that the join at each chunk's end is noise
/// next to the chunk's solves, small enough that a chunk's replies and
/// their bytes stay a few MiB.
inline constexpr std::size_t kBatchChunk = 4096;

/// Receives consecutive replies of a batch, in index order.
using ReplySink = std::function<void(std::span<Response> replies)>;

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one burst: exactly one terminal Response per request, handed
  /// to `sink` in request order, at most kBatchChunk at a time. Admission
  /// covers the whole burst before any solve. Never throws for
  /// per-request failures. A caller-context interruption (deadline or
  /// cancel) propagates only after every remaining request has reached the
  /// sink, stamped with that interruption status (shed ones keep their
  /// shed reply). An exception from the sink propagates at once.
  void serve_batch(const std::vector<Request>& batch, const ReplySink& sink);

  /// serve_batch with a sink that collects every reply, in request order.
  std::vector<Response> submit_batch(const std::vector<Request>& batch);

  /// Serves one request, bypassing admission (it always "fits"). `index`
  /// is unused; it stays so existing callers keep compiling.
  Response handle(const Request& request, std::size_t index = 0);

  ServerMetrics metrics() const;
  const ServerConfig& config() const { return config_; }

  /// The sign-off "service" section: admission/outcome counters, and the
  /// solve cache's counters when one is attached.
  report::Json service_json() const;

 private:
  Response execute(const Request& request);
  Response guarded_execute(const Request& request);

  const ServerConfig config_;
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> ok_full_{0};
  std::atomic<std::uint64_t> ok_analytic_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// Serves `batch` on `server` and writes the batch document
///   {"responses": [...one reply per request...], "service": {...}}
/// at `indent`: the bytes a report::Json tree of that document dumps to,
/// with server.service_json() taken after the last reply. The bytes go to
/// `emit` in pieces, one per chunk of replies, so no tree and no whole
/// document is ever held; a chunk's replies are encoded in parallel and
/// appended in index order. Returns how many replies carry a failure status.
/// An exception (from `emit`, or a batch interruption) leaves the
/// document unfinished.
std::size_t write_batch_document(
    Server& server, const std::vector<Request>& batch, int indent,
    const std::function<void(std::string_view bytes)>& emit);

}  // namespace dsmt::service
