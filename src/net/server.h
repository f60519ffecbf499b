// Multi-worker socket front end: a transport that answers every solve
// request through one handler.
//
// One net::Server is one event loop (the thread that calls run()) plus the
// process-global bounded thread pool as its worker fleet:
//
//   event loop (run() caller)          pool workers (parallel::pool_submit)
//   ──────────────────────────         ─────────────────────────────────────
//   poll listener + connections        per request:
//   accept / admission control           install RunContext (merged budget:
//   parse frames, assign seqs            request deadline ∩ eviction budget,
//   inline replies (ping, errors)        drain cancel token)
//   dispatch solve requests ───────►     config.handler(request, seq)
//   apply completion queue ◄───────      push reply frame, wake self-pipe
//   flush outbound, reap, drain
//
// The handler is the backend: dsmt_serve wires it to an in-process
// service::Server or to a supervise::WorkerPool. The server itself knows
// neither. Every reply it builds on its own (rejections, protocol errors,
// evictions, escaped exceptions) comes from service::failure_response and
// net::response_frame, like the backend's replies.
//
// Threading contract: Listener and every Connection are event-loop-only.
// Workers share exactly three things with the loop, each with its own
// discipline — the mutex-guarded completion queue, the atomic outstanding
// counter, and the self-pipe write end (owned by a shared_ptr core that
// outlives every worker, so a late completion can never touch a dead
// server). run() does not return while any dispatched request is still
// running, even on the forced-drain and exception paths.
//
// Admission is layered, and every rejection is a well-formed error frame —
// never a silent drop:
//   * connection admission: accepts beyond max_connections get one
//     kRejectedOverload frame and an immediate close (distinct from any
//     admission inside the handler);
//   * in-flight caps: a parsed request over max_inflight_per_connection or
//     max_inflight_total is answered kRejectedOverload inline;
//   * protocol violations (bad magic, oversized frame, truncated frame) are
//     answered kInvalidInput, then the connection flushes and closes;
//     malformed JSON inside a well-framed payload is answered kInvalidInput
//     and the connection stays open (framing is intact).
//
// The reaper runs on logical ticks derived from elapsed monotonic time
// (tick = elapsed / tick_ms), so a slow-loris client trickling one byte per
// tick still exhausts its frame budget. Evictions (idle, stalled mid-frame,
// or unread replies) get a best-effort kDeadlineExceeded frame, then close.
//
// Graceful drain (request_drain(), any thread or signal context): stop
// accepting, stop reading, let in-flight work finish inside
// drain_timeout_ticks (after which the shared cancel token trips), flush,
// and return final NetStats with drained_clean telling the two endings
// apart. install_signal_drain() wires SIGTERM/SIGINT to exactly this via an
// async-signal-safe self-pipe wake.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/run_context.h"
#include "core/thread_annotations.h"
#include "net/connection.h"
#include "net/listener.h"
#include "net/socket_io.h"
#include "report/json.h"
#include "service/request.h"

namespace dsmt::net {

struct NetConfig {
  Endpoint endpoint;
  /// Connection admission: live sockets beyond this are rejected with one
  /// kRejectedOverload frame and closed.
  std::size_t max_connections = 64;
  /// Hard frame-size cap [bytes]; a larger declared length is kInvalidInput.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-connection in-flight solve cap; excess requests get
  /// kRejectedOverload inline.
  std::size_t max_inflight_per_connection = 16;
  /// Server-wide in-flight solve cap. Keep below the pool's queue high
  /// water (parallel::queue_high_water) so dispatch never blocks the loop.
  std::size_t max_inflight_total = 128;
  /// Logical tick length [ms], at least 1 (the constructor refuses less):
  /// poll granularity and the reaper time base.
  int tick_ms = 50;
  /// Ticks a connection may sit idle, stall mid-frame, or leave replies
  /// unread before eviction (kDeadlineExceeded).
  std::uint64_t idle_timeout_ticks = 200;
  /// Ticks a drain waits for in-flight work before tripping the shared
  /// cancel token and force-closing.
  std::uint64_t drain_timeout_ticks = 100;
  /// Per-request deadline [ns] merged (min) with the eviction budget into
  /// the worker's RunContext (0 = eviction budget only).
  std::uint64_t request_deadline_ns = 0;
  /// Required: returns the COMPLETE reply frame for (request, seq), where
  /// seq is the request's position on its connection. Runs on pool worker
  /// threads under a RunContext carrying the merged request budget and the
  /// drain cancel token. It must answer per-request failures with a typed
  /// frame; an exception that escapes is still answered, as overload
  /// (std::bad_alloc) or as an internal error.
  std::function<std::string(const service::Request&, std::uint64_t)> handler;
  /// When set, every member of the object it returns is appended to each
  /// ping reply after the server's own (the backend's health: a solve
  /// cache, a worker fleet). Event-loop thread only.
  std::function<report::Json()> health_source;
};

/// Event-loop counters, returned by run() as the final snapshot.
struct NetStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_connections = 0;  ///< connection-admission rejects
  std::uint64_t frames_in = 0;             ///< complete frames parsed
  std::uint64_t replies_sent = 0;          ///< reply frames fully flushed...
  std::uint64_t pings = 0;
  std::uint64_t dispatched = 0;          ///< solve requests handed to pool
  std::uint64_t rejected_inflight = 0;   ///< in-flight-cap rejects
  std::uint64_t invalid_requests = 0;    ///< bad JSON / bad request fields
  std::uint64_t protocol_errors = 0;     ///< bad magic/oversize/truncation
  std::uint64_t evicted_idle = 0;
  std::uint64_t evicted_midframe = 0;    ///< slow-loris frame-budget kills
  std::uint64_t evicted_stalled = 0;     ///< unread-reply write stalls
  std::uint64_t resets = 0;              ///< peers that vanished uncleanly
  std::uint64_t replies_dropped = 0;     ///< completions for dead sockets
  bool drained_clean = false;  ///< drain finished inside its tick budget
};

class Server {
 public:
  /// Throws std::invalid_argument when config.handler is empty or
  /// config.tick_ms < 1, and dsmt::SolveError (kInvalidInput) when the
  /// self-pipe cannot be made.
  explicit Server(NetConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener (idempotent). Call before run() when the test or
  /// tool needs bound_port() / the socket path to exist first. Throws
  /// dsmt::SolveError (kInvalidInput) on bind failure.
  void open();

  /// Runs the event loop on the calling thread until a drain completes.
  /// Returns the final counter snapshot; does not return while any
  /// dispatched request is still executing.
  NetStats run();

  /// Requests a graceful drain. Safe from any thread and from signal
  /// handlers (atomic flag + self-pipe wake).
  void request_drain();

  /// Routes SIGTERM and SIGINT to request_drain() for this server (one
  /// server per process may hold the signal hook; the previous handlers are
  /// restored by the destructor).
  void install_signal_drain();

  std::uint16_t bound_port() const { return listener_.bound_port(); }
  const NetConfig& config() const { return config_; }

 private:
  /// One finished request: the encoded reply frame headed back to its
  /// connection through the completion queue.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string frame;
  };

  /// State shared with pool workers; owned by shared_ptr so a worker that
  /// outlives run() (or even the Server) touches only this block.
  struct Shared {
    Mutex mu;
    std::vector<Completion> completions DSMT_GUARDED_BY(mu);
    /// Dispatched requests whose worker has not finished its hand-off yet.
    std::atomic<std::size_t> outstanding{0};
    /// Self-pipe write end; read end stays with the Server.
    Fd wake_fd;  // R10-ok: set before any worker exists, then read-only
  };

  void begin_drain();
  void force_drain();
  void apply_completions();
  void dispatch_frame(Connection& conn, const std::string& payload);
  void dispatch_request(Connection& conn, std::uint64_t seq,
                        const service::Request& request);
  void handle_read_event(Connection& conn, ReadEvent event);
  void reap(std::uint64_t now_tick);
  void evict(Connection& conn, std::uint64_t& counter, const char* why);
  void accept_ready();
  std::string ping_reply_frame(std::string id);
  std::uint64_t now_tick() const;

  const NetConfig config_;
  Listener listener_;  // R10-ok: event-loop-only (threading contract above)
  std::shared_ptr<Shared> shared_;
  Fd wake_read_;  // R10-ok: event-loop-only (threading contract above)
  std::atomic<bool> drain_requested_{false};
  // Everything below is event-loop-only state (see the threading contract
  // in the header comment): mutated exclusively inside run().
  // R10-ok: event-loop-only (above)
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;  // R10-ok: event-loop-only (above)
  NetStats stats_;                  // R10-ok: event-loop-only (above)
  bool draining_ = false;           // R10-ok: event-loop-only (above)
  bool forced_ = false;             // R10-ok: event-loop-only (above)
  std::uint64_t drain_start_tick_ = 0;  // R10-ok: event-loop-only (above)
  std::chrono::steady_clock::time_point epoch_;  // R10-ok: event-loop-only
  core::CancelToken drain_cancel_;  ///< shared with every worker RunContext
  bool signal_hook_installed_ = false;  // R10-ok: event-loop-only (above)
};

}  // namespace dsmt::net
