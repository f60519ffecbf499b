// Load generator: one process, at most two threads, a fixed set of
// connections to the server's Unix-domain socket.
//
// Open loop: request i is due at start + i / rate whatever the server does,
// and its latency runs from that due time, so a stall is charged to every
// request it delays. Sends respect the server's per-connection in-flight cap
// (a refused request would be an error, not a measurement); a request held
// back by it keeps its due time. One thread sends, one receives.
//
// Closed loop: each connection keeps a fixed number of requests in flight
// and sends the next one as soon as a reply lands, until a fixed number of
// requests is done; it measures the highest rate the server sustains. Two
// threads, each owning half the connections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perf {

struct Reply {
  std::int64_t done_ns = 0;  ///< arrival time; 0 = never answered
  std::uint64_t hash = 0;    ///< FNV-1a of the payload
  std::uint32_t size = 0;
  bool id_ok = false;  ///< the payload's id echoes the request's
};

/// Connects to `path` (retrying until `deadline_ns` while the server comes
/// up), sends one ping and waits for its answer. True when answered.
bool ping(const std::string& path, std::int64_t deadline_ns);

struct OpenLoopResult {
  std::int64_t start_ns = 0;   ///< due time of request 0
  std::int64_t period_ns = 0;  ///< due-time spacing
  std::vector<Reply> replies;  ///< by request index
  /// The generator's own lateness per request: when it got to the request
  /// minus the later of its due time and the previous send's end.
  std::vector<double> lag_us;
  std::size_t window_held = 0;  ///< sends delayed by the in-flight cap
  std::string error;            ///< transport failure, empty when none
};

/// Sends frames[i] (DSM1-framed) at its due time over `connections`
/// connections; ids[i] is the id the reply must echo.
OpenLoopResult run_open_loop(const std::string& path,
                             std::span<const std::string> frames,
                             std::span<const std::string> ids, double rate,
                             int connections);

struct ClosedLoopResult {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;         ///< arrival of the last reply
  std::vector<std::size_t> index;  ///< request index of each reply record
  std::vector<Reply> replies;      ///< parallel to `index`
  std::size_t sent = 0;            ///< requests 0 .. sent - 1 went out
  std::string error;
};

/// Sends every frame, keeping `inflight` in flight on each of `connections`
/// connections, and returns once every reply has landed; ids[i] is the id
/// reply i must echo.
ClosedLoopResult run_closed_loop(const std::string& path,
                                 std::span<const std::string> frames,
                                 std::span<const std::string> ids,
                                 int connections, int inflight);

}  // namespace perf
