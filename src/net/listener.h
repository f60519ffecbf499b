// Listening-socket state machine of the socket front end.
//
// A Listener is a three-state machine:
//
//   kClosed --open()--> kListening --stop()--> kClosed
//                           |
//                           +--drain: the server closes the listener first,
//                              so the OS refuses new connections while
//                              in-flight requests finish.
//
// It binds either a Unix-domain socket (the default transport: filesystem
// permissions are the access control, and no TCP stack sits between the
// chaos tests and the server) or a loopback TCP socket (port 0 = ephemeral,
// bound_port() reports the kernel's choice). The listening fd is always
// non-blocking and close-on-exec; accepting is the server's job
// (socket_io.h accept_connection).
#pragma once

#include <cstdint>
#include <string>

#include "net/socket_io.h"

namespace dsmt::net {

/// Where the server listens.
struct Endpoint {
  enum class Kind { kUnix = 0, kTcp };
  Kind kind = Kind::kUnix;
  /// kUnix: filesystem path of the socket (created on open, unlinked on
  /// close). Must be non-empty for kUnix endpoints.
  std::string path;
  /// kTcp: port to bind on 127.0.0.1 (0 = kernel-assigned ephemeral).
  std::uint16_t port = 0;
};

class Listener {
 public:
  Listener() = default;
  ~Listener() { stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on `endpoint`. Throws dsmt::SolveError
  /// (kInvalidInput) with the failing step and errno text on failure; the
  /// listener stays closed in that case. A stale Unix socket path left by a
  /// crashed predecessor is unlinked before binding.
  void open(const Endpoint& endpoint);

  /// Closes the listening socket (and unlinks a Unix path). Idempotent.
  void stop();

  bool listening() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  const Endpoint& endpoint() const { return endpoint_; }
  /// TCP: the actually bound port (resolves port 0). Unix: 0.
  std::uint16_t bound_port() const { return bound_port_; }

 private:
  // R10-ok: a Listener belongs to the event-loop thread; open()/stop() are
  // never called concurrently with each other or with accepts.
  Fd fd_;
  Endpoint endpoint_;              // R10-ok: event-loop-only (see above)
  std::uint16_t bound_port_ = 0;   // R10-ok: event-loop-only (see above)
  bool unlink_on_stop_ = false;    // R10-ok: event-loop-only (see above)
};

}  // namespace dsmt::net
