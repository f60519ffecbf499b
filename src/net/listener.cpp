#include "net/listener.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "core/status.h"

namespace dsmt::net {

namespace {

/// Pending-connection queue length passed to listen(2). Connection
/// admission (NetConfig::max_connections) is what bounds live clients.
constexpr int kListenBacklog = 64;

[[noreturn]] void listen_error(const std::string& step, int err) {
  core::SolverDiag diag;
  const std::string what =
      "net/listener: " + step + " failed: " + std::strerror(err);
  diag.record("net/listener", core::StatusCode::kInvalidInput, 0, 0.0, what);
  throw SolveError(what, diag);
}

}  // namespace

void Listener::open(const Endpoint& endpoint) {
  stop();

  if (endpoint.kind == Endpoint::Kind::kUnix) {
    if (endpoint.path.empty())
      listen_error("unix endpoint", EINVAL);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (endpoint.path.size() >= sizeof addr.sun_path)
      listen_error("unix path '" + endpoint.path + "'", ENAMETOOLONG);
    std::memcpy(addr.sun_path, endpoint.path.c_str(),
                endpoint.path.size() + 1);

    Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
    if (!fd.valid()) listen_error("socket(AF_UNIX)", errno);
    // A stale path from a crashed predecessor would make bind fail with
    // EADDRINUSE even though nothing is listening; unlink first (a live
    // listener on the path keeps its already-bound inode and is unharmed).
    ::unlink(endpoint.path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0)
      listen_error("bind('" + endpoint.path + "')", errno);
    if (::listen(fd.get(), kListenBacklog) != 0)
      listen_error("listen('" + endpoint.path + "')", errno);
    fd_ = std::move(fd);
    endpoint_ = endpoint;
    bound_port_ = 0;
    unlink_on_stop_ = true;
    return;
  }

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) listen_error("socket(AF_INET)", errno);
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0)
    listen_error("setsockopt(SO_REUSEADDR)", errno);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    listen_error("bind(127.0.0.1:" + std::to_string(endpoint.port) + ")",
                 errno);
  if (::listen(fd.get(), kListenBacklog) != 0)
    listen_error("listen(tcp)", errno);

  sockaddr_in bound;
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0)
    listen_error("getsockname", errno);

  fd_ = std::move(fd);
  endpoint_ = endpoint;
  bound_port_ = ntohs(bound.sin_port);
  unlink_on_stop_ = false;
}

void Listener::stop() {
  if (!fd_.valid()) return;
  fd_.reset();
  if (unlink_on_stop_) ::unlink(endpoint_.path.c_str());
  unlink_on_stop_ = false;
  bound_port_ = 0;
}

}  // namespace dsmt::net
