#include "supervise/broker.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <thread>
#include <utility>
#include <vector>

#include "supervise/protocol.h"

namespace dsmt::supervise {

namespace {

// Fixed-size, host-endian control messages: both ends share one process
// image (fork, no exec), so no portability framing is needed, and SEQPACKET
// delivers each struct whole or not at all.
struct BrokerCommand {
  char op = 0;  ///< 'F' spawn, 'R' blocking reap, 'W' WNOHANG reap probe
  ::pid_t pid = -1;
};

struct SpawnReply {
  ::pid_t pid = -1;  ///< > 0: success, channel fd rides along as SCM_RIGHTS
};

struct ReapReply {
  int reaped = 0;
  int signal = 0;
  int exit_code = -1;
  long maxrss_kb = 0;
};

/// The broker child's whole life: serve spawn/reap commands until the
/// control channel EOFs, then kill and reap every worker not yet collected.
/// Single-threaded by construction, so its forks are always safe.
int broker_main(net::Fd control, const service::ServerConfig& service,
                const WorkerLimits& limits, std::size_t payload_cap) {
  const std::size_t message_cap = kMessageOverheadBytes + payload_cap;
  std::vector<::pid_t> live;
  for (;;) {
    BrokerCommand cmd;
    int stray_fd = -1;
    const net::IoResult r =
        net::recv_with_fd(control.get(), reinterpret_cast<char*>(&cmd),
                          sizeof cmd, stray_fd);
    net::Fd stray(stray_fd);  // nothing legitimate sends us an fd: drop it
    if (r.n <= 0) break;      // EOF or broken channel: the pool is gone
    if (r.n != sizeof cmd) continue;

    if (cmd.op == 'F') {
      SpawnReply reply;
      net::Fd parent_end;
      net::Fd child_end;
      int sv[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, sv) == 0) {
        parent_end.reset(sv[0]);
        child_end.reset(sv[1]);
        // Both directions must be able to carry one whole message, or a
        // legal datagram would die with EMSGSIZE mid-protocol.
        (void)net::tune_datagram_capacity(parent_end.get(), message_cap);
        (void)net::tune_datagram_capacity(child_end.get(), message_cap);
        const ::pid_t pid = ::fork();
        if (pid == 0) {
          // WORKER. Close the inherited broker state so channel EOFs keep
          // their one-owner meaning (the pool's EOF on parent_end must mean
          // THIS worker died, not that a stray copy lingers). Never unwind
          // back into broker code.
          control.reset();
          parent_end.reset();
          ::_exit(run_worker(child_end.get(), service, limits, payload_cap));
        }
        if (pid > 0) {
          child_end.reset();  // only the worker holds sv[1] from here on
          live.push_back(pid);
          reply.pid = pid;
        }
      }
      (void)net::send_with_fd(control.get(),
                              reinterpret_cast<const char*>(&reply),
                              sizeof reply,
                              reply.pid > 0 ? parent_end.get() : -1);
      // parent_end closes here: after the SCM_RIGHTS transfer the pool owns
      // the only live copy.
    } else if (cmd.op == 'R' || cmd.op == 'W') {
      ReapReply reply;
      int status = 0;
      struct rusage ru {};
      for (;;) {
        const ::pid_t got =
            ::wait4(cmd.pid, &status, cmd.op == 'W' ? WNOHANG : 0, &ru);
        if (got == cmd.pid) {
          reply.reaped = 1;
          reply.signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
          reply.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
          reply.maxrss_kb = ru.ru_maxrss;
          break;
        }
        if (got < 0 && errno == EINTR) continue;
        break;  // WNOHANG still-running, or ECHILD: nothing to report
      }
      if (reply.reaped != 0)
        for (auto it = live.begin(); it != live.end(); ++it)
          if (*it == cmd.pid) {
            live.erase(it);
            break;
          }
      (void)net::send_with_fd(control.get(),
                              reinterpret_cast<const char*>(&reply),
                              sizeof reply, -1);
    }
  }

  // Teardown: no worker outlives the supervisor, reaped or not.
  for (const ::pid_t pid : live) (void)::kill(pid, SIGKILL);
  for (const ::pid_t pid : live)
    for (;;) {
      int status = 0;
      const ::pid_t got = ::waitpid(pid, &status, 0);
      if (got == pid || (got < 0 && errno != EINTR)) break;
    }
  return 0;
}

}  // namespace

ForkBroker::ForkBroker(service::ServerConfig service, WorkerLimits limits,
                       std::size_t payload_cap) {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, sv) != 0)
    return;  // !ok(): every spawn will fail typed, nothing hangs
  net::Fd ours;
  net::Fd theirs;
  ours.reset(sv[0]);
  theirs.reset(sv[1]);
  const ::pid_t pid = ::fork();
  if (pid < 0) return;
  if (pid == 0) {
    // BROKER CHILD: single-threaded forever. _exit keeps it from unwinding
    // into destructors of pool state it merely inherited.
    ours.reset();
    ::_exit(broker_main(std::move(theirs), service, limits, payload_cap));
  }
  theirs.reset();
  MutexLock lock(mu_);
  channel_ = std::move(ours);
  broker_pid_ = pid;
}

ForkBroker::~ForkBroker() { shutdown(); }

bool ForkBroker::ok() const {
  MutexLock lock(mu_);
  return channel_.valid();
}

bool ForkBroker::spawn(net::Fd& channel, ::pid_t& pid) {
  MutexLock lock(mu_);
  if (!channel_.valid()) return false;
  const BrokerCommand cmd{'F', -1};
  const net::IoResult sent = net::send_with_fd(
      channel_.get(), reinterpret_cast<const char*>(&cmd), sizeof cmd, -1);
  if (sent.n != static_cast<long>(sizeof cmd)) {
    channel_.reset();  // broker gone: fail every later call fast
    return false;
  }
  SpawnReply reply;
  int fd = -1;
  const net::IoResult got = net::recv_with_fd(
      channel_.get(), reinterpret_cast<char*>(&reply), sizeof reply, fd);
  net::Fd received(fd);
  if (got.n != static_cast<long>(sizeof reply)) {
    channel_.reset();
    return false;
  }
  if (reply.pid <= 0 || !received.valid()) return false;
  channel = std::move(received);
  pid = reply.pid;
  return true;
}

bool ForkBroker::reap(::pid_t pid, bool blocking, WorkerDeath& death) {
  MutexLock lock(mu_);
  death = WorkerDeath{};
  if (!channel_.valid()) return false;
  const BrokerCommand cmd{blocking ? 'R' : 'W', pid};
  const net::IoResult sent = net::send_with_fd(
      channel_.get(), reinterpret_cast<const char*>(&cmd), sizeof cmd, -1);
  if (sent.n != static_cast<long>(sizeof cmd)) {
    channel_.reset();
    return false;
  }
  ReapReply reply;
  int stray_fd = -1;
  const net::IoResult got = net::recv_with_fd(
      channel_.get(), reinterpret_cast<char*>(&reply), sizeof reply,
      stray_fd);
  net::Fd stray(stray_fd);
  if (got.n != static_cast<long>(sizeof reply)) {
    channel_.reset();
    return false;
  }
  death.reaped = reply.reaped != 0;
  death.signal = reply.signal;
  death.exit_code = reply.exit_code;
  death.maxrss_kb = reply.maxrss_kb;
  return true;
}

bool ForkBroker::reap_blocking(::pid_t pid, WorkerDeath& death) {
  return reap(pid, /*blocking=*/true, death);
}

bool ForkBroker::reap_poll(::pid_t pid, WorkerDeath& death) {
  return reap(pid, /*blocking=*/false, death);
}

void ForkBroker::shutdown() {
  ::pid_t pid = -1;
  {
    MutexLock lock(mu_);
    channel_.reset();  // EOF is the broker's shutdown signal
    pid = broker_pid_;
    broker_pid_ = -1;
  }
  if (pid <= 0) return;
  // Bounded cooperative wait (~2 s): the broker's teardown is trivial when
  // the pool reaped all workers first, so this normally returns on the
  // first probe. A wedged broker is SIGKILLed — its workers got SIGKILL
  // from the pool already or will die on their channels' EOF.
  for (int tick = 0; tick < 200; ++tick) {
    int status = 0;
    const ::pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno != EINTR)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (void)::kill(pid, SIGKILL);
  for (;;) {
    int status = 0;
    const ::pid_t got = ::waitpid(pid, &status, 0);
    if (got == pid || (got < 0 && errno != EINTR)) break;
  }
}

}  // namespace dsmt::supervise
