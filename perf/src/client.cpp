#include "client.h"

#include <errno.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "expect.h"
#include "metrics.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "net/wire.h"
#include "proc.h"

namespace perf {

namespace {

// No reply for this long while one is owed: the rest are lost.
constexpr std::int64_t kReplyTimeoutNs = 10'000'000'000;

// The server's per-connection in-flight cap: a request over it would be
// refused, so the open loop holds it back instead.
const std::size_t kServerWindow =
    dsmt::net::NetConfig{}.max_inflight_per_connection;

/// Blocking client end of one Unix-domain stream connection.
class Socket {
 public:
  bool connect(const std::string& path) {
    fd_.reset(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd_.valid()) return false;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (;;) {
      if (::connect(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0)
        return true;
      if (errno != EINTR) return false;
    }
  }

  int fd() const { return fd_.get(); }

  bool send_all(const std::string& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const dsmt::net::IoResult r = dsmt::net::write_some(
          fd_.get(), bytes.data() + sent, bytes.size() - sent);
      if (r.n <= 0) return false;
      sent += static_cast<std::size_t>(r.n);
    }
    return true;
  }

 private:
  dsmt::net::Fd fd_;
};

/// Reads what one connection has ready (call it after poll reported the
/// socket readable) and hands each complete reply frame to `on_frame`.
/// False on EOF, a socket error or a framing error.
template <typename OnFrame>
bool pump(int fd, dsmt::net::FrameDecoder& decoder, OnFrame&& on_frame) {
  char buf[1 << 16];
  const dsmt::net::IoResult r = dsmt::net::read_some(fd, buf, sizeof buf);
  if (r.n == 0) return false;
  if (r.n < 0) return r.would_block();
  decoder.append(buf, static_cast<std::size_t>(r.n));
  const std::int64_t now = now_ns();
  std::string payload;
  for (;;) {
    const dsmt::net::FrameStatus status = decoder.next(payload);
    if (status == dsmt::net::FrameStatus::kNeedMore) return true;
    if (status != dsmt::net::FrameStatus::kFrame) return false;
    on_frame(payload, now);
  }
}

Reply make_reply(const std::string& payload, const std::string& id,
                 std::int64_t now) {
  Reply r;
  r.done_ns = now;
  r.hash = payload_hash(payload);
  r.size = static_cast<std::uint32_t>(payload.size());
  const std::string prefix = "{\"id\":\"" + id + "\"";
  r.id_ok = payload.compare(0, prefix.size(), prefix) == 0;
  return r;
}

void sleep_until(std::int64_t t_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Single-producer single-consumer FIFO of in-flight request indices for
/// one connection; its occupancy is the connection's in-flight count.
struct Ring {
  std::array<std::uint32_t, 64> slots{};
  std::atomic<std::uint32_t> head{0};  ///< written by the sender
  std::atomic<std::uint32_t> tail{0};  ///< written by the receiver

  std::size_t occupancy() const {
    return head.load(std::memory_order_acquire) -
           tail.load(std::memory_order_acquire);
  }
  void push(std::uint32_t v) {
    const std::uint32_t h = head.load(std::memory_order_relaxed);
    slots[h % slots.size()] = v;
    head.store(h + 1, std::memory_order_release);
  }
  bool pop(std::uint32_t& v) {
    const std::uint32_t t = tail.load(std::memory_order_relaxed);
    if (t == head.load(std::memory_order_acquire)) return false;
    v = slots[t % slots.size()];
    tail.store(t + 1, std::memory_order_release);
    return true;
  }
};

}  // namespace

bool ping(const std::string& path, std::int64_t deadline_ns) {
  for (;;) {
    Socket sock;
    if (sock.connect(path)) {
      if (!sock.send_all(
              dsmt::net::encode_frame("{\"id\":\"ping\",\"kind\":\"ping\"}")))
        return false;
      dsmt::net::FrameDecoder decoder;
      bool answered = false;
      pollfd pfd{sock.fd(), POLLIN, 0};
      while (!answered && now_ns() < deadline_ns) {
        if (dsmt::net::poll_wait(&pfd, 1, 10) <= 0) continue;
        if (!pump(sock.fd(), decoder,
                  [&](const std::string&, std::int64_t) { answered = true; }))
          return false;
      }
      return answered;
    }
    if (now_ns() >= deadline_ns) return false;
    // The server has not bound its socket yet.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

OpenLoopResult run_open_loop(const std::string& path,
                             std::span<const std::string> frames,
                             std::span<const std::string> ids, double rate,
                             int connections) {
  OpenLoopResult out;
  const std::size_t n = frames.size();
  out.replies.assign(n, Reply{});
  out.lag_us.assign(n, 0.0);
  const std::size_t conns = static_cast<std::size_t>(connections);
  std::vector<Socket> socks(conns);
  for (Socket& s : socks) {
    if (!s.connect(path)) {
      out.error = "connect failed";
      return out;
    }
  }
  std::unique_ptr<Ring[]> rings(new Ring[conns]);
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> receiver_failed{false};
  std::string receiver_error;  // written before receiver_failed is set
  out.period_ns = std::llround(1e9 / rate);
  out.start_ns = now_ns() + 2'000'000;

  std::thread receiver([&] {
    pin_to_client();
    const auto give_up = [&](const char* why) {
      receiver_error = why;
      receiver_failed.store(true, std::memory_order_release);
    };
    std::vector<dsmt::net::FrameDecoder> decoders(conns);
    std::vector<pollfd> pfds;
    for (const Socket& s : socks) pfds.push_back({s.fd(), POLLIN, 0});
    std::size_t received = 0;
    std::int64_t last_progress = now_ns();
    for (;;) {
      const bool done_sending = sender_done.load(std::memory_order_acquire);
      const bool owed = sent.load(std::memory_order_acquire) > received;
      if (done_sending && !owed) break;
      // A wedged server that keeps its sockets open also holds the sender
      // at the in-flight cap: the receiver gives up for both.
      if (!owed) {
        last_progress = now_ns();
      } else if (now_ns() - last_progress > kReplyTimeoutNs) {
        give_up("replies lost");
        return;
      }
      if (dsmt::net::poll_wait(pfds.data(), pfds.size(), 10) <= 0) continue;
      for (std::size_t c = 0; c < conns; ++c) {
        if (pfds[c].revents == 0) continue;
        bool orphan = false;
        const bool ok = pump(
            pfds[c].fd, decoders[c],
            [&](const std::string& payload, std::int64_t now) {
              std::uint32_t i = 0;
              if (!rings[c].pop(i)) {
                orphan = true;
                return;
              }
              out.replies[i] = make_reply(payload, ids[i], now);
              ++received;
              last_progress = now;
            });
        if (!ok || orphan) {
          give_up("connection closed or reply without request");
          return;
        }
      }
    }
  });

  std::thread sender([&] {
    pin_to_client();
    // Timer slack 1 ns: the default 50 us slack would be reported as lag.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::size_t next_conn = 0;
    // When the previous request left the sender: time spent before that,
    // held by the in-flight cap or a full socket, is the server's delay.
    std::int64_t free_ns = out.start_ns;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due =
          out.start_ns + static_cast<std::int64_t>(i) * out.period_ns;
      if (now_ns() < due) sleep_until(due);
      out.lag_us[i] =
          static_cast<double>(now_ns() - std::max(due, free_ns)) / 1e3;
      std::size_t c = conns;
      for (bool held = false;; held = true) {
        for (std::size_t k = 0; k < conns; ++k) {
          const std::size_t cand = (next_conn + k) % conns;
          if (rings[cand].occupancy() < kServerWindow) {
            c = cand;
            break;
          }
        }
        if (c < conns || receiver_failed.load(std::memory_order_acquire)) {
          if (held) ++out.window_held;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      if (c == conns) break;
      next_conn = (c + 1) % conns;
      rings[c].push(static_cast<std::uint32_t>(i));
      sent.fetch_add(1, std::memory_order_acq_rel);
      if (!socks[c].send_all(frames[i])) {
        out.error = "send failed";
        break;
      }
      free_ns = now_ns();
    }
    sender_done.store(true, std::memory_order_release);
  });
  sender.join();
  receiver.join();
  if (out.error.empty() && receiver_failed.load()) out.error = receiver_error;
  return out;
}

ClosedLoopResult run_closed_loop(const std::string& path,
                                 std::span<const std::string> frames,
                                 std::span<const std::string> ids,
                                 int connections, int inflight) {
  ClosedLoopResult out;
  const std::size_t last = frames.size();
  std::atomic<std::size_t> next{0};
  out.start_ns = now_ns();

  struct Lane {
    Socket sock;
    dsmt::net::FrameDecoder decoder;
    std::deque<std::size_t> fifo;
  };
  struct Part {
    std::vector<std::size_t> index;
    std::vector<Reply> replies;
    std::int64_t last_reply_ns = 0;
    std::string error;
  };
  constexpr int kThreads = 2;
  Part parts[kThreads];

  const auto drive = [&](int t) {
    pin_to_client();
    Part& part = parts[t];
    std::deque<Lane> lanes;
    for (int c = t; c < connections; c += kThreads) {
      lanes.emplace_back();
      if (!lanes.back().sock.connect(path)) {
        part.error = "connect failed";
        return;
      }
    }
    // Sends the next request of the window on `lane`, if any is left.
    const auto send_next = [&](Lane& lane) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= last) return true;
      lane.fifo.push_back(i);
      return lane.sock.send_all(frames[i]);
    };
    for (Lane& lane : lanes)
      for (int k = 0; k < inflight; ++k)
        if (!send_next(lane)) {
          part.error = "send failed";
          return;
        }
    std::vector<pollfd> pfds;
    for (const Lane& lane : lanes) pfds.push_back({lane.sock.fd(), POLLIN, 0});
    std::int64_t last_progress = now_ns();
    for (;;) {
      std::size_t outstanding = 0;
      for (const Lane& lane : lanes) outstanding += lane.fifo.size();
      if (outstanding == 0) return;
      if (now_ns() - last_progress > kReplyTimeoutNs) {
        part.error = "replies lost";
        return;
      }
      if (dsmt::net::poll_wait(pfds.data(), pfds.size(), 10) <= 0) continue;
      for (std::size_t c = 0; c < lanes.size(); ++c) {
        if (pfds[c].revents == 0) continue;
        Lane& lane = lanes[c];
        bool send_failed = false;
        bool orphan = false;
        const bool ok = pump(
            pfds[c].fd, lane.decoder,
            [&](const std::string& payload, std::int64_t at) {
              if (lane.fifo.empty()) {
                orphan = true;
                return;
              }
              const std::size_t i = lane.fifo.front();
              lane.fifo.pop_front();
              part.index.push_back(i);
              part.replies.push_back(make_reply(payload, ids[i], at));
              part.last_reply_ns = at;
              last_progress = at;
              if (!send_next(lane)) send_failed = true;
            });
        if (!ok || orphan || send_failed) {
          part.error = "connection closed or reply without request";
          return;
        }
      }
    }
  };
  std::thread one(drive, 0);
  std::thread two(drive, 1);
  one.join();
  two.join();

  for (Part& part : parts) {
    if (out.error.empty()) out.error = part.error;
    out.end_ns = std::max(out.end_ns, part.last_reply_ns);
    out.index.insert(out.index.end(), part.index.begin(), part.index.end());
    out.replies.insert(out.replies.end(), part.replies.begin(),
                       part.replies.end());
  }
  out.sent = std::min(next.load(), last);
  return out;
}

}  // namespace perf
