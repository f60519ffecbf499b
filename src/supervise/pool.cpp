#include "supervise/pool.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/run_context.h"
#include "core/signoff.h"
#include "core/status.h"
#include "service/degrade.h"
#include "service/request.h"
#include "service/retry.h"
#include "supervise/protocol.h"

namespace dsmt::supervise {

namespace {

using core::StatusCode;

std::string signal_label(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";  // OOM killer, RLIMIT hard cap, or us
    case SIGABRT: return "SIGABRT";
    case SIGXCPU: return "SIGXCPU";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(sig);
  }
}

/// Pacing of consecutive reforks of one slot: 1 ms doubling to 1 s, with
/// +/-25 % seeded jitter (service/retry.h defaults).
constexpr service::RetryPolicy kRestartBackoff{};

std::string hash_hex(std::uint64_t h) {
  constexpr const char* kDigits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4)
    s.push_back(kDigits[(h >> shift) & 0xfu]);
  return s;
}

/// Effective per-direction payload cap: `want_payload` clamped to the
/// single-datagram capacity a worker socketpair will actually grant. Probed
/// on a throwaway pair here so every later sizing decision — parent
/// pre-send check, read buffers, the worker's reply-elision threshold —
/// agrees with what the kernel enforces (the broker applies the same
/// SO_SNDBUF tuning to every real pair).
std::size_t probe_payload_cap(std::size_t want_payload) {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, sv) != 0)
    return want_payload;  // unknowable: the sender's errno path protects
  net::Fd a;
  net::Fd b;
  a.reset(sv[0]);
  b.reset(sv[1]);
  const std::size_t datagram_cap = net::tune_datagram_capacity(
      a.get(), kMessageOverheadBytes + want_payload);
  if (datagram_cap <= kMessageOverheadBytes) return want_payload;
  const std::size_t granted = datagram_cap - kMessageOverheadBytes;
  return granted < want_payload ? granted : want_payload;
}

/// Diag kernel of the parent's own replies to requests a worker did not
/// answer.
constexpr const char* kWhere = "supervise/pool";

/// Children must never inherit a solve cache: its AppendLog fd would cross
/// fork() and every child would append to one segment file.
SuperviseConfig strip_child_cache(SuperviseConfig config) {
  config.service.solve_cache.reset();
  return config;
}

}  // namespace

WorkerPool::WorkerPool(SuperviseConfig config)
    : config_(strip_child_cache(std::move(config))) {
  if (config_.workers == 0)
    throw std::invalid_argument("supervise/pool: SuperviseConfig::workers is 0");
  payload_cap_ = probe_payload_cap(config_.max_payload_bytes);
  // The broker is forked HERE, in the constructor's single-threaded window
  // — the one point where fork() cannot race another thread holding a lock
  // the child would inherit locked. Every worker fork, initial fleet and
  // lazy refork alike, then happens inside the broker child, which stays
  // single-threaded for life; pool threads never fork.
  broker_ = std::make_unique<ForkBroker>(config_.service, config_.limits,
                                         payload_cap_);
  {
    MutexLock lock(mu_);
    slots_.resize(config_.workers);
    // A slot whose initial spawn fails stays dead and is retried on first
    // lease.
    for (Slot& slot : slots_)
      if (spawn_slot(slot)) ++stats_.forks;
  }
  if (config_.publish_signoff)
    core::set_signoff_service_source(this, [this] {
      report::Json root = report::Json::object();
      root.set("supervise", supervise_json());
      return root;
    });
}

WorkerPool::~WorkerPool() {
  core::clear_signoff_service_source(this);
  shutdown();
}

ExecuteResult WorkerPool::execute(const service::Request& request,
                                  std::uint64_t seq) {
  ExecuteResult result;
  if (const std::optional<service::Response> own =
          serve(request, seq, result))
    result = ExecuteResult{own->status, net::response_frame(*own)};
  return result;
}

std::optional<service::Response> WorkerPool::serve(
    const service::Request& request, std::uint64_t seq,
    ExecuteResult& forwarded) {
  const std::uint64_t hash = canonical_request_hash(request);
  int quarantined_crashes = 0;
  {
    MutexLock lock(mu_);
    ++stats_.requests;
    const auto it = quarantine_.find(hash);
    if (it != quarantine_.end() &&
        it->second.crashes >= config_.quarantine_threshold) {
      ++it->second.refusals;
      ++stats_.quarantine_refusals;
      quarantined_crashes = it->second.crashes;
    }
  }
  if (quarantined_crashes > 0)
    return quarantine_reply(request, hash, quarantined_crashes);

  const std::string message = encode_request_message(seq, request);
  if (message.size() > kMessageOverheadBytes + payload_cap_) {
    // Never offer the kernel a datagram it will refuse: an EMSGSIZE on a
    // live worker is not a crash, and must not be classified as one.
    {
      MutexLock lock(mu_);
      ++stats_.oversize_refusals;
    }
    return service::failure_response(
        request, StatusCode::kInvalidInput, kWhere,
        "request exceeds the supervision channel datagram capacity",
        "encoded request is " + std::to_string(message.size()) +
            " bytes; the channel carries at most " +
            std::to_string(kMessageOverheadBytes + payload_cap_) +
            " (max_payload_bytes clamped to the socket buffer grant)");
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    Lease lease;
    if (std::optional<service::Response> refused = acquire(lease, request))
      return refused;
    const int send_error = send_message(lease.fd, message);
    if (send_error == EPIPE || send_error == ECONNRESET) {
      // The worker died while idle — before it ever saw this request, so
      // the crash does not count against the request's hash. Reap, mark
      // the slot for restart, and try once more on a fresh worker.
      int sig = 0;
      int code = -1;
      long rss = 0;
      reap_crashed(lease, sig, code, rss);
      continue;
    }
    if (send_error != 0) {
      // The child is alive but the datagram was undeliverable (EMSGSIZE
      // past the kernel's grant, ENOBUFS/ENOMEM pressure). The worker
      // never saw the request: release the lease untouched — reaping a
      // live child here would block the slot forever — and answer typed.
      release(lease.index);
      const StatusCode st = send_error == EMSGSIZE
                                ? StatusCode::kInvalidInput
                                : StatusCode::kRejectedOverload;
      return service::failure_response(
          request, st, kWhere,
          "supervision channel send failed; request not run",
          "send to worker pid " + std::to_string(lease.pid) +
              " failed with errno " + std::to_string(send_error) +
              "; worker left in service");
    }
    return await_reply(lease, request, hash, seq, forwarded);
  }
  return service::failure_response(
      request, StatusCode::kWorkerCrashed, kWhere,
      "workers died before accepting the request",
      "two consecutive workers were dead at send time");
}

std::optional<service::Response> WorkerPool::acquire(
    Lease& lease, const service::Request& request) {
  std::size_t index = 0;
  bool needs_fork = false;
  {
    MutexLock lock(mu_);
    for (;;) {
      if (shut_down_)
        return service::failure_response(request, StatusCode::kCancelled, "",
                                         "worker pool is shut down");
      index = slots_.size();
      // Prefer a live idle worker; only restart a dead slot when no live
      // one is free (keeps restart churn off the hot path).
      for (std::size_t i = 0; i < slots_.size(); ++i)
        if (!slots_[i].busy && !slots_[i].dead) {
          index = i;
          break;
        }
      if (index == slots_.size())
        for (std::size_t i = 0; i < slots_.size(); ++i)
          if (!slots_[i].busy && slots_[i].dead) {
            index = i;
            break;
          }
      if (index != slots_.size()) break;
      const StatusCode st = core::run_check();
      if (st != StatusCode::kOk)
        return service::failure_response(
            request, st, "",
            "no worker became available within the request budget");
      slot_free_.wait_for(
          mu_, std::chrono::milliseconds(config_.poll_interval_ms));
    }
    Slot& slot = slots_[index];
    slot.busy = true;
    needs_fork = slot.dead;
    if (!needs_fork) lease = Lease{index, slot.channel.get(), slot.pid};
  }
  if (!needs_fork) return std::nullopt;

  // Deterministic restart pacing: the seeded-backoff schedule as a pure
  // function of (slot, consecutive restart count) — bitwise identical
  // across runs, with or without the sleep.
  int restart_attempt = 1;
  {
    MutexLock lock(mu_);
    restart_attempt = slots_[index].consecutive_restarts + 1;
  }
  const std::uint64_t delay_ns = service::backoff_ns(
      kRestartBackoff,
      service::mix64(0x73757056u ^ static_cast<std::uint64_t>(index)),
      restart_attempt);
  if (config_.sleep_on_restart_backoff && delay_ns > 0) {
    // Sleep in poll-interval chunks so a drain cancel or deadline is not
    // blocked behind the backoff.
    std::uint64_t slept = 0;
    const std::uint64_t chunk =
        static_cast<std::uint64_t>(config_.poll_interval_ms) * 1000000ull;
    while (slept < delay_ns) {
      const StatusCode st = core::run_check();
      if (st != StatusCode::kOk) {
        release(index);
        return service::failure_response(
            request, st, "", "request interrupted during worker restart");
      }
      const std::uint64_t step =
          (delay_ns - slept) < chunk ? (delay_ns - slept) : chunk;
      std::this_thread::sleep_for(std::chrono::nanoseconds(step));
      slept += step;
    }
  }

  MutexLock lock(mu_);
  Slot& slot = slots_[index];
  if (!spawn_slot(slot)) {
    slot.busy = false;
    slot_free_.notify_one();
    return service::failure_response(request, StatusCode::kWorkerCrashed, "",
                                     "cannot fork a replacement worker");
  }
  ++stats_.forks;
  ++stats_.restarts;
  ++slot.consecutive_restarts;
  lease = Lease{index, slot.channel.get(), slot.pid};
  return std::nullopt;
}

void WorkerPool::release(std::size_t index) {
  MutexLock lock(mu_);
  slots_[index].busy = false;
  slot_free_.notify_one();
}

std::optional<service::Response> WorkerPool::await_reply(
    const Lease& lease, const service::Request& request, std::uint64_t hash,
    std::uint64_t seq, ExecuteResult& forwarded) {
  const auto start = std::chrono::steady_clock::now();
  std::string buffer(kMessageOverheadBytes + payload_cap_, '\0');
  for (;;) {
    StatusCode st = core::run_check();
    bool pool_deadline = false;
    if (st == StatusCode::kOk && config_.reply_deadline_ns > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed >= 0 && static_cast<std::uint64_t>(elapsed) >=
                              config_.reply_deadline_ns) {
        st = StatusCode::kDeadlineExceeded;
        pool_deadline = true;
      }
    }
    if (st != StatusCode::kOk) {
      // The worker is wedged past the caller's budget (or a drain cancel
      // arrived): kill it so the lane frees now, not eventually. Only a
      // POOL deadline — reply_deadline_ns, measured from the successful
      // send — counts toward quarantine: it proves the request wedged a
      // worker. An ambient budget may have been burnt queueing or in
      // restart backoff before the child ever started, and a cancel is the
      // caller's choice; neither indicts the request.
      (void)::kill(lease.pid, SIGKILL);
      int sig = 0;
      int code = -1;
      long rss = 0;
      reap_crashed(lease, sig, code, rss);
      {
        MutexLock lock(mu_);
        ++stats_.deadline_kills;
      }
      int crashes = 0;
      if (pool_deadline) crashes = note_crash(hash);
      return service::failure_response(
          request, st, kWhere,
          pool_deadline
              ? "worker exceeded the supervised reply deadline and was "
                "killed"
              : "request interrupted: worker killed by the supervisor",
          "worker pid " + std::to_string(lease.pid) +
              " killed (SIGKILL) while serving hash " + hash_hex(hash) +
              (crashes > 0 ? "; crash " + std::to_string(crashes) + "/" +
                                 std::to_string(config_.quarantine_threshold)
                           : std::string{}));
    }

    pollfd pfd{};
    pfd.fd = lease.fd;
    pfd.events = POLLIN;
    const int ready = net::poll_wait(&pfd, 1, config_.poll_interval_ms);
    if (ready <= 0) continue;

    const net::IoResult r =
        net::read_some(lease.fd, buffer.data(), buffer.size());
    if (r.n < 0 && r.would_block()) continue;
    if (r.n > 0) {
      std::uint64_t echoed = 0;
      StatusCode status = StatusCode::kOk;
      std::string frame;
      if (decode_response_message(buffer.data(),
                                  static_cast<std::size_t>(r.n), payload_cap_,
                                  echoed, status, frame) &&
          echoed == seq) {
        {
          MutexLock lock(mu_);
          ++stats_.replies;
          slots_[lease.index].consecutive_restarts = 0;
          // A hash that just completed normally is demonstrably not
          // poison: clear its sub-threshold crash history so transient
          // causes (a since-fixed wedge, memory pressure) cannot slowly
          // accumulate into a permanent quarantine.
          const auto it = quarantine_.find(hash);
          if (it != quarantine_.end() &&
              it->second.crashes < config_.quarantine_threshold)
            quarantine_.erase(it);
        }
        release(lease.index);
        forwarded = ExecuteResult{status, std::move(frame)};
        return std::nullopt;
      }
      // A malformed datagram, a status outside core::StatusCode or a wrong
      // echo means the child is corrupted: its reply cannot be trusted, so
      // it is discarded and the worker replaced.
      {
        MutexLock lock(mu_);
        ++stats_.protocol_errors;
      }
      (void)::kill(lease.pid, SIGKILL);
      int sig = 0;
      int code = -1;
      long rss = 0;
      reap_crashed(lease, sig, code, rss);
      const int crashes = note_crash(hash);
      return service::failure_response(
          request, StatusCode::kWorkerCrashed, kWhere,
          "worker IPC protocol violation: reply discarded",
          "worker pid " + std::to_string(lease.pid) +
              " echoed a corrupt reply for hash " + hash_hex(hash) +
              "; crash " + std::to_string(crashes) + "/" +
              std::to_string(config_.quarantine_threshold));
    }

    // EOF (or reset): the worker died serving this request.
    int sig = 0;
    int code = -1;
    long rss = 0;
    reap_crashed(lease, sig, code, rss);
    const int crashes = note_crash(hash);
    const std::string how =
        sig != 0 ? signal_label(sig) : "exit code " + std::to_string(code);
    return service::failure_response(
        request, StatusCode::kWorkerCrashed, kWhere,
        "worker crashed serving the request (" + how + ")",
        "worker pid " + std::to_string(lease.pid) + " died: " + how +
            "; maxrss_kb=" + std::to_string(rss) + "; crash " +
            std::to_string(crashes) + "/" +
            std::to_string(config_.quarantine_threshold) + " for hash " +
            hash_hex(hash));
  }
}

void WorkerPool::reap_crashed(const Lease& lease, int& signal,
                              int& exit_code, long& maxrss_kb) {
  // SIGKILL before the blocking reap: a zombie discards signals, so this is
  // a no-op for the already-dead case, and it guarantees the reap can never
  // wait on a child that is in fact still alive.
  if (lease.pid > 0) (void)::kill(lease.pid, SIGKILL);
  WorkerDeath death;
  if (broker_) (void)broker_->reap_blocking(lease.pid, death);
  signal = death.reaped ? death.signal : 0;
  exit_code = death.reaped ? death.exit_code : -1;
  maxrss_kb = death.maxrss_kb;

  MutexLock lock(mu_);
  Slot& slot = slots_[lease.index];
  slot.channel.reset();
  slot.pid = -1;
  slot.dead = true;
  slot.busy = false;
  slot.last_signal = signal;
  slot.last_exit_code = exit_code;
  slot.last_maxrss_kb = maxrss_kb;
  slot_free_.notify_one();
}

int WorkerPool::note_crash(std::uint64_t hash) {
  MutexLock lock(mu_);
  QuarantineEntry& entry = quarantine_[hash];
  ++entry.crashes;
  ++stats_.crashes;
  if (entry.crashes == config_.quarantine_threshold)
    ++stats_.quarantined_hashes;
  return entry.crashes;
}

bool WorkerPool::spawn_slot(Slot& slot) {
  // The fork happens in the broker child (single-threaded for life), never
  // here: a pool thread that forked directly could hand the worker a heap
  // whose allocator lock some other thread held at fork time.
  net::Fd channel;
  ::pid_t pid = -1;
  if (!broker_ || !broker_->spawn(channel, pid)) return false;
  slot.pid = pid;
  slot.channel = std::move(channel);
  slot.dead = false;
  slot.last_signal = 0;
  slot.last_exit_code = -1;
  return true;
}

service::Response WorkerPool::quarantine_reply(
    const service::Request& request, std::uint64_t hash, int crashes) {
  service::Response resp = service::failure_response(
      request, StatusCode::kWorkerCrashed, "", std::string{});
  // The analytic rung is closed-form and iteration-free: no crash surface,
  // so the parent serves it directly — conservative by construction, the
  // same answer as the in-process rung 2.
  try {
    const service::LadderProblem ladder = service::build_problem(request);
    service::answer_bound(resp, request, ladder,
                          service::analytic_quasi1d_bound(ladder.quasi1d));
    resp.diag.record(
        "supervise/quarantine", StatusCode::kOk, 2, 0.0,
        "hash " + hash_hex(hash) + " quarantined after " +
            std::to_string(crashes) +
            " worker crashes; served by the parent's analytic rung");
    return resp;
  } catch (const std::exception& e) {
    // The problem does not build (say, an unknown metal): no rung applies.
    resp.diag.record("supervise/quarantine", StatusCode::kInvalidInput, 0,
                     0.0, e.what());
  }
  resp.error = "request quarantined: its canonical hash crashed " +
               std::to_string(crashes) + " workers";
  resp.diag.record("supervise/quarantine", StatusCode::kWorkerCrashed, 0,
                   0.0,
                   "hash " + hash_hex(hash) +
                       ": refused without reaching a worker");
  return resp;
}

void WorkerPool::shutdown() {
  std::vector<::pid_t> pending;
  {
    MutexLock lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    for (Slot& slot : slots_) {
      // Closing the channel is the shutdown signal: the child's read
      // returns EOF and its loop exits 0 — no signals needed for the
      // cooperative path.
      slot.channel.reset();
      if (!slot.dead && slot.pid > 0) pending.push_back(slot.pid);
      slot.dead = true;
    }
    slot_free_.notify_all();
  }

  // Bounded cooperative reap (~2 s of WNOHANG probes through the broker —
  // the workers are its children), then SIGKILL the stragglers and reap
  // them for real — no zombies left behind. A dead broker already killed
  // and reaped its workers in its own teardown.
  for (int tick = 0; tick < 200 && !pending.empty(); ++tick) {
    for (auto it = pending.begin(); it != pending.end();) {
      WorkerDeath death;
      if (!broker_ || !broker_->reap_poll(*it, death) || death.reaped)
        it = pending.erase(it);
      else
        ++it;
    }
    if (!pending.empty())
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (const ::pid_t pid : pending) {
    (void)::kill(pid, SIGKILL);
    WorkerDeath death;
    if (broker_) (void)broker_->reap_blocking(pid, death);
  }
  if (broker_) broker_->shutdown();

  MutexLock lock(mu_);
  for (Slot& slot : slots_) slot.pid = -1;
}

SuperviseStats WorkerPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::size_t WorkerPool::live_workers() const {
  MutexLock lock(mu_);
  std::size_t live = 0;
  for (const Slot& slot : slots_)
    if (!slot.dead) ++live;
  return live;
}

report::Json WorkerPool::supervise_json() const {
  using report::Json;
  MutexLock lock(mu_);
  std::size_t live = 0;
  for (const Slot& slot : slots_)
    if (!slot.dead) ++live;

  Json stats = Json::object();
  stats
      .set("forks", Json::integer(static_cast<long long>(stats_.forks)))
      .set("restarts",
           Json::integer(static_cast<long long>(stats_.restarts)))
      .set("requests",
           Json::integer(static_cast<long long>(stats_.requests)))
      .set("replies", Json::integer(static_cast<long long>(stats_.replies)))
      .set("crashes", Json::integer(static_cast<long long>(stats_.crashes)))
      .set("deadline_kills",
           Json::integer(static_cast<long long>(stats_.deadline_kills)))
      .set("quarantine_refusals",
           Json::integer(
               static_cast<long long>(stats_.quarantine_refusals)))
      .set("quarantined_hashes",
           Json::integer(
               static_cast<long long>(stats_.quarantined_hashes)))
      .set("protocol_errors",
           Json::integer(static_cast<long long>(stats_.protocol_errors)))
      .set("oversize_refusals",
           Json::integer(static_cast<long long>(stats_.oversize_refusals)));

  Json quarantine = Json::array();
  for (const auto& [hash, entry] : quarantine_) {
    Json row = Json::object();
    row.set("hash", Json::string(hash_hex(hash)))
        .set("crashes", Json::integer(entry.crashes))
        .set("quarantined",
             Json::boolean(entry.crashes >= config_.quarantine_threshold))
        .set("refusals",
             Json::integer(static_cast<long long>(entry.refusals)));
    quarantine.push(std::move(row));
  }

  Json root = Json::object();
  root.set("workers", Json::integer(static_cast<long long>(slots_.size())))
      .set("live", Json::integer(static_cast<long long>(live)))
      .set("payload_cap_bytes",
           Json::integer(static_cast<long long>(payload_cap_)))
      .set("stats", std::move(stats))
      .set("quarantine", std::move(quarantine));
  return root;
}

}  // namespace dsmt::supervise
