// Process-level supervisor: crash-contained solve workers behind SEQPACKET.
//
// A WorkerPool forks N worker children at construction; each child runs
// supervise::run_worker over its half of a SOCK_SEQPACKET socketpair. The
// parent leases one worker per request — send the id and canonical key
// (protocol.h), poll, forward the reply frame verbatim — so a kernel
// SIGSEGV/SIGFPE, an OOM kill, or an RLIMIT rail firing takes down ONE child
// mid-request, never the front end:
//
//   detect     EOF on the channel while a reply is owed, confirmed by
//              wait4(), which also yields the terminating signal and the
//              child's rusage — both recorded in the SolverDiag chain of
//              the kWorkerCrashed response the caller gets instead of
//              silence.
//   restart    the slot is reforked on next lease, after a seeded
//              backoff (service/retry.h: a pure function of slot index and
//              consecutive-restart count, bitwise reproducible). Rails
//              (WorkerLimits) are reinstalled in every new child. All forks
//              — initial fleet and lazy reforks alike — happen inside the
//              single-threaded ForkBroker child (broker.h), never on a pool
//              thread, so a refork cannot inherit a lock some other thread
//              held at fork time.
//   quarantine a request whose canonical content hash (protocol.h) crashed
//              workers `quarantine_threshold` times stops reaching workers:
//              it is answered conservatively from the parent — the
//              iteration-free analytic rung of the degradation ladder
//              (closed-form, no crash surface), or a typed kWorkerCrashed
//              error when the request's problem does not even build. No
//              crash loops, no silent drops.
//
// Threading: execute() is safe from any number of pool threads. Slot
// leasing, the quarantine table, and the counters live behind one mutex;
// the leased channel fd is touched only by the leasing thread while the
// slot is marked busy. Parent-side waits poll core::run_check(), so a
// drain cancel or an ambient deadline kills the wedged child (SIGKILL) and
// answers with the interruption status instead of blocking forever.
//
// Determinism: the child receives every input bit of the request and serves
// it exactly as the in-process service would, and its reply bytes are
// forwarded unparsed and unmodified, so a non-crashing lane's reply is
// byte-identical to the in-process one at any DSMT_THREADS.
//
// Neither side holds a solve cache: the parent never solves, and the
// constructor drops any cache from the child-side service config, because
// a cache's segment fd must never cross fork().
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "net/socket_io.h"
#include "net/wire.h"
#include "report/json.h"
#include "service/server.h"
#include "supervise/broker.h"
#include "supervise/worker.h"

namespace dsmt::supervise {

struct SuperviseConfig {
  std::size_t workers = 2;  ///< forked worker children, at least 1
  service::ServerConfig service{};  ///< child-side config, solve_cache dropped
  /// Cap on one IPC datagram past kMessageOverheadBytes [bytes], in both
  /// directions: a reply's JSON, a request's id and key. The pool clamps
  /// this to what the kernel's socket buffers can actually carry in one
  /// SEQPACKET datagram (see payload_cap()); a request over the clamped cap
  /// is refused with a typed kInvalidInput, never sent.
  std::size_t max_payload_bytes = net::kDefaultMaxFrameBytes;
  /// Crashes by one canonical request hash before it stops reaching workers.
  int quarantine_threshold = 2;
  /// Actually sleep the seeded backoff between consecutive reforks of one
  /// slot (tests disable it to stay fast).
  bool sleep_on_restart_backoff = true;
  WorkerLimits limits{};  ///< rlimit rails + chaos arming for every child
  /// Parent-side cap on one reply wait [ns] (0 = ambient RunContext only).
  std::uint64_t reply_deadline_ns = 0;
  /// Granularity [ms] of the parent's reply/lease polls (cancellation and
  /// deadline observation latency).
  int poll_interval_ms = 20;
  /// Publish the quarantine table + worker stats under the sign-off
  /// "service" key for the pool's lifetime.
  bool publish_signoff = true;
};

/// Monotonic counters since construction (snapshot).
struct SuperviseStats {
  std::uint64_t forks = 0;        ///< children ever forked (initial + re-)
  std::uint64_t restarts = 0;     ///< reforks of a dead slot
  std::uint64_t requests = 0;     ///< execute() calls
  std::uint64_t replies = 0;      ///< worker replies forwarded verbatim
  std::uint64_t crashes = 0;      ///< workers that died serving a request
  std::uint64_t deadline_kills = 0;  ///< parent-killed wedged workers
  std::uint64_t quarantine_refusals = 0;  ///< requests refused by the table
  std::uint64_t quarantined_hashes = 0;   ///< hashes at/over the threshold
  std::uint64_t protocol_errors = 0;      ///< corrupted IPC echoes
  std::uint64_t oversize_refusals = 0;    ///< requests over the payload cap
};

/// Outcome of one supervised request: the complete DSM1 reply frame for the
/// client plus its status (the worker's status byte, or the parent's own
/// answer's) for metrics and tests.
struct ExecuteResult {
  core::StatusCode status = core::StatusCode::kOk;
  std::string frame;
};

class WorkerPool {
 public:
  /// Throws std::invalid_argument when config.workers is 0.
  explicit WorkerPool(SuperviseConfig config);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Serves one request through a leased worker. Always returns exactly one
  /// terminal result — forwarded reply, kWorkerCrashed, quarantine answer,
  /// or interruption — never throws for per-request failures. The child
  /// echoes `seq`; a wrong echo marks it corrupted.
  ExecuteResult execute(const service::Request& request, std::uint64_t seq);

  /// Closes every channel (children exit on EOF), reaps with a bounded
  /// wait, SIGKILLs stragglers. Idempotent; called by the destructor.
  /// Callers must not race execute() against shutdown().
  void shutdown();

  SuperviseStats stats() const;
  std::size_t live_workers() const;
  const SuperviseConfig& config() const { return config_; }

  /// Effective per-direction IPC payload cap [bytes]: max_payload_bytes
  /// clamped to the single-datagram capacity the kernel granted the worker
  /// socketpairs (SO_SNDBUF is silently limited by wmem_max; a datagram
  /// past the grant dies with EMSGSIZE instead of fragmenting).
  std::size_t payload_cap() const { return payload_cap_; }

  /// Sign-off/ping section: worker states, counters, quarantine table.
  report::Json supervise_json() const;

 private:
  struct Slot {
    ::pid_t pid = -1;
    net::Fd channel;  ///< parent end; valid iff !dead
    bool busy = false;
    bool dead = true;
    int consecutive_restarts = 0;  ///< backoff attempt index, reset on reply
    int last_signal = 0;           ///< how the previous child died
    int last_exit_code = -1;
    long last_maxrss_kb = 0;
  };

  /// A leased slot, copied out of the table so the channel fd is used
  /// without holding the mutex (the slot is busy: nobody else touches it).
  struct Lease {
    std::size_t index = 0;
    int fd = -1;
    ::pid_t pid = -1;
  };

  struct QuarantineEntry {
    int crashes = 0;
    std::uint64_t refusals = 0;
  };

  /// execute() without the encoding: fills `forwarded` with a worker's
  /// reply, or returns the reply the parent answers itself (refusal,
  /// death, kill, quarantine), for execute() to frame.
  std::optional<service::Response> serve(const service::Request& request,
                                         std::uint64_t seq,
                                         ExecuteResult& forwarded);
  /// Leases a worker into `lease`, or returns the reply to a request that
  /// cannot get one (shut down, interrupted, no replacement fork).
  std::optional<service::Response> acquire(Lease& lease,
                                           const service::Request& request);
  void release(std::size_t index);
  /// Polls the leased channel for the reply to (request, seq) and fills
  /// `forwarded` with it; classifies EOF as a crash, a bad echo as a
  /// protocol violation, and interruption / reply-deadline expiry as
  /// grounds to SIGKILL the worker, returning the parent's reply for each.
  std::optional<service::Response> await_reply(
      const Lease& lease, const service::Request& request, std::uint64_t hash,
      std::uint64_t seq, ExecuteResult& forwarded);
  /// Reaps the child of `lease` via the broker (SIGKILL first, so a live
  /// child can never block the reap), classifies the death, marks the slot
  /// dead.
  void reap_crashed(const Lease& lease, int& signal, int& exit_code,
                    long& maxrss_kb);
  /// Counts one crash against `hash`; returns the updated crash count.
  int note_crash(std::uint64_t hash);
  /// Leases a fresh worker from the broker into `slot`.
  bool spawn_slot(Slot& slot) DSMT_REQUIRES(mu_);
  service::Response quarantine_reply(const service::Request& request,
                                     std::uint64_t hash, int crashes);

  const SuperviseConfig config_;
  // R10-ok: both set once in the constructor (single-threaded window) and
  // read-only afterwards; the broker serializes its own channel internally.
  std::size_t payload_cap_ = 0;
  std::unique_ptr<ForkBroker> broker_;
  mutable Mutex mu_;
  CondVar slot_free_;
  std::vector<Slot> slots_ DSMT_GUARDED_BY(mu_);
  std::map<std::uint64_t, QuarantineEntry> quarantine_ DSMT_GUARDED_BY(mu_);
  SuperviseStats stats_ DSMT_GUARDED_BY(mu_);
  bool shut_down_ DSMT_GUARDED_BY(mu_) = false;
};

}  // namespace dsmt::supervise
