// Process-supervision suite (ctest label `supervise`): the crash-contained
// worker pool of src/supervise/. Forks real worker children, kills them with
// armed crash faults (SIGABRT / SIGSEGV / allocation storm under an
// RLIMIT_AS rail), and asserts the contract the supervisor exists to prove:
// the parent survives every child death, every request gets exactly one
// typed terminal answer, a poison hash is quarantined after the configured
// crash threshold, and clean-lane replies stay byte-deterministic through
// the process boundary. Forks processes and arms process-global fault
// plans, so it lives in its own executable like the other chaos suites.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/atomic_file.h"
#include "core/run_context.h"
#include "core/status.h"
#include "numeric/fault_injection.h"
#include "report/json.h"
#include "service/request.h"
#include "service/server.h"
#include "supervise/pool.h"
#include "supervise/protocol.h"
#include "supervise/worker.h"

namespace dsmt::supervise {
namespace {

using core::StatusCode;
using numeric::fault::FaultKind;
using numeric::fault::FaultPlan;
using numeric::fault::ScopedFault;

service::Request wire_request(const std::string& id, double duty = 0.1,
                              double width_um = 0.5) {
  service::Request r;
  r.id = id;
  r.kind = service::RequestKind::kSelfConsistent;
  r.duty_cycle = duty;
  r.wire.width_um = width_um;
  r.wire.thickness_um = 0.9;
  r.wire.dielectric_um = 0.8;
  return r;
}

/// Pool config with every sleep disabled and no sign-off publication, so
/// the suite is fast and leaves no process-global registration behind.
SuperviseConfig quiet_pool(std::size_t workers) {
  SuperviseConfig c;
  c.workers = workers;
  c.service.publish_signoff = false;
  c.sleep_on_restart_backoff = false;
  c.publish_signoff = false;
  c.poll_interval_ms = 5;
  return c;
}

/// Crash plan for the worker-loop chaos hook: requests whose id contains
/// `key` die in the child by `kind` before the solve starts.
FaultPlan crash_plan(FaultKind kind, const std::string& key = "poison") {
  FaultPlan plan;
  plan.kind = kind;
  plan.kernel_substr = "supervise/worker";
  plan.key_substr = key;
  return plan;
}

report::Json payload_of(const ExecuteResult& result) {
  return report::Json::parse(frame_payload(result.frame));
}

std::string field_string(const report::Json& root, const char* key) {
  const report::Json* node = root.find(key);
  return node != nullptr ? node->as_string() : std::string{};
}

// --- IPC protocol -----------------------------------------------------------

TEST(SuperviseProtocol, CanonicalHashIsPureAndContentKeyed) {
  const service::Request a = wire_request("req-a");
  EXPECT_EQ(canonical_request_hash(a), canonical_request_hash(a));
  service::Request copy = a;
  EXPECT_EQ(canonical_request_hash(a), canonical_request_hash(copy));
  // The client's correlation id is not content: a fresh id keeps the key.
  copy.id = "req-b";
  EXPECT_EQ(canonical_request_hash(a), canonical_request_hash(copy));
  // Any physics difference changes it.
  service::Request hotter = a;
  hotter.duty_cycle = 0.2;
  EXPECT_NE(canonical_request_hash(a), canonical_request_hash(hotter));
}

TEST(SuperviseProtocol, MessageRoundTripAndStrictRejection) {
  const service::Request request = wire_request("round-trip");
  const std::string message = encode_request_message(7, request);

  std::uint64_t seq = 0;
  std::string frame;
  ASSERT_TRUE(split_message(message.data(), message.size(),
                            net::kDefaultMaxFrameBytes, seq, frame));
  EXPECT_EQ(seq, 7u);
  ASSERT_GE(frame.size(), net::kFrameHeaderBytes);
  EXPECT_EQ(frame.substr(0, 4), "DSM1");
  const service::Request decoded =
      service::request_from_json(report::Json::parse(frame_payload(frame)));
  EXPECT_EQ(decoded.id, "round-trip");
  EXPECT_EQ(canonical_request_hash(decoded), canonical_request_hash(request));

  // Short datagram: not even a sequence prefix.
  EXPECT_FALSE(split_message(message.data(), 4, net::kDefaultMaxFrameBytes,
                             seq, frame));
  // Corrupted magic right after the prefix.
  std::string bad_magic = message;
  bad_magic[kSeqPrefixBytes] = 'X';
  EXPECT_FALSE(split_message(bad_magic.data(), bad_magic.size(),
                             net::kDefaultMaxFrameBytes, seq, frame));
  // Declared length must match the datagram exactly (SEQPACKET boundary).
  EXPECT_FALSE(split_message(message.data(), message.size() - 1,
                             net::kDefaultMaxFrameBytes, seq, frame));
  // Payload over the configured cap is refused before any buffering.
  EXPECT_FALSE(split_message(message.data(), message.size(), 4, seq, frame));
}

// --- clean path --------------------------------------------------------------

TEST(WorkerPool, CleanRoundTripForwardsDeterministicWorkerBytes) {
  WorkerPool pool(quiet_pool(1));
  ASSERT_EQ(pool.live_workers(), 1u);

  const service::Request request = wire_request("clean-1");
  const ExecuteResult result = pool.execute(request, 3);
  ASSERT_EQ(result.status, StatusCode::kOk);
  const report::Json root = payload_of(result);
  EXPECT_EQ(field_string(root, "id"), "clean-1");
  EXPECT_EQ(field_string(root, "status"), "ok");

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.replies, 1u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.forks, 1u);

  // A second, independent fleet serving the same (request, seq) must echo
  // byte-identical reply frames: the worker runs the same deterministic
  // service and the parent forwards its bytes verbatim.
  WorkerPool other(quiet_pool(1));
  const ExecuteResult again = other.execute(request, 3);
  ASSERT_EQ(again.status, StatusCode::kOk);
  EXPECT_EQ(again.frame, result.frame);
}

// --- crash containment -------------------------------------------------------

TEST(WorkerPool, AbortCrashIsTypedContainedAndSurvivable) {
  SuperviseConfig config = quiet_pool(2);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  WorkerPool pool(config);

  EXPECT_EQ(pool.execute(wire_request("clean-a"), 1).status, StatusCode::kOk);

  const ExecuteResult crashed = pool.execute(wire_request("poison-a"), 2);
  EXPECT_EQ(crashed.status, StatusCode::kWorkerCrashed);
  const report::Json root = payload_of(crashed);
  EXPECT_EQ(field_string(root, "status"), "worker-crashed");
  EXPECT_NE(field_string(root, "error").find("worker crashed"),
            std::string::npos);

  // The front end survives and the next clean request is served (by the
  // remaining live worker or a lazily reforked slot).
  EXPECT_EQ(pool.execute(wire_request("clean-b"), 4).status, StatusCode::kOk);

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.replies, 2u);
  EXPECT_GE(stats.forks, 2u);
}

TEST(WorkerPool, SegvCrashContained) {
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashSegv);
  WorkerPool pool(config);
  // Only the status is asserted: under a sanitizer the invalid store dies
  // by the sanitizer's own trap rather than a raw SIGSEGV, and both are the
  // same event from the supervisor's point of view — a dead child.
  EXPECT_EQ(pool.execute(wire_request("poison-segv"), 1).status,
            StatusCode::kWorkerCrashed);
  EXPECT_EQ(pool.execute(wire_request("clean-after-segv"), 2).status,
            StatusCode::kOk);
  EXPECT_EQ(pool.stats().crashes, 1u);
  EXPECT_GE(pool.stats().restarts, 1u);
}

TEST(WorkerPool, OomCrashDiesInsideTheAddressSpaceRail) {
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashOom);
  // The rail bounds the allocation storm: the child dies at ~512 MiB
  // instead of dragging the whole machine through real memory pressure.
  config.limits.rlimit_as_bytes = std::uint64_t{512} << 20;
  WorkerPool pool(config);
  // Either the storm is SIGKILLed inside the rail or (under a sanitizer,
  // where RLIMIT_AS breaks shadow mapping) the child dies at startup; both
  // are a contained kWorkerCrashed, never a parent failure.
  EXPECT_EQ(pool.execute(wire_request("poison-oom"), 1).status,
            StatusCode::kWorkerCrashed);
  EXPECT_GE(pool.stats().crashes, 0u);  // startup death is not a solve crash
  EXPECT_EQ(pool.stats().requests, 1u);
}

// --- poison quarantine -------------------------------------------------------

TEST(WorkerPool, QuarantineServesParentAnalyticRungAfterThreshold) {
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  const service::Request poison = wire_request("poison-q");
  EXPECT_EQ(pool.execute(poison, 1).status, StatusCode::kWorkerCrashed);
  EXPECT_EQ(pool.execute(poison, 2).status, StatusCode::kWorkerCrashed);

  // Third occurrence never reaches a worker: the parent answers from the
  // iteration-free analytic rung, degraded and conservative.
  const ExecuteResult refused = pool.execute(poison, 3);
  ASSERT_EQ(refused.status, StatusCode::kOk);
  const report::Json root = payload_of(refused);
  ASSERT_NE(root.find("degraded"), nullptr);
  EXPECT_TRUE(root.find("degraded")->as_bool());
  EXPECT_EQ(root.find("degradation_level")->as_integer(), 2);
  EXPECT_TRUE(root.find("conservative")->as_bool());
  const report::Json* solution = root.find("solution");
  ASSERT_NE(solution, nullptr);
  EXPECT_GT(solution->find("j_rms_MA_cm2")->as_number(), 0.0);

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.crashes, 2u);
  EXPECT_EQ(stats.quarantined_hashes, 1u);
  EXPECT_EQ(stats.quarantine_refusals, 1u);

  // The quarantine table is published for ping frames and sign-off.
  const report::Json doc = pool.supervise_json();
  const report::Json* table = doc.find("quarantine");
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->size(), 1u);
  EXPECT_TRUE(table->at(0).find("quarantined")->as_bool());
  EXPECT_EQ(table->at(0).find("crashes")->as_integer(), 2);

  // Clean traffic (other physics) still flows on a fresh worker.
  EXPECT_EQ(pool.execute(wire_request("clean-q", 0.2), 4).status,
            StatusCode::kOk);
  EXPECT_EQ(pool.stats().replies, 1u);
}

TEST(WorkerPool, PoisonUnderFreshIdsCrashesAtMostThresholdWorkers) {
  // Real clients pick a fresh correlation id per request. A poison payload
  // re-sent under 100 ids is still one payload: it may crash at most
  // quarantine_threshold workers, then the parent answers every repeat.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  for (int i = 0; i < 100; ++i) {
    const ExecuteResult result =
        pool.execute(wire_request("poison-" + std::to_string(i)),
                     static_cast<std::uint64_t>(i));
    EXPECT_FALSE(result.frame.empty()) << i;
  }
  const SuperviseStats stats = pool.stats();
  EXPECT_LE(stats.crashes, 2u);
  EXPECT_EQ(stats.quarantined_hashes, 1u);
  EXPECT_EQ(stats.quarantine_refusals, 98u);
}

TEST(WorkerPool, QuarantineIsTypedErrorWithoutTheAnalyticRung) {
  // A poison request whose problem does not build still crashes workers:
  // the crash arm fires before the service looks at the physics. Once it is
  // quarantined no rung can answer it, so the parent refuses it typed.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  service::Request poison = wire_request("poison-e");
  poison.wire.metal = "unobtainium";
  EXPECT_EQ(pool.execute(poison, 1).status, StatusCode::kWorkerCrashed);
  EXPECT_EQ(pool.execute(poison, 2).status, StatusCode::kWorkerCrashed);

  const ExecuteResult refused = pool.execute(poison, 3);
  EXPECT_EQ(refused.status, StatusCode::kWorkerCrashed);
  EXPECT_NE(field_string(payload_of(refused), "error").find("quarantined"),
            std::string::npos);
  EXPECT_EQ(pool.stats().crashes, 2u);  // refusals do not reach workers
}

// --- datagram capacity -------------------------------------------------------

TEST(WorkerPool, OversizeRequestIsTypedRefusalNotACrash) {
  // A request whose encoded message exceeds the (clamped) payload cap must
  // never be offered to the kernel: SEQPACKET refuses it with EMSGSIZE on a
  // LIVE child, and mistaking that for a crash used to blocking-wait on a
  // worker that never died.
  SuperviseConfig config = quiet_pool(1);
  config.max_payload_bytes = 4096;
  WorkerPool pool(config);
  ASSERT_EQ(pool.payload_cap(), 4096u);

  const service::Request fat = wire_request(std::string(12 * 1024, 'x'));
  const ExecuteResult refused = pool.execute(fat, 1);
  EXPECT_EQ(refused.status, StatusCode::kInvalidInput);
  EXPECT_NE(field_string(payload_of(refused), "error")
                .find("datagram capacity"),
            std::string::npos);

  // The worker never saw the request and is still in service: the next
  // clean request is answered by the SAME child — no crash, no refork.
  EXPECT_EQ(pool.live_workers(), 1u);
  EXPECT_EQ(pool.execute(wire_request("small-after-fat"), 2).status,
            StatusCode::kOk);

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.oversize_refusals, 1u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.forks, 1u);
}

TEST(WorkerPool, OversizeReplyKeepsResultsAndElidesOnlyTheDiag) {
  // Fatten the reply's diag chain deterministically: exhausting the child's
  // solver iterations fails the full solve and drives the degradation
  // ladder, which append several records to a still-kOk response.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault.kind = FaultKind::kExhaustIterations;
  config.limits.child_fault.kernel_substr = "selfconsistent";
  config.limits.child_fault.at_iteration = 1;

  const service::Request request = wire_request("fat-diag");
  std::size_t full_payload = 0;
  {
    WorkerPool wide(config);
    const ExecuteResult full = wide.execute(request, 9);
    ASSERT_EQ(full.status, StatusCode::kOk);
    ASSERT_GT(full.frame.size(), net::kFrameHeaderBytes);
    full_payload = full.frame.size() - net::kFrameHeaderBytes;
  }

  // One byte under the full reply: the worker must elide the diag chain,
  // NOT the numeric results, and NOT report a hollow kOk or a crash.
  SuperviseConfig tight = config;
  tight.max_payload_bytes = full_payload - 1;
  WorkerPool pool(tight);
  const ExecuteResult elided = pool.execute(request, 9);
  ASSERT_EQ(elided.status, StatusCode::kOk);
  const report::Json root = payload_of(elided);
  EXPECT_EQ(field_string(root, "id"), "fat-diag");
  const report::Json* solution = root.find("solution");
  ASSERT_NE(solution, nullptr);
  EXPECT_GT(solution->find("j_rms_MA_cm2")->as_number(), 0.0);
  EXPECT_NE(elided.frame.find("diag chain elided"), std::string::npos);

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.replies, 1u);
  EXPECT_EQ(stats.crashes, 0u);
}

// --- deadline kills vs quarantine --------------------------------------------

TEST(WorkerPool, ReplyDeadlineKillCountsTowardQuarantine) {
  // kCrashStall wedges the child in an endless sleep: only the supervised
  // reply deadline — measured from the successful send, so provably spent
  // inside the worker — can resolve it, and that kill DOES indict the hash.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashStall);
  config.reply_deadline_ns = 80ull * 1000 * 1000;
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  const service::Request poison = wire_request("poison-stall");
  const ExecuteResult first = pool.execute(poison, 1);
  EXPECT_EQ(first.status, StatusCode::kDeadlineExceeded);
  EXPECT_NE(field_string(payload_of(first), "error").find("reply deadline"),
            std::string::npos);
  // The second attempt exercises the lazy refork (through the fork broker,
  // from this thread — which is not the thread the pool was built on).
  EXPECT_EQ(pool.execute(poison, 2).status, StatusCode::kDeadlineExceeded);

  // Two pool-deadline kills reach the threshold: the parent's analytic rung
  // answers without any worker (or any 80 ms wait).
  const ExecuteResult refused = pool.execute(poison, 3);
  ASSERT_EQ(refused.status, StatusCode::kOk);
  EXPECT_TRUE(payload_of(refused).find("degraded")->as_bool());

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.deadline_kills, 2u);
  EXPECT_EQ(stats.crashes, 2u);
  EXPECT_EQ(stats.quarantined_hashes, 1u);
  EXPECT_EQ(stats.quarantine_refusals, 1u);
}

TEST(WorkerPool, AmbientDeadlineKillDoesNotQuarantine) {
  // An ambient (caller-budget) expiry may have burnt its budget queueing or
  // in restart backoff before the child ever started: the worker is killed
  // so the lane frees, but the request's hash is NOT indicted — two queue
  // delays must never add up to a permanent quarantine of a valid request.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashStall);
  config.quarantine_threshold = 1;  // a single counted kill would quarantine
  WorkerPool pool(config);

  const service::Request poison = wire_request("poison-ambient");
  {
    const core::RunContext context =
        core::RunContext::with_deadline_after(std::chrono::milliseconds(60));
    core::ScopedRunContext scope(context);
    const ExecuteResult killed = pool.execute(poison, 1);
    EXPECT_EQ(killed.status, StatusCode::kDeadlineExceeded);
    EXPECT_NE(field_string(payload_of(killed), "error").find("interrupted"),
              std::string::npos);
  }

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.deadline_kills, 1u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.quarantined_hashes, 0u);
  const report::Json doc = pool.supervise_json();
  const report::Json* table = doc.find("quarantine");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 0u);

  // Unquarantined and off the ambient clock, a clean request flows again
  // through a freshly reforked worker.
  EXPECT_EQ(pool.execute(wire_request("clean-after-ambient"), 2).status,
            StatusCode::kOk);
}

// --- concurrency -------------------------------------------------------------

TEST(WorkerPool, ConcurrentStormAnswersEveryRequestExactlyOnce) {
  SuperviseConfig config = quiet_pool(3);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::vector<std::vector<StatusCode>> results(kThreads);
  std::vector<int> clean_failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Two poison payloads shared across all threads (under per-request
        // ids, and with physics no clean request asks for), so their
        // hashes accrue crashes fleet-wide and quarantine mid-storm.
        const bool poison = i % 5 == 0;
        const std::string id =
            std::to_string(t) + "-" + std::to_string(i);
        const service::Request request =
            poison ? wire_request("poison-" + id, 0.1,
                                  0.6 + 0.1 * static_cast<double>(i / 5 % 2))
                   : wire_request("clean-" + id);
        const ExecuteResult result = pool.execute(
            request, static_cast<std::uint64_t>(t * kPerThread + i));
        EXPECT_FALSE(result.frame.empty());
        results[t].push_back(result.status);
        if (!poison && result.status != StatusCode::kOk) ++clean_failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::size_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    total += results[t].size();
    EXPECT_EQ(clean_failures[t], 0) << "thread " << t;
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads * kPerThread));

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Both poison hashes end up quarantined; racing lanes may land a few
  // extra crashes past the threshold before the table closes.
  EXPECT_EQ(stats.quarantined_hashes, 2u);
  EXPECT_GE(stats.crashes, 2u);
  EXPECT_GE(stats.quarantine_refusals, 1u);
}

TEST(WorkerPool, ShutdownRefusesNewWorkAndIsIdempotent) {
  WorkerPool pool(quiet_pool(2));
  EXPECT_EQ(pool.live_workers(), 2u);
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_EQ(pool.live_workers(), 0u);
  const ExecuteResult refused = pool.execute(wire_request("late"), 1);
  EXPECT_EQ(refused.status, StatusCode::kCancelled);
  EXPECT_FALSE(refused.frame.empty());
}

// --- crash-safe artifacts under process death --------------------------------

TEST(AtomicFileCrash, KilledWriterNeverTearsTheTarget) {
  const std::string path = ::testing::TempDir() + "dsmt_atomic_kill.txt";
  const std::string old_content =
      "OLD:" + std::string(64 * 1024, 'a') + "\nEND\n";
  const std::string new_content =
      "NEW:" + std::string(64 * 1024, 'b') + "\nEND\n";
  core::atomic_write_file(path, old_content);

  for (int round = 0; round < 5; ++round) {
    const ::pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // CHILD: hammer the target with atomic rewrites until killed. Never
      // unwind back into gtest.
      for (int i = 0; i < 100000; ++i) {
        try {
          core::atomic_write_file(path, new_content);
        } catch (...) {
          ::_exit(7);
        }
      }
      ::_exit(0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + 3 * round));
    (void)::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    // Whatever instant the SIGKILL landed, the target is one complete
    // generation — never a torn intermediate, never the temp file.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream content;
    content << in.rdbuf();
    const std::string seen = content.str();
    EXPECT_TRUE(seen == old_content || seen == new_content)
        << "round " << round << ": torn file of " << seen.size() << " bytes";
  }
  (void)std::remove(path.c_str());
}

// --- allocation failure at the service boundary ------------------------------

TEST(ServiceAdmission, BadAllocDuringSolveIsShedAsOverload) {
  // kThrowBadAlloc makes the solver's residual filter throw std::bad_alloc;
  // the service must classify it as overload (shed, retry elsewhere), not
  // as bad input, and must not mask memory pressure with the ladder.
  FaultPlan plan;
  plan.kind = FaultKind::kThrowBadAlloc;
  plan.kernel_substr = "numeric/";
  ScopedFault fault(plan);

  service::ServerConfig config;
  config.publish_signoff = false;
  service::Server server(config);
  const service::Response resp = server.handle(wire_request("heap-gone"), 1);
  EXPECT_EQ(resp.status, StatusCode::kRejectedOverload);
  EXPECT_NE(resp.error.find("allocation failure"), std::string::npos);
  EXPECT_EQ(server.metrics().shed, 1u);
}

}  // namespace
}  // namespace dsmt::supervise
