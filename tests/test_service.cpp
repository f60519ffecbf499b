// Service-layer robustness suite (ctest label `service`): deterministic
// backoff (the worker-restart pacing schedule), breaker state machine under
// ScopedFault injection, bounded admission with explicit shedding, the
// conservative degradation ladder, and bit-identical batch responses across
// thread counts. Arms process-global fault plans and mutates the global
// thread count, so it lives in its own executable like the fault-injection
// and resilience suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/signoff.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "service/retry.h"
#include "service/server.h"

namespace dsmt::service {
namespace {

using numeric::fault::FaultKind;
using numeric::fault::FaultPlan;
using numeric::fault::ScopedFault;

/// Kill the solver terminally: NaN residuals in Brent AND its bisection
/// fallback ("numeric/b" matches both), so no recovery stage can save it.
FaultPlan kill_solver() {
  return {FaultKind::kNanResidual, "numeric/b", 1, 0.0};
}

Request wire_request(const std::string& id, double duty = 0.1,
                     double width_um = 0.5) {
  Request r;
  r.id = id;
  r.kind = RequestKind::kSelfConsistent;
  r.duty_cycle = duty;
  r.wire.width_um = width_um;
  r.wire.thickness_um = 0.9;
  r.wire.dielectric_um = 0.8;
  return r;
}

ServerConfig quiet_config() {
  ServerConfig c;
  c.publish_signoff = false;
  return c;
}

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

// --- backoff determinism -----------------------------------------------------

TEST(Retry, BackoffIsPureAndBounded) {
  const RetryPolicy policy;
  const std::uint64_t key = mix64(7);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const std::uint64_t a = backoff_ns(policy, key, attempt);
    const std::uint64_t b = backoff_ns(policy, key, attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;
    // Within [ramp*(1-jitter), cap*(1+jitter)].
    EXPECT_GE(a, static_cast<std::uint64_t>(
                     static_cast<double>(policy.base_backoff_ns) *
                     (1.0 - policy.jitter)));
    EXPECT_LE(a, static_cast<std::uint64_t>(
                     static_cast<double>(policy.max_backoff_ns) *
                     (1.0 + policy.jitter) + 1.0));
  }
  // Distinct keys draw distinct jitter even at the same attempt.
  EXPECT_NE(backoff_ns(policy, mix64(0), 1), backoff_ns(policy, mix64(1), 1));
}

TEST(Retry, ScheduleBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const RetryPolicy policy;
  constexpr std::size_t kN = 256;
  auto schedule_at = [&](std::size_t threads) {
    parallel::set_thread_count(threads);
    return parallel::parallel_map<std::uint64_t>(kN, [&](std::size_t i) {
      const std::uint64_t key = mix64(i);
      std::uint64_t folded = 0;
      for (int attempt = 1; attempt <= 4; ++attempt)
        folded = mix64(folded ^ backoff_ns(policy, key, attempt));
      return folded;
    });
  };
  const std::vector<std::uint64_t> serial = schedule_at(1);
  const std::vector<std::uint64_t> wide = schedule_at(8);
  EXPECT_EQ(serial, wide);
}

// --- breaker state machine ---------------------------------------------------

TEST(Breaker, ClosedOpenHalfOpenClosed) {
  BreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.open_ticks = 2;
  cfg.half_open_successes = 1;
  CircuitBreaker breaker("kernel-under-test", cfg);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  ASSERT_TRUE(breaker.allow());  // tick 1
  breaker.on_failure(core::StatusCode::kNonFinite);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  ASSERT_TRUE(breaker.allow());  // tick 2
  breaker.on_failure(core::StatusCode::kNonFinite);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  EXPECT_FALSE(breaker.allow());  // tick 3: cooling
  EXPECT_FALSE(breaker.allow());  // tick 4: cooling
  ASSERT_TRUE(breaker.allow());   // tick 5: half-open probe admitted
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.on_failure(core::StatusCode::kMaxIterations);  // probe fails
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  EXPECT_FALSE(breaker.allow());  // tick 6
  EXPECT_FALSE(breaker.allow());  // tick 7
  ASSERT_TRUE(breaker.allow());   // tick 8: probe again
  breaker.on_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_EQ(breaker.short_circuits(), 4u);
  const std::vector<BreakerTransition> log = breaker.transitions();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[0].to, BreakerState::kOpen);
  EXPECT_EQ(log[1].to, BreakerState::kHalfOpen);
  EXPECT_EQ(log[2].to, BreakerState::kOpen);
  EXPECT_EQ(log[3].to, BreakerState::kHalfOpen);
  EXPECT_EQ(log[4].to, BreakerState::kClosed);

  core::SolverDiag diag;
  breaker.record_into(diag);
  ASSERT_EQ(diag.chain.size(), 5u);
  EXPECT_EQ(diag.chain[0].kernel, "service/breaker[kernel-under-test]");
  EXPECT_EQ(diag.chain[0].status, core::StatusCode::kBreakerOpen);
  EXPECT_EQ(diag.chain[4].status, core::StatusCode::kOk);
}

TEST(Breaker, HalfOpenAdmitsOneProbeAtATime) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_ticks = 1;
  CircuitBreaker breaker("k", cfg);
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure(core::StatusCode::kNonFinite);
  EXPECT_FALSE(breaker.allow());  // cooling
  ASSERT_TRUE(breaker.allow());   // the probe slot
  EXPECT_FALSE(breaker.allow());  // probe in flight: everyone else waits
  breaker.on_success();
  EXPECT_TRUE(breaker.allow());   // closed again
  breaker.on_success();
}

TEST(Breaker, NonCountingProbeFailureReleasesTheProbeSlot) {
  // A half-open probe that ends in a deadline/cancel or kInvalidInput says
  // nothing about kernel health, but it still terminates the allowed
  // attempt: the probe slot must come back, or the breaker wedges with
  // probe_in_flight_ stuck true and every later allow() short-circuits.
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_ticks = 1;
  CircuitBreaker breaker("k", cfg);
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure(core::StatusCode::kNonFinite);  // opens
  EXPECT_FALSE(breaker.allow());                     // cooling
  ASSERT_TRUE(breaker.allow());                      // probe slot claimed
  breaker.on_failure(core::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  ASSERT_TRUE(breaker.allow());  // fresh probe, not wedged
  breaker.on_failure(core::StatusCode::kCancelled);
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure(core::StatusCode::kInvalidInput);
  ASSERT_TRUE(breaker.allow());
  breaker.on_success();  // kernel is actually fine: probe closes it
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  ASSERT_TRUE(breaker.allow());
  breaker.on_success();
}

TEST(Breaker, InterruptionsAndBadInputDoNotCount) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  CircuitBreaker breaker("k", cfg);
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure(core::StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure(core::StatusCode::kCancelled);
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure(core::StatusCode::kInvalidInput);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure(core::StatusCode::kNonFinite);  // a real one: trips
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(Breaker, FullCycleDrivenByScopedFaultThroughServer) {
  ServerConfig cfg = quiet_config();
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_ticks = 1;
  Server server(cfg);

  // A healthy full solve of the very geometry the faults below will hit.
  const Response solved = server.handle(wire_request("solved"), 0);
  ASSERT_TRUE(solved.ok());
  ASSERT_EQ(solved.degradation_level, DegradationLevel::kFull);

  std::vector<Response> responses;
  {
    ScopedFault fault(kill_solver());
    for (int i = 0; i < 4; ++i)
      responses.push_back(
          server.handle(wire_request("f" + std::to_string(i)), 0));
  }
  // Faults disarmed again. The reopen above restarted the cooling window,
  // so one more poll short-circuits, then the probe is admitted, succeeds,
  // and closes the breaker.
  responses.push_back(server.handle(wire_request("cooling"), 0));
  responses.push_back(server.handle(wire_request("probe"), 0));
  responses.push_back(server.handle(wire_request("after"), 0));

  // Every response while the solver was unavailable still answered,
  // degraded and conservative, via the analytic rung.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(responses[i].ok()) << i;
    EXPECT_TRUE(responses[i].degraded) << i;
    EXPECT_EQ(responses[i].degradation_level,
              DegradationLevel::kAnalyticBound) << i;
    EXPECT_TRUE(responses[i].conservative) << i;
  }
  EXPECT_EQ(responses[0].attempts, 1);
  EXPECT_EQ(responses[1].attempts, 1);   // second failure opens the breaker
  EXPECT_EQ(responses[2].attempts, 0);   // short-circuited (cooling)
  EXPECT_EQ(responses[3].attempts, 1);   // half-open probe, fails, reopens
  EXPECT_EQ(responses[4].attempts, 0);   // cooling again after the reopen
  // The geometry solved above is answered by the analytic rung while the
  // breaker is open, below its own full solve.
  EXPECT_LE(responses[2].j_rms_MA_cm2, solved.j_rms_MA_cm2);
  EXPECT_LE(responses[4].j_rms_MA_cm2, solved.j_rms_MA_cm2);
  EXPECT_EQ(responses[5].attempts, 1);   // probe after disarm: succeeds
  EXPECT_FALSE(responses[5].degraded);
  EXPECT_EQ(responses[5].degradation_level, DegradationLevel::kFull);
  EXPECT_FALSE(responses[6].degraded);
  EXPECT_EQ(server.breaker().state(), BreakerState::kClosed);

  // The transition history tells the whole story, in order.
  std::vector<BreakerState> to;
  for (const BreakerTransition& t : server.breaker().transitions())
    to.push_back(t.to);
  const std::vector<BreakerState> expected = {
      BreakerState::kOpen, BreakerState::kHalfOpen, BreakerState::kOpen,
      BreakerState::kHalfOpen, BreakerState::kClosed};
  EXPECT_EQ(to, expected);

  // And the same history lands under the sign-off "service" key while the
  // server is alive (it was created with publish_signoff=false, so register
  // a publishing one to check the plumbing).
  {
    ServerConfig pub = quiet_config();
    pub.publish_signoff = true;
    Server publisher(pub);
    auto source = core::signoff_service_source();
    ASSERT_TRUE(static_cast<bool>(source));
    const report::Json section = source();
    EXPECT_NE(section.find("breaker"), nullptr);
    EXPECT_NE(section.find("queue"), nullptr);
  }
  EXPECT_FALSE(static_cast<bool>(core::signoff_service_source()));
}

// --- admission control -------------------------------------------------------

TEST(Admission, ShedsBeyondQueueCapacityDeterministically) {
  ServerConfig cfg = quiet_config();
  cfg.queue_capacity = 4;
  Server server(cfg);
  std::vector<Request> batch;
  for (int i = 0; i < 10; ++i)
    batch.push_back(wire_request("r" + std::to_string(i)));
  const std::vector<Response> responses = server.submit_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, batch[i].id);
    if (i < 4) {
      EXPECT_TRUE(responses[i].ok()) << i;
    } else {
      EXPECT_EQ(responses[i].status, core::StatusCode::kRejectedOverload)
          << i;
      EXPECT_FALSE(responses[i].error.empty());
      EXPECT_FALSE(responses[i].diag.chain.empty());
    }
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.received, 10u);
  EXPECT_EQ(m.admitted, 4u);
  EXPECT_EQ(m.shed, 6u);
  EXPECT_EQ(m.ok_full, 4u);
}

TEST(Admission, ChaosBatchAlwaysGetsTerminalStructuredResponses) {
  ThreadCountGuard guard;
  parallel::set_thread_count(8);
  ServerConfig cfg = quiet_config();
  cfg.queue_capacity = 8;  // saturated: 1000 requests against 8 slots
  Server server(cfg);

  std::vector<Request> batch;
  batch.reserve(1000);
  for (int i = 0; i < 1000; ++i)
    batch.push_back(wire_request("chaos-" + std::to_string(i),
                                 i % 2 == 0 ? 0.1 : 0.33,
                                 0.4 + 0.01 * (i % 7)));
  std::vector<Response> responses;
  {
    ScopedFault fault(kill_solver());
    responses = server.submit_batch(batch);
  }
  ASSERT_EQ(responses.size(), batch.size());
  std::size_t shed = 0, degraded = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& resp = responses[i];
    EXPECT_EQ(resp.id, batch[i].id);
    // Terminal and structured: kOk (possibly degraded, then with a level
    // and the conservative guarantee) or an explicit classified failure.
    if (resp.ok()) {
      if (resp.degraded) {
        ++degraded;
        EXPECT_NE(resp.degradation_level, DegradationLevel::kFull);
        EXPECT_TRUE(resp.conservative);
      }
    } else {
      EXPECT_FALSE(resp.error.empty()) << i;
      if (resp.status == core::StatusCode::kRejectedOverload) ++shed;
    }
  }
  EXPECT_EQ(shed, 992u);      // everything beyond the 8 queue slots
  EXPECT_EQ(degraded, 8u);    // every admitted request degraded gracefully
}

TEST(Admission, BatchBitwiseIdenticalAcrossThreadCountsWhenDisarmed) {
  ThreadCountGuard guard;
  std::vector<Request> batch;
  for (int i = 0; i < 48; ++i) {
    if (i % 11 == 7) {
      // A malformed request rides along: its structured kInvalidInput
      // response must be deterministic too.
      Request bad = wire_request("bad-" + std::to_string(i));
      bad.duty_cycle = 0.0;
      batch.push_back(bad);
    } else if (i % 5 == 3) {
      Request cell;
      cell.id = "cell-" + std::to_string(i);
      cell.kind = RequestKind::kTableCell;
      cell.technology = "NTRS-250nm-Cu";
      cell.level = 1 + i % 5;
      cell.duty_cycle = i % 2 == 0 ? 0.1 : 1.0;
      batch.push_back(cell);
    } else {
      batch.push_back(wire_request("w-" + std::to_string(i),
                                   i % 3 == 0 ? 0.1 : 0.3,
                                   0.35 + 0.02 * (i % 9)));
    }
  }
  auto payload_at = [&](std::size_t threads) {
    parallel::set_thread_count(threads);
    ServerConfig cfg = quiet_config();
    cfg.queue_capacity = 32;  // some shedding in the payload too
    Server server(cfg);
    std::string payload;
    for (const Response& resp : server.submit_batch(batch))
      payload += response_to_json(resp).dump(2) + "\n";
    return payload;
  };
  const std::string serial = payload_at(1);
  const std::string wide = payload_at(8);
  EXPECT_EQ(serial, wide);
  EXPECT_NE(serial.find("rejected-overload"), std::string::npos);
  EXPECT_NE(serial.find("invalid-input"), std::string::npos);
}

// --- degradation ladder ------------------------------------------------------

TEST(Degrade, AnalyticBoundIsFeasibleAndBelowFullSolve) {
  for (const double duty : {0.05, 0.1, 0.3, 1.0}) {
    const Request req = wire_request("bound", duty);
    const LadderProblem ladder = build_problem(req);

    const AnalyticBound bound = analytic_quasi1d_bound(ladder.quasi1d);
    ASSERT_GT(bound.j_rms.value(), 0.0) << "r = " << duty;

    // Feasibility at the reported temperature: thermally below the trial
    // temperature, EM-compliant at it (Black's rule tightens as T rises, so
    // checking at the pessimistic trial temperature is the strong form).
    EXPECT_LE(bound.j_rms.value(),
              selfconsistent::jrms_thermal_at(ladder.quasi1d, bound.t_metal)
                      .value() *
                  (1.0 + 1e-12));
    EXPECT_LE(bound.j_avg.value(),
              selfconsistent::javg_em_at(ladder.quasi1d, bound.t_metal)
                      .value() *
                  (1.0 + 1e-12));

    // Conservative against the full quasi-2D self-consistent answer.
    const selfconsistent::Solution full =
        selfconsistent::solve(ladder.full);
    EXPECT_LE(bound.j_rms.value(), full.j_rms.value()) << "r = " << duty;
    // And against the quasi-1D self-consistent answer too (grid max of a
    // min is a lower bound on the true crossing).
    const selfconsistent::Solution q1d =
        selfconsistent::solve(ladder.quasi1d);
    EXPECT_LE(bound.j_rms.value(), q1d.j_rms.value()) << "r = " << duty;
    // The bound is useful, not vacuous: within a factor ~2 of the quasi-1D
    // truth on these geometries (grid resolution + min() slack).
    EXPECT_GT(bound.j_rms.value(), 0.4 * q1d.j_rms.value()) << duty;
  }
}

// --- request/response codec --------------------------------------------------

TEST(Codec, RequestRoundTripsThroughJson) {
  Request r = wire_request("id-\"quoted\"\n\x01", 0.3, 0.7);
  r.kind = RequestKind::kDutyCyclePoint;
  r.j0_MA_cm2 = 1.8;
  r.t_ref_c = 85.0;
  const Request back =
      request_from_json(report::Json::parse(request_to_json(r).dump(2)));
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.kind, r.kind);
  EXPECT_DOUBLE_EQ(back.duty_cycle, r.duty_cycle);
  EXPECT_DOUBLE_EQ(back.j0_MA_cm2, r.j0_MA_cm2);
  EXPECT_DOUBLE_EQ(back.t_ref_c, r.t_ref_c);
  EXPECT_DOUBLE_EQ(back.wire.width_um, r.wire.width_um);

  Request cell;
  cell.id = "t";
  cell.kind = RequestKind::kTableCell;
  cell.technology = "NTRS-100nm-AlCu";
  cell.level = 6;
  cell.dielectric = "polymer";
  const Request cell_back =
      request_from_json(report::Json::parse(request_to_json(cell).dump(-1)));
  EXPECT_EQ(cell_back.kind, RequestKind::kTableCell);
  EXPECT_EQ(cell_back.technology, cell.technology);
  EXPECT_EQ(cell_back.level, cell.level);
  EXPECT_EQ(cell_back.dielectric, cell.dielectric);
}

TEST(Codec, MalformedRequestsClassifyAsInvalidInput) {
  auto expect_invalid = [](const std::string& text) {
    try {
      parse_batch(text);
      FAIL() << "expected SolveError for: " << text;
    } catch (const SolveError& e) {
      EXPECT_EQ(e.status(), core::StatusCode::kInvalidInput) << text;
    }
  };
  expect_invalid("42");                               // not a batch shape
  expect_invalid("{\"no_requests\": []}");
  expect_invalid("[{\"kind\": \"warp-drive\"}]");     // unknown kind
  expect_invalid("[{\"kind\": [1]}]");                // wrong field type
  expect_invalid("[{\"wire\": 3}]");
  expect_invalid("[{\"kind\": \"table\"}]");          // missing technology
  expect_invalid("[oops]");                           // not JSON at all
  // 'level' outside int range or non-integral must classify, not hit a
  // double->int cast whose out-of-range behavior is undefined.
  expect_invalid(
      "[{\"kind\": \"table\", \"technology\": \"NTRS-250nm-Cu\","
      " \"level\": 1e300}]");
  expect_invalid(
      "[{\"kind\": \"table\", \"technology\": \"NTRS-250nm-Cu\","
      " \"level\": 2.5}]");
  expect_invalid(
      "[{\"kind\": \"table\", \"technology\": \"NTRS-250nm-Cu\","
      " \"level\": -3e9}]");

  // Accepted shapes: bare array and {"requests": [...]}.
  EXPECT_EQ(parse_batch("[]").size(), 0u);
  EXPECT_EQ(parse_batch("{\"requests\": [{}, {}]}").size(), 2u);

  // Malformed *values* surface as structured responses, not exceptions.
  Server server(quiet_config());
  Request bad = wire_request("bad");
  bad.wire.width_um = -1.0;
  const Response resp = server.handle(bad, 0);
  EXPECT_EQ(resp.status, core::StatusCode::kInvalidInput);
  EXPECT_FALSE(resp.error.empty());
  Request unknown_metal = wire_request("m");
  unknown_metal.wire.metal = "unobtainium";
  EXPECT_EQ(server.handle(unknown_metal, 0).status,
            core::StatusCode::kInvalidInput);
  // ... and never move the breaker.
  EXPECT_EQ(server.breaker().state(), BreakerState::kClosed);
  EXPECT_EQ(server.metrics().failed, 2u);
}

TEST(Codec, ResponsePayloadNumbersAreFinite) {
  Server server(quiet_config());
  const Response resp = server.handle(wire_request("fin"), 0);
  ASSERT_TRUE(resp.ok());
  const std::string dumped = response_to_json(resp).dump(-1);
  EXPECT_EQ(dumped.find("nan"), std::string::npos);
  EXPECT_EQ(dumped.find("inf"), std::string::npos);
  // Round-trips through the parser.
  const report::Json back = report::Json::parse(dumped);
  ASSERT_NE(back.find("solution"), nullptr);
  EXPECT_GT(back.find("solution")->find("j_rms_MA_cm2")->as_number(), 0.0);
}

// --- bounded thread-pool queue ----------------------------------------------

TEST(Pool, BoundedQueueDrainsBurstsWithoutGrowth) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  const std::size_t old_mark = parallel::queue_high_water();
  parallel::set_queue_high_water(2);
  EXPECT_EQ(parallel::queue_high_water(), 2u);

  const std::uint64_t drained_before = parallel::tasks_drained();
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i)
    parallel::pool_submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    });
  // The producer above blocked at the high-water mark instead of queueing
  // all 64; wait for the drain.
  for (int spin = 0; spin < 4000 && ran.load() < kTasks; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GE(parallel::tasks_drained() - drained_before,
            static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(parallel::queue_peak_depth(), 1u);

  // Clamp: the mark can never be zero (that would wedge every producer).
  parallel::set_queue_high_water(0);
  EXPECT_EQ(parallel::queue_high_water(), 1u);
  parallel::set_queue_high_water(old_mark);
}

}  // namespace
}  // namespace dsmt::service
