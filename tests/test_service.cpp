// Service-layer robustness suite (ctest label `service`): deterministic
// backoff (the worker-restart pacing schedule), bounded admission with
// explicit shedding, the conservative degradation ladder under ScopedFault
// injection, the strict request codec, and batch responses that are
// bit-identical across thread counts and depend only on their own request.
// Arms process-global fault plans and mutates the global thread count, so
// it lives in its own executable like the fault-injection and resilience
// suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
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
  return {FaultKind::kNanResidual, "numeric/b", 1, 0.0, ""};
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

// --- admission control -------------------------------------------------------

TEST(Admission, ShedsBeyondQueueCapacityDeterministically) {
  {
    ServerConfig cfg;  // publishes its section under the sign-off key
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

    // The same counters land under the sign-off "service" key while the
    // server is alive.
    auto source = core::signoff_service_source();
    ASSERT_TRUE(static_cast<bool>(source));
    const report::Json section = source();
    const report::Json* queue = section.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(queue->find("shed")->as_integer(), 6);
    EXPECT_NE(section.find("outcomes"), nullptr);
    EXPECT_EQ(section.find("breaker"), nullptr);
  }
  EXPECT_FALSE(static_cast<bool>(core::signoff_service_source()));
}

TEST(Admission, ZeroCapacityAdmitsNothing) {
  // Capacity 0 sheds the whole burst, and the replies, the counters and the
  // service section all say so.
  ServerConfig cfg = quiet_config();
  cfg.queue_capacity = 0;
  Server server(cfg);
  const std::vector<Request> batch = {wire_request("a"), wire_request("b")};
  const std::vector<Response> responses = server.submit_batch(batch);
  ASSERT_EQ(responses.size(), 2u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, batch[i].id);
    EXPECT_EQ(responses[i].status, core::StatusCode::kRejectedOverload) << i;
    EXPECT_EQ(responses[i].error,
              "shed at admission: burst exceeded queue capacity 0")
        << i;
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.received, 2u);
  EXPECT_EQ(m.admitted, 0u);
  EXPECT_EQ(m.shed, 2u);
  EXPECT_EQ(m.ok_full, 0u);
  const report::Json section = server.service_json();
  const report::Json* queue = section.find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->find("capacity")->as_integer(), 0);
  EXPECT_EQ(queue->find("admitted")->as_integer(), 0);
  EXPECT_EQ(queue->find("shed")->as_integer(), 2);
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
    if (i == 10) {
      // A run of requests whose own solve fails (no sign change below
      // t_ref + 5000 K at this j0). Each steps down the ladder on its own
      // account; none may change the answer to any other request.
      for (int k = 0; k < 6; ++k) {
        Request hot;
        hot.id = "hot-" + std::to_string(k);
        hot.j0_MA_cm2 = 1e7;
        batch.push_back(hot);
      }
    }
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
  constexpr std::size_t kCapacity = 32;  // some shedding in the payload too
  std::vector<std::string> replies;
  auto payload_at = [&](std::size_t threads) {
    parallel::set_thread_count(threads);
    ServerConfig cfg = quiet_config();
    cfg.queue_capacity = kCapacity;
    Server server(cfg);
    replies.clear();
    std::string payload;
    for (const Response& resp : server.submit_batch(batch)) {
      replies.push_back(response_to_json(resp).dump(2));
      payload += replies.back() + "\n";
    }
    return payload;
  };
  const std::string serial = payload_at(1);
  const std::string wide = payload_at(8);
  EXPECT_EQ(serial, wide);
  EXPECT_NE(serial.find("rejected-overload"), std::string::npos);
  EXPECT_NE(serial.find("invalid-input"), std::string::npos);

  // Every admitted reply is the one a fresh server gives that request
  // alone: requests share no state but the solve cache.
  ASSERT_EQ(replies.size(), batch.size());
  std::size_t failed_solves = 0;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    Server fresh(quiet_config());
    const Response alone = fresh.handle(batch[i]);
    EXPECT_EQ(replies[i], response_to_json(alone).dump(2)) << batch[i].id;
    if (alone.degraded) {
      ++failed_solves;
      EXPECT_EQ(alone.attempts, 1) << batch[i].id;
    }
  }
  EXPECT_EQ(failed_solves, 6u);
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

// --- deadline budget ---------------------------------------------------------

// The largest budgets a caller can configure mean "no practical deadline":
// now + budget saturates at the clock's end instead of wrapping into the
// past, so neither answers deadline-exceeded.
TEST(Deadline, LargestBudgetsAnswerOk) {
  for (const std::uint64_t budget_ns :
       {std::numeric_limits<std::uint64_t>::max(),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())}) {
    ServerConfig config = quiet_config();
    config.deadline_ns = budget_ns;
    Server server(config);
    const Response r = server.handle(wire_request("wide-budget"));
    EXPECT_EQ(r.status, core::StatusCode::kOk) << budget_ns;
    EXPECT_FALSE(r.degraded) << budget_ns;
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
  auto expect_invalid = [](const std::string& text,
                           const std::string& names = "") {
    try {
      parse_batch(text);
      FAIL() << "expected SolveError for: " << text;
    } catch (const SolveError& e) {
      EXPECT_EQ(e.status(), core::StatusCode::kInvalidInput) << text;
      EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
          << e.what();
    }
  };
  expect_invalid("42");                               // not a batch shape
  expect_invalid("{\"no_requests\": []}");
  expect_invalid("[{\"kind\": \"warp-drive\"}]");     // unknown kind
  expect_invalid("[{\"kind\": [1]}]");                // wrong field type
  expect_invalid("[{\"wire\": 3}]");
  expect_invalid("[{\"kind\": \"table\"}]");          // missing technology
  expect_invalid("[oops]");                           // not JSON at all
  // A misspelled field must not silently fall back to its default.
  expect_invalid("[{\"duty\": 0.5}]", "'duty'");
  expect_invalid("[{\"wire\": {\"width\": 0.3}}]", "'width'");
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
