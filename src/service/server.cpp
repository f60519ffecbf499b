#include "service/server.h"

#include <exception>
#include <new>
#include <optional>
#include <string>
#include <utility>

#include "core/run_context.h"
#include "core/signoff.h"
#include "parallel/parallel_for.h"
#include "selfconsistent/batch.h"

namespace dsmt::service {

namespace {

/// The reply a clean solve of `request` gets, rebuilt from a verified
/// solve-cache hit: byte for byte the cold reply. `ladder` must be
/// build_problem(request).
Response replay_hit(const Request& request, const LadderProblem& ladder,
                    const cache::CachedSolve& hit) {
  Response resp;
  resp.id = request.id;
  resp.kind = request.kind;
  resp.attempts = 1;
  answer_full(resp, request, ladder, cache::to_solution(hit));
  return resp;
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.publish_signoff)
    core::set_signoff_service_source(this, [this] { return service_json(); });
}

Server::~Server() {
  if (config_.publish_signoff) core::clear_signoff_service_source(this);
}

std::vector<Response> Server::submit_batch(
    const std::vector<Request>& batch) {
  received_ += batch.size();
  const std::size_t capacity =
      config_.queue_capacity > 0 ? config_.queue_capacity : 1;

  // Admission first, serially, in index order: the burst either fits in the
  // bounded queue or is shed. No thread ever influences the decision, so
  // identical batches admit identically at every DSMT_THREADS value.
  std::vector<std::size_t> admitted;
  admitted.reserve(batch.size() < capacity ? batch.size() : capacity);
  std::vector<Response> out(batch.size());
  std::vector<char> served(batch.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (admitted.size() < capacity) {
      admitted.push_back(i);
    } else {
      out[i] = failure_response(
          batch[i], core::StatusCode::kRejectedOverload, "service/admission",
          "shed at admission: burst exceeded queue capacity " +
              std::to_string(config_.queue_capacity));
      served[i] = 1;
      ++shed_;
    }
  }
  admitted_ += admitted.size();

  try {
    parallel::parallel_for(admitted.size(), [&](std::size_t k) {
      const std::size_t i = admitted[k];
      out[i] = guarded_execute(batch[i]);
      served[i] = 1;
    });
  } catch (const SolveError& interruption) {
    // Only a caller-context interruption (deadline / cancel observed by
    // parallel_for between items) reaches here: guarded_execute never
    // throws. Stamp every unserved slot so the batch stays complete, then
    // let the interruption propagate to the caller who armed it.
    for (const std::size_t i : admitted) {
      if (served[i]) continue;
      out[i] = failure_response(batch[i], interruption);
      ++failed_;
    }
    throw;
  }
  return out;
}

Response Server::handle(const Request& request, std::size_t /*index*/) {
  ++received_;
  ++admitted_;
  return guarded_execute(request);
}

Response Server::guarded_execute(const Request& request) {
  try {
    return execute(request);
  } catch (const SolveError& e) {
    ++failed_;
    return failure_response(request, e);
  } catch (const std::bad_alloc&) {
    // Allocation failure is admission-boundary overload, not bad input:
    // shed this request with the overload status so callers retry it
    // elsewhere instead of discarding it as malformed. Deliberately builds
    // only a slim response — the heap just refused us.
    ++shed_;
    return failure_response(request, core::StatusCode::kRejectedOverload,
                            "service/admission",
                            "allocation failure: request shed at admission");
  } catch (const std::exception& e) {
    ++failed_;
    return failure_response(request, core::StatusCode::kInvalidInput,
                            "service/execute", e.what());
  }
}

Response Server::execute(const Request& request) {
  LadderProblem ladder;
  try {
    ladder = build_problem(request);
  } catch (const SolveError& e) {
    ++failed_;
    return failure_response(request, e);
  } catch (const std::exception& e) {
    ++failed_;
    return failure_response(request, core::StatusCode::kInvalidInput,
                            "service/request", e.what());
  }

  // Per-request deadline budget, unless the caller's ambient deadline is
  // already tighter. The copy shares the caller's cancel token, so a batch
  // cancel still interrupts a request mid-deadline.
  std::optional<core::RunContext> deadline_ctx;
  std::optional<core::ScopedRunContext> deadline_scope;
  if (config_.deadline_ns > 0) {
    const core::RunContext* ambient = core::current_run_context();
    const double budget_s =
        static_cast<double>(config_.deadline_ns) * 1e-9;
    if (ambient == nullptr || !ambient->has_deadline() ||
        ambient->seconds_remaining() > budget_s) {
      deadline_ctx = ambient != nullptr ? *ambient : core::RunContext{};
      deadline_ctx->set_deadline(core::deadline_after(config_.deadline_ns));
      deadline_scope.emplace(*deadline_ctx);
    }
  }

  // One cache lookup. A verified hit replays the cold path's exact reply
  // bytes; a miss solves below and publishes what it solved.
  cache::SolveCache* const solve_cache = config_.solve_cache.get();
  std::string cache_key;
  if (solve_cache != nullptr) {
    cache_key = cache::canonical_key(request);
    cache::CachedSolve hit;
    if (solve_cache->lookup(cache_key, hit)) {
      ++ok_full_;
      return replay_hit(request, ladder, hit);
    }
  }

  // Rung 0: one full quasi-2D solve. It is pure, so a failure is a property
  // of this request's inputs: it steps this request down the ladder and
  // changes nothing for any other.
  Response resp;
  resp.id = request.id;
  resp.kind = request.kind;
  resp.attempts = 1;
  bool solved = false;
  selfconsistent::Solution solution;
  core::StatusCode failure = core::StatusCode::kOk;
  try {
    solution = selfconsistent::solve_one(ladder.full);
    solved = true;
  } catch (const SolveError& e) {
    failure = e.status();
    resp.diag.absorb(e.diag(), "service/attempt 1");
  } catch (const std::bad_alloc&) {
    // Not a solver failure: the heap refused us mid-solve. Rethrow so
    // guarded_execute sheds the request as kRejectedOverload instead of
    // the ladder masking memory pressure with further allocation.
    throw;
  } catch (const std::exception& e) {
    failure = core::StatusCode::kInvalidInput;
    resp.diag.record("service/attempt", core::StatusCode::kInvalidInput, 1,
                     0.0, e.what());
  }

  if (solved) {
    answer_full(resp, request, ladder, solution);
    // Only a CANONICAL solve is cacheable: the synthesized single-event
    // diag. A recovered solve carries history a hit could not replay
    // byte-identically.
    if (solve_cache != nullptr && cache::canonical_solve(solution))
      solve_cache->publish(cache_key, cache::from_solution(solution));
    ++ok_full_;
    return resp;
  }

  // An interrupted request gets no degraded answer: the caller's budget is
  // gone and any reply would arrive too late to be acted on.
  if (core::is_interruption(failure)) {
    resp.status = failure;
    resp.error = std::string("request interrupted (") +
                 core::status_name(failure) + ")";
    ++failed_;
    return resp;
  }

  // Rung 2: iteration-free analytic quasi-1D bound.
  try {
    answer_bound(resp, request, ladder,
                 analytic_quasi1d_bound(ladder.quasi1d));
    resp.diag.record("service/degrade", core::StatusCode::kOk, 2, 0.0,
                     "rung 2: quasi-1D analytic bound (phi = 0.88)");
    ++ok_analytic_;
    return resp;
  } catch (const std::exception& e) {
    resp.diag.record("service/degrade", core::StatusCode::kInvalidInput, 2,
                     0.0, e.what());
  }

  resp.status = failure;
  resp.error = std::string("full solve unavailable (") +
               core::status_name(failure) +
               ") and no degradation rung applies";
  ++failed_;
  return resp;
}

ServerMetrics Server::metrics() const {
  ServerMetrics m;
  m.received = received_.load();
  m.admitted = admitted_.load();
  m.shed = shed_.load();
  m.ok_full = ok_full_.load();
  m.ok_analytic = ok_analytic_.load();
  m.failed = failed_.load();
  return m;
}

report::Json Server::service_json() const {
  using report::Json;
  const ServerMetrics m = metrics();
  Json root = Json::object();

  Json queue = Json::object();
  queue
      .set("capacity",
           Json::integer(static_cast<long long>(config_.queue_capacity)))
      .set("received", Json::integer(static_cast<long long>(m.received)))
      .set("admitted", Json::integer(static_cast<long long>(m.admitted)))
      .set("shed", Json::integer(static_cast<long long>(m.shed)));
  root.set("queue", std::move(queue));

  Json outcomes = Json::object();
  outcomes
      .set("ok_full", Json::integer(static_cast<long long>(m.ok_full)))
      .set("ok_analytic",
           Json::integer(static_cast<long long>(m.ok_analytic)))
      .set("failed", Json::integer(static_cast<long long>(m.failed)));
  root.set("outcomes", std::move(outcomes));

  if (config_.solve_cache != nullptr) {
    Json cache = Json::object();
    cache.set("solve", config_.solve_cache->cache_json());
    root.set("cache", std::move(cache));
  }
  return root;
}

}  // namespace dsmt::service
