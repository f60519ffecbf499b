#include "service/server.h"

#include <algorithm>
#include <exception>
#include <new>
#include <optional>
#include <string>
#include <utility>

#include "core/run_context.h"
#include "core/signoff.h"
#include "parallel/parallel_for.h"
#include "selfconsistent/solver.h"

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

void Server::serve_batch(const std::vector<Request>& batch,
                         const ReplySink& sink) {
  received_ += batch.size();

  // Admission first, serially, in index order: the burst either fits in the
  // bounded queue or is shed. No thread ever influences the decision, so
  // identical batches admit identically at every DSMT_THREADS value. In
  // index order, the admitted requests are the prefix [0, admitted); a
  // capacity of 0 admits nothing.
  const std::size_t admitted = std::min(batch.size(), config_.queue_capacity);
  admitted_ += admitted;
  shed_ += batch.size() - admitted;

  const std::string shed_error =
      "shed at admission: burst exceeded queue capacity " +
      std::to_string(config_.queue_capacity);
  std::vector<Response> chunk;
  std::vector<char> served;
  std::optional<SolveError> interruption;
  for (std::size_t first = 0; first < batch.size(); first += kBatchChunk) {
    const std::size_t size = std::min(kBatchChunk, batch.size() - first);
    const std::size_t solve =
        admitted > first ? std::min(size, admitted - first) : 0;
    chunk.assign(size, Response{});
    served.assign(solve, 0);
    if (!interruption) {
      try {
        parallel::parallel_for(solve, [&](std::size_t k) {
          chunk[k] = guarded_execute(batch[first + k]);
          served[k] = 1;
        });
      } catch (const SolveError& e) {
        // Only a caller-context interruption (deadline / cancel observed by
        // parallel_for between items) reaches here: guarded_execute never
        // throws. Every request not yet served, in this chunk and the
        // chunks after it, is answered with it before it propagates.
        interruption = e;
      }
    }
    for (std::size_t k = 0; k < solve; ++k) {
      if (served[k]) continue;
      chunk[k] = failure_response(batch[first + k], *interruption);
      ++failed_;
    }
    for (std::size_t k = solve; k < size; ++k)
      chunk[k] = failure_response(batch[first + k],
                                  core::StatusCode::kRejectedOverload,
                                  "service/admission", shed_error);
    sink(chunk);
  }
  if (interruption) throw *interruption;
}

std::vector<Response> Server::submit_batch(
    const std::vector<Request>& batch) {
  std::vector<Response> out;
  out.reserve(batch.size());
  serve_batch(batch, [&out](std::span<Response> replies) {
    for (Response& reply : replies) out.push_back(std::move(reply));
  });
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
    solution = selfconsistent::solve(ladder.full);
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

std::size_t write_batch_document(
    Server& server, const std::vector<Request>& batch, int indent,
    const std::function<void(std::string_view bytes)>& emit) {
  // The replies sit at depth 2: document object, "responses" array, reply.
  constexpr int kReplyDepth = 2;
  std::string bytes;
  report::JsonWriter document(bytes, indent);
  document.begin_object().key("responses").begin_array();
  std::size_t failures = 0;
  // One string per reply of a chunk, kept from chunk to chunk so their
  // capacity is reused.
  std::vector<std::string> encoded;
  // Encoding polls no deadline or cancel token: a caller's interruption
  // reaches it from serve_batch, after every reply has been written.
  const core::RunContext uninterruptible;
  server.serve_batch(batch, [&](std::span<Response> replies) {
    // Each reply's bytes depend only on the reply, so the chunk is encoded
    // in parallel and appended in index order. A write_response throw
    // propagates the lowest index's exception, and nothing of the chunk is
    // emitted, as with a serial loop.
    if (encoded.size() < replies.size()) encoded.resize(replies.size());
    {
      core::ScopedRunContext scope(uninterruptible);
      parallel::parallel_for(replies.size(), [&](std::size_t k) {
        encoded[k].clear();
        write_response(encoded[k], replies[k], indent, kReplyDepth);
      });
    }
    for (std::size_t k = 0; k < replies.size(); ++k) {
      if (!replies[k].ok()) ++failures;
      document.item();
      bytes += encoded[k];
    }
    emit(bytes);
    bytes.clear();
  });
  document.end_array().key("service").value(server.service_json());
  document.end_object();
  emit(bytes);
  return failures;
}

}  // namespace dsmt::service
