// Reply-writer suite (ctest label `service`): service::write_response
// against its oracle response_to_json(...).dump over generated replies,
// the streamed batch document against the tree-built document dsmt_serve
// printed before it streamed, the chunked batch's interruption contract,
// and replies to extreme inputs, which must always be writable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/run_context.h"
#include "parallel/thread_pool.h"
#include "report/json.h"
#include "service/retry.h"
#include "service/server.h"

namespace dsmt::service {
namespace {

using core::StatusCode;

/// Counter-based draws: reply k depends only on (seed, k).
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t bits() { return state_ = mix64(state_ + 0x9e3779b97f4a7c15ULL); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(bits() % n); }
  bool coin() { return (bits() & 1) != 0; }
  double unit() { return static_cast<double>(bits() >> 11) * 0x1p-53; }

 private:
  std::uint64_t state_;
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Doubles at the %.10g edges: signed zeros, subnormals, the extremes,
/// values that round up to the next power of ten, and the integers where
/// the integral fast path starts and stops.
const std::vector<double>& edge_doubles() {
  static const std::vector<double> edges = [] {
    std::vector<double> v = {0.0,
                             -0.0,
                             5e-324,
                             -5e-324,
                             DBL_MIN / 3.0,
                             DBL_MIN,
                             1e-300,
                             -1e-300,
                             1e300,
                             -1e300,
                             DBL_MAX,
                             -DBL_MAX,
                             9.9999999995e9,
                             -9.9999999995e9,
                             9.99999999949e9,
                             0.99999999995,
                             9.9999999995e-5,
                             9.9999999995e-6,
                             99999.999995,
                             1e-5,
                             1e-4,
                             0.1,
                             0.5,
                             1.5,
                             123456789.0,
                             1e15,
                             1e16,
                             1e21,
                             1e22};
    for (const double whole : {1e10 - 1.0, 1e10, 9007199254740992.0, 1.0,
                               2.0, 42.0, 1e9}) {
      for (const double x : {whole, -whole}) {
        v.push_back(x);
        v.push_back(std::nextafter(x, kInf));
        v.push_back(std::nextafter(x, -kInf));
      }
    }
    return v;
  }();
  return edges;
}

/// A finite double: an edge, a random bit pattern, a scaled mantissa, an
/// integer across +-1e10, or an edge's neighbour.
double finite_double(Draw& d) {
  const std::vector<double>& edges = edge_doubles();
  switch (d.below(5)) {
    case 0:
      return edges[d.below(edges.size())];
    case 1: {
      for (;;) {
        const std::uint64_t b = d.bits();
        double v;
        static_assert(sizeof v == sizeof b);
        std::memcpy(&v, &b, sizeof v);
        if (std::isfinite(v)) return v;
      }
    }
    case 2:
      return (d.unit() * 2.0 - 1.0) *
             std::pow(10.0, static_cast<double>(d.below(80)) - 40.0);
    case 3:
      return static_cast<double>(static_cast<long long>(d.below(20000000001ULL)) -
                                 10000000000LL);
    default: {
      // Toward +-DBL_MAX, not +-inf: DBL_MAX's upper neighbour is inf.
      const double e = edges[d.below(edges.size())];
      return std::nextafter(e, d.coin() ? DBL_MAX : -DBL_MAX);
    }
  }
}

/// A diagnostic residual: finite, or the NaN/Inf a fault can leave behind.
double residual(Draw& d) {
  switch (d.below(8)) {
    case 0: return kNaN;
    case 1: return kInf;
    case 2: return -kInf;
    default: return finite_double(d);
  }
}

/// Text with quotes, backslashes, every named escape, raw control bytes
/// (NUL included), DEL, and one- to four-byte UTF-8.
std::string text(Draw& d) {
  static const std::vector<std::string_view> pieces = {
      "a",     "id-7",        "\"",        "\\",   "\n",   "\t",
      "\r",    "\b",          "\f",        "\x01", "\x1f", std::string_view("\0", 1),
      "\x7f",  "\xc3\xa9",    "\xe2\x82\xac", "\xf0\x9f\x98\x80", " ", "/",
      "u0041", "numeric/brent"};
  std::string s;
  const std::size_t n = d.below(9);
  for (std::size_t i = 0; i < n; ++i) s += pieces[d.below(pieces.size())];
  return s;
}

int any_int(Draw& d) {
  switch (d.below(4)) {
    case 0: return INT_MAX;
    case 1: return INT_MIN;
    case 2: return -static_cast<int>(d.below(100));
    default: return static_cast<int>(d.below(100000));
  }
}

/// One generated reply: every status, kind and rung, chains of 0, 1 or
/// many events with and without notes, finite payload numbers.
Response generated_reply(std::uint64_t k) {
  Draw d(k);
  Response r;
  r.id = text(d);
  r.kind = static_cast<RequestKind>(d.below(3));
  r.status = d.coin() ? StatusCode::kOk
                      : static_cast<StatusCode>(d.below(
                            static_cast<std::size_t>(core::kLastStatusCode) + 1));
  r.degraded = d.coin();
  r.degradation_level =
      d.coin() ? DegradationLevel::kFull : DegradationLevel::kAnalyticBound;
  r.conservative = d.coin();
  r.attempts = any_int(d);
  r.t_metal_c = finite_double(d);
  r.delta_t_c = finite_double(d);
  r.j_peak_MA_cm2 = finite_double(d);
  r.j_rms_MA_cm2 = finite_double(d);
  r.j_avg_MA_cm2 = finite_double(d);
  r.jpeak_em_only_MA_cm2 = finite_double(d);
  r.error = text(d);
  r.diag.kernel = text(d);
  r.diag.status = static_cast<StatusCode>(
      d.below(static_cast<std::size_t>(core::kLastStatusCode) + 1));
  r.diag.iterations = any_int(d);
  r.diag.residual = residual(d);
  r.diag.recovered = d.coin();
  const std::size_t events = d.below(3) == 0 ? 0 : d.coin() ? 1 : 2 + d.below(10);
  for (std::size_t e = 0; e < events; ++e) {
    core::DiagEvent ev;
    ev.kernel = text(d);
    ev.status = static_cast<StatusCode>(
        d.below(static_cast<std::size_t>(core::kLastStatusCode) + 1));
    ev.iterations = any_int(d);
    ev.residual = residual(d);
    if (d.coin()) ev.note = text(d);
    r.diag.chain.push_back(ev);
  }
  return r;
}

/// `dumped` (a depth-0 dump at `indent`) as it reads nested `depth` levels
/// deep: every line after the first gains indent * depth spaces. Strings
/// never hold a raw line break, so this is exact.
std::string nested(const std::string& dumped, int indent, int depth) {
  if (indent < 0 || depth == 0) return dumped;
  const std::string pad(static_cast<std::size_t>(indent * depth), ' ');
  std::string out;
  for (const char c : dumped) {
    out += c;
    if (c == '\n') out += pad;
  }
  return out;
}

TEST(ReplyWriter, EqualsTreeDumpOnGeneratedReplies) {
  constexpr std::uint64_t kReplies = 100000;
  const std::string prefix = "prefix:";
  std::size_t differing = 0;
  std::size_t ok = 0;
  std::size_t chained = 0;
  for (std::uint64_t k = 0; k < kReplies; ++k) {
    const Response reply = generated_reply(k);
    ok += reply.ok();
    chained += reply.diag.chain.size() > 1;
    const report::Json tree = response_to_json(reply);
    for (const int indent : {-1, 0, 2, 4}) {
      const std::string dumped = tree.dump(indent);
      for (const int depth : {0, 2}) {
        std::string out = prefix;
        write_response(out, reply, indent, depth);
        if (out == prefix + nested(dumped, indent, depth)) continue;
        if (++differing <= 3)
          ADD_FAILURE() << "reply " << k << " indent " << indent << " depth "
                        << depth << "\n  tree   " << dumped.substr(0, 300)
                        << "\n  writer " << out.substr(0, 300);
      }
    }
  }
  EXPECT_EQ(differing, 0u);
  EXPECT_GT(ok, kReplies / 3);
  EXPECT_GT(chained, kReplies / 10);
}

TEST(ReplyWriter, NonFinitePayloadThrowsTheTreesErrorAndWritesNothing) {
  double Response::*const fields[] = {
      &Response::t_metal_c,     &Response::delta_t_c,
      &Response::j_peak_MA_cm2, &Response::j_rms_MA_cm2,
      &Response::j_avg_MA_cm2,  &Response::jpeak_em_only_MA_cm2};
  for (const RequestKind kind :
       {RequestKind::kSelfConsistent, RequestKind::kDutyCyclePoint,
        RequestKind::kTableCell}) {
    for (double Response::*const field : fields) {
      for (const double bad : {kNaN, kInf, -kInf}) {
        Response reply = generated_reply(7);
        reply.status = StatusCode::kOk;
        reply.kind = kind;
        reply.*field = bad;
        std::optional<SolveError> oracle;
        try {
          (void)response_to_json(reply);
        } catch (const SolveError& e) {
          oracle = e;
        }
        std::string out = "kept";
        if (!oracle) {
          // Only a duty-cycle-point reply carries the EM-only line.
          EXPECT_EQ(field, &Response::jpeak_em_only_MA_cm2);
          write_response(out, reply, -1);
          EXPECT_EQ(out, "kept" + response_to_json(reply).dump(-1));
          continue;
        }
        try {
          write_response(out, reply, 2, 2);
          ADD_FAILURE() << "write_response accepted " << bad;
        } catch (const SolveError& e) {
          EXPECT_EQ(e.status(), oracle->status());
          EXPECT_EQ(e.status(), StatusCode::kNonFinite);
          EXPECT_STREQ(e.what(), oracle->what());
        }
        EXPECT_EQ(out, "kept");
      }
    }
  }
}

// --- replies the service builds ----------------------------------------------

ServerConfig quiet_config() {
  ServerConfig c;
  c.publish_signoff = false;
  return c;
}

TEST(ReplyWriter, RepliesToExtremeInputsAreAlwaysWritable) {
  // Every reply the service builds must be writable: a throw in the middle
  // of a streamed batch would cut the document short.
  Server server(quiet_config());
  std::size_t requests = 0;
  std::size_t refused = 0;
  for (const double duty : {5e-324, 1e-320, 1e-310, 3.2e-299, 3.4e-299,
                            1e-200, 1e-100, 1e-10, 0.5, 1.0}) {
    for (const double j0 : {1e-300, 1e-10, 0.6, 1e10, 1e100, 1e298, 1e300}) {
      for (const double t_ref : {-273.0, -200.0, 0.0, 100.0, 1e4, 1e10, 1e100,
                                 1e300}) {
        for (const RequestKind kind :
             {RequestKind::kSelfConsistent, RequestKind::kDutyCyclePoint,
              RequestKind::kTableCell}) {
          Request request;
          request.id = "extreme";
          request.kind = kind;
          request.duty_cycle = duty;
          request.j0_MA_cm2 = j0;
          request.t_ref_c = t_ref;
          request.technology = "NTRS-100nm-Cu";
          const Response reply = server.handle(request);
          ++requests;
          refused += reply.status == StatusCode::kInvalidInput;
          std::string out;
          try {
            write_response(out, reply, -1);
          } catch (const std::exception& e) {
            ADD_FAILURE() << "duty " << duty << " j0 " << j0 << " t_ref "
                          << t_ref << " kind " << kind_name(kind) << ": "
                          << e.what();
            continue;
          }
          EXPECT_EQ(out, response_to_json(reply).dump(-1));
        }
      }
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_LT(refused, requests);
}

TEST(ReplyWriter, TinyDutyIsRefusedNamingTheDutyCycle) {
  // Below ~3.3e-299 at j0 = 0.6 MA/cm^2 the EM-only line j0/r overflows.
  Server server(quiet_config());
  Request request;
  request.id = "tiny";
  request.kind = RequestKind::kDutyCyclePoint;
  request.duty_cycle = 5e-324;
  const Response reply = server.handle(request);
  EXPECT_EQ(reply.status, StatusCode::kInvalidInput);
  EXPECT_EQ(reply.attempts, 0);
  EXPECT_NE(reply.error.find("duty_cycle"), std::string::npos) << reply.error;
  // The same duty is a valid self-consistent query: only the duty-cycle
  // point's reply carries j0/r.
  request.kind = RequestKind::kSelfConsistent;
  EXPECT_NE(server.handle(request).status, StatusCode::kInvalidInput);
}

// --- the chunked batch and its document --------------------------------------

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

/// A batch spanning three full chunks and part of a fourth: wire solves,
/// table cells, duty points, refusals, and failed solves that degrade.
std::vector<Request> chunked_batch() {
  std::vector<Request> batch;
  const std::size_t n = 3 * kBatchChunk + 123;
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.id = "r" + std::to_string(i) + (i % 97 == 0 ? "\"\\\x01" : "");
    if (i % 5 == 3) {
      r.kind = RequestKind::kTableCell;
      r.technology = i % 2 ? "NTRS-250nm-Cu" : "NTRS-100nm-AlCu";
      r.level = 1 + static_cast<int>(i % 4);
      r.dielectric = i % 3 ? "oxide" : "hsq";
    } else {
      r.kind = i % 7 == 1 ? RequestKind::kDutyCyclePoint
                          : RequestKind::kSelfConsistent;
      r.wire.width_um = 0.35 + 0.01 * static_cast<double>(i % 40);
      r.wire.thickness_um = 0.9;
      r.wire.dielectric_um = 0.8;
    }
    r.duty_cycle = 0.01 + 0.001 * static_cast<double>(i % 500);
    if (i % 1001 == 17) r.duty_cycle = 0.0;  // refused as invalid input
    if (i % 1499 == 5) r.j0_MA_cm2 = 1e7;    // the solve fails: rung 2
    batch.push_back(r);
  }
  return batch;
}

/// `batch` as a document of the given top-level form.
std::string batch_text(const std::vector<Request>& batch, bool wrapped) {
  report::Json list = report::Json::array();
  for (const Request& r : batch) list.push(request_to_json(r));
  if (!wrapped) return list.dump(-1);
  report::Json root = report::Json::object();
  root.set("requests", std::move(list));
  return root.dump(-1);
}

/// The batch document the way dsmt_serve built it before it streamed:
/// every reply collected, converted to a tree, and dumped as one tree with
/// the service section last.
std::string tree_document(Server& server, const std::vector<Request>& batch,
                          int indent) {
  report::Json responses = report::Json::array();
  for (const Response& reply : server.submit_batch(batch))
    responses.push(response_to_json(reply));
  report::Json root = report::Json::object();
  root.set("responses", std::move(responses));
  root.set("service", server.service_json());
  return root.dump(indent);
}

std::string streamed_document(const ServerConfig& config,
                              const std::vector<Request>& batch, int indent,
                              std::size_t* pieces = nullptr) {
  Server server(config);
  std::string out;
  std::size_t emitted = 0;
  (void)write_batch_document(server, batch, indent,
                             [&](std::string_view bytes) {
                               out += bytes;
                               ++emitted;
                             });
  if (pieces != nullptr) *pieces = emitted;
  return out;
}

TEST(BatchDocument, EqualsTreeDocumentAcrossChunksThreadsAndIndents) {
  ThreadCountGuard guard;
  ServerConfig config = quiet_config();
  // Admission ends inside the second of four chunks.
  config.queue_capacity = kBatchChunk + kBatchChunk / 2;
  const std::vector<Request> requests = chunked_batch();
  std::string reference;
  for (const bool wrapped : {false, true}) {
    const std::vector<Request> batch =
        parse_batch(batch_text(requests, wrapped));
    ASSERT_EQ(batch.size(), requests.size());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      parallel::set_thread_count(threads);
      for (const int indent : {-1, 2}) {
        Server tree_server(config);
        const std::string want = tree_document(tree_server, batch, indent);
        std::size_t pieces = 0;
        const std::string got =
            streamed_document(config, batch, indent, &pieces);
        EXPECT_EQ(pieces, 5u) << "one piece per chunk, then the tail";
        EXPECT_TRUE(got == want)
            << "wrapped " << wrapped << " threads " << threads << " indent "
            << indent << ": first difference at byte "
            << (std::mismatch(got.begin(), got.end(), want.begin(), want.end())
                    .first -
                got.begin());
        if (indent == -1) {
          if (reference.empty()) reference = got;
          EXPECT_TRUE(got == reference) << "bytes depend on threads or form";
        }
      }
    }
  }
  EXPECT_NE(reference.find("rejected-overload"), std::string::npos);
  EXPECT_NE(reference.find("invalid-input"), std::string::npos);
  EXPECT_NE(reference.find("\"degraded\":true"), std::string::npos);
}

TEST(BatchDocument, ChunkedRepliesEqualLoneRequestsAndShedReplies) {
  ThreadCountGuard guard;
  parallel::set_thread_count(8);
  ServerConfig config = quiet_config();
  config.queue_capacity = kBatchChunk + kBatchChunk / 2;
  const std::vector<Request> batch = chunked_batch();
  Server server(config);
  const std::vector<Response> replies = server.submit_batch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  Server lone(quiet_config());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Response want =
        i < config.queue_capacity
            ? lone.handle(batch[i])
            : failure_response(batch[i], StatusCode::kRejectedOverload,
                               "service/admission",
                               "shed at admission: burst exceeded queue "
                               "capacity " +
                                   std::to_string(config.queue_capacity));
    std::string got_bytes;
    std::string want_bytes;
    write_response(got_bytes, replies[i], -1);
    write_response(want_bytes, want, -1);
    if (got_bytes != want_bytes && ++differing <= 3)
      ADD_FAILURE() << "request " << i << "\n  batch " << got_bytes
                    << "\n  alone " << want_bytes;
  }
  EXPECT_EQ(differing, 0u);
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.received, batch.size());
  EXPECT_EQ(m.admitted, config.queue_capacity);
  EXPECT_EQ(m.shed, batch.size() - config.queue_capacity);
}

TEST(BatchDocument, EmptyBatchInBothForms) {
  for (const char* text : {"[]", "{\"requests\":[]}"}) {
    const std::vector<Request> batch = parse_batch(text);
    for (const int indent : {-1, 2}) {
      Server tree_server(quiet_config());
      EXPECT_EQ(streamed_document(quiet_config(), batch, indent),
                tree_document(tree_server, batch, indent))
          << text << " indent " << indent;
    }
  }
  const std::string compact =
      streamed_document(quiet_config(), parse_batch("[]"), -1);
  EXPECT_EQ(compact.rfind("{\"responses\":[],\"service\":{", 0), 0u)
      << compact;
}

TEST(BatchDocument, InterruptedBatchStillHandsEveryReplyToTheSink) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  ServerConfig config = quiet_config();
  config.queue_capacity = kBatchChunk + kBatchChunk / 2;
  const std::vector<Request> batch = chunked_batch();
  Server server(config);
  core::RunContext context;
  core::ScopedRunContext scope(context);
  std::vector<Response> seen;
  std::size_t chunks = 0;
  try {
    server.serve_batch(batch, [&](std::span<Response> replies) {
      ++chunks;
      for (Response& reply : replies) seen.push_back(std::move(reply));
      context.cancel().request_cancel();  // after the first chunk
    });
    ADD_FAILURE() << "the cancellation did not propagate";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), StatusCode::kCancelled);
  }
  EXPECT_EQ(chunks, 4u);
  ASSERT_EQ(seen.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(seen[i].id, batch[i].id) << i;
    if (i < kBatchChunk) {
      EXPECT_NE(seen[i].status, StatusCode::kCancelled) << i;
    } else if (i < config.queue_capacity) {
      EXPECT_EQ(seen[i].status, StatusCode::kCancelled) << i;
      EXPECT_FALSE(seen[i].error.empty()) << i;
    } else {
      EXPECT_EQ(seen[i].status, StatusCode::kRejectedOverload) << i;
    }
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.received, batch.size());
  EXPECT_EQ(m.ok_full + m.ok_analytic + m.failed + m.shed, batch.size());
}

}  // namespace
}  // namespace dsmt::service
