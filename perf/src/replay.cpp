#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "cache/entry.h"
#include "cache/solve_cache.h"
#include "net/wire.h"
#include "parallel/thread_pool.h"
#include "proc.h"
#include "report/json.h"
#include "selfconsistent/batch.h"
#include "service/server.h"
#include "supervise/pool.h"
#include "supervise/protocol.h"

namespace perf {

namespace {

using dsmt::report::Json;
using dsmt::service::Request;
using dsmt::service::Response;

// fsync'd segment appends and worker round trips are the slow probes; off
// their workload's path they are sampled on the first requests only.
constexpr std::size_t kPublishProbes = 200;
constexpr std::size_t kExecuteProbes = 2000;
// Requests whose spans are written to the trace file (all feed the metrics).
constexpr std::uint32_t kTraceFileRequests = 2000;
// Requests of the untraced warm-up pass that precedes the measured passes.
constexpr std::size_t kWarmupRequests = 500;
// Span request index of table_batch's document-level spans.
constexpr std::uint32_t kDoc = std::numeric_limits<std::uint32_t>::max();

constexpr const char* kRequest = "request";
constexpr const char* kProbe = "probe";
constexpr const char* kBatch = "batch";
constexpr const char* kDecode = "FrameDecoder::next";
constexpr const char* kParse = "Json::parse";
constexpr const char* kFromJson = "request_from_json";
constexpr const char* kHandoff = "pool_handoff";
constexpr const char* kHandle = "Server::handle";
constexpr const char* kExecute = "WorkerPool::execute";
constexpr const char* kToJson = "response_to_json";
constexpr const char* kDump = "Json::dump";
constexpr const char* kEncode = "encode_frame";
constexpr const char* kSubmit = "submit_batch";
// The service stages timed beside the path, on an uncached server: they
// stand in for the path where it runs elsewhere (a worker process, a
// batch) and give the in-process cost the supervise hop is measured
// against.
constexpr const char* kHandleProbe = "Server::handle[probe]";
constexpr const char* kToJsonProbe = "response_to_json[probe]";
constexpr const char* kDumpProbe = "Json::dump[probe]";
constexpr const char* kEncodeProbe = "encode_frame[probe]";
constexpr const char* kBuild = "build_problem";
constexpr const char* kSolve = "solve_one";
constexpr const char* kKey = "canonical_key";
constexpr const char* kLookup = "SolveCache::lookup";
constexpr const char* kPublish = "SolveCache::publish";
constexpr const char* kHash = "canonical_request_hash";
constexpr const char* kEncodeMsg = "encode_request_message";

struct Span {
  const char* name;
  std::uint32_t request;
  std::int64_t start;
  std::int64_t end;
  int tid;
};

int thread_tag() {
  static std::atomic<int> next{1};
  thread_local const int tag = next++;
  return tag;
}

/// In-memory span store. Recording takes a lock: the replay thread and the
/// pool thread running a request's task take turns, never contend.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void record(const char* name, std::uint32_t request, std::int64_t start,
              std::int64_t end) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, request, start, end, thread_tag()});
  }
  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// One span around the enclosing block.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint32_t request)
      : tracer_(tracer),
        name_(name),
        request_(request),
        start_(tracer.enabled() ? now_ns() : 0) {}
  ~Scope() {
    if (tracer_.enabled()) tracer_.record(name_, request_, start_, now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint32_t request_;
  std::int64_t start_;
};

/// Runs `body` on the library's thread pool, as the server dispatches a
/// request, and waits for it; the submit-to-start gap is the hand-off span.
/// Returns false when the body threw.
template <typename Body>
bool on_pool(Tracer& tracer, std::uint32_t request, Body&& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool threw = false;
  std::int64_t started = 0;
  const std::int64_t submitted = now_ns();
  dsmt::parallel::pool_submit([&] {
    started = now_ns();
    try {
      body();
    } catch (const std::exception&) {
      threw = true;
    }
    // Notify under the lock: the waiter owns cv and may return the moment
    // it sees `done`.
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  tracer.record(kHandoff, request, submitted, started);
  return !threw;
}

std::shared_ptr<dsmt::cache::SolveCache> open_cache(const std::string& dir) {
  dsmt::cache::SolveCacheConfig config;
  config.dir = dir;
  return std::make_shared<dsmt::cache::SolveCache>(config);
}

std::unique_ptr<dsmt::service::Server> make_server(
    std::shared_ptr<dsmt::cache::SolveCache> cache, std::size_t queue) {
  dsmt::service::ServerConfig config;
  config.publish_signoff = false;
  config.solve_cache = std::move(cache);
  if (queue > config.queue_capacity) config.queue_capacity = queue;
  return std::make_unique<dsmt::service::Server>(config);
}

bool full_rung(const Response& r) {
  return r.ok() &&
         r.degradation_level == dsmt::service::DegradationLevel::kFull;
}

/// Facts about each replayed request gathered outside the spans.
struct Facts {
  std::vector<char> hit;        ///< cache lookup found the key
  std::vector<char> looked_up;  ///< a cache lookup probe ran
  std::vector<char> full;       ///< on-path reply: ok at rung 0
  std::vector<int> iterations;  ///< solve_one probe iterations
  std::vector<double> bytes;    ///< request + reply payload bytes
  std::string error;

  explicit Facts(std::size_t n)
      : hit(n, 0), looked_up(n, 0), full(n, 0), iterations(n, 0),
        bytes(n, 0.0) {}
};

/// The state one pass starts from: fresh servers and caches, so the
/// spans-off and spans-on passes do identical work.
struct PassState {
  std::shared_ptr<dsmt::cache::SolveCache> live;   ///< uds_hot_cached path
  std::shared_ptr<dsmt::cache::SolveCache> probe;  ///< fresh, for probes
  std::unique_ptr<dsmt::service::Server> server;   ///< the path's service
  std::unique_ptr<dsmt::service::Server> probe_server;
};

class Replay {
 public:
  explicit Replay(const ReplayInputs& in) : in_(in) {}

  ReplayOutput run();

 private:
  PassState fresh_state(const std::string& name, std::size_t queue);
  void socket_pass(Tracer& tracer, const std::vector<std::string>& frames,
                   const std::vector<Request>& requests, PassState& state,
                   Facts& facts);
  void table_pass(Tracer& tracer, const std::string& document,
                  const std::vector<Request>& cells, PassState& state,
                  Facts& facts);
  /// Probes that split handle, the cache and the supervise hop.
  void probe_layers(Tracer& tracer, std::uint32_t i, const Request& request,
                    PassState& state, Facts& facts);
  /// handle + response_to_json + dump + encode_frame beside the path.
  std::string probe_service(Tracer& tracer, std::uint32_t i,
                            const Request& request, PassState& state);

  bool hot() const { return in_.workload == Workload::kUdsHotCached; }
  bool isolate() const { return in_.workload == Workload::kIsolateMixed; }
  bool table() const { return in_.workload == Workload::kTableBatch; }

  const ReplayInputs& in_;
};

PassState Replay::fresh_state(const std::string& name, std::size_t queue) {
  PassState state;
  const std::string dir = in_.work_dir + "/" + name;
  remove_tree(dir);
  make_dirs(dir + "/probe");
  if (hot()) {
    make_dirs(dir + "/live");
    std::string segment;
    if (!read_file(in_.seed_segment, segment) ||
        !write_file(dir + "/live/solve.dsc", segment))
      throw std::runtime_error("cannot copy the pre-filled cache segment");
    state.live = open_cache(dir + "/live");
  }
  state.probe = open_cache(dir + "/probe");
  state.server = make_server(state.live, queue);
  state.probe_server = make_server(nullptr, 0);
  return state;
}

std::string Replay::probe_service(Tracer& tracer, std::uint32_t i,
                                  const Request& request, PassState& state) {
  Response response;
  {
    Scope s(tracer, kHandleProbe, i);
    response = state.probe_server->handle(request, i);
  }
  Json json;
  {
    Scope s(tracer, kToJsonProbe, i);
    json = dsmt::service::response_to_json(response);
  }
  std::string text;
  {
    Scope s(tracer, kDumpProbe, i);
    text = json.dump(-1);
  }
  Scope s(tracer, kEncodeProbe, i);
  return dsmt::net::encode_frame(text);
}

void Replay::probe_layers(Tracer& tracer, std::uint32_t i,
                          const Request& request, PassState& state,
                          Facts& facts) {
  Scope root(tracer, kProbe, i);
  dsmt::service::LadderProblem ladder;
  {
    Scope s(tracer, kBuild, i);
    ladder = dsmt::service::build_problem(request);
  }
  dsmt::selfconsistent::Solution solution;
  {
    Scope s(tracer, kSolve, i);
    solution = dsmt::selfconsistent::solve_one(ladder.full);
  }
  facts.iterations[i] = solution.iterations;
  const bool canonical = dsmt::cache::canonical_solve(solution);
  if (hot()) {
    // The live cache was probed before the path, and the path published
    // its misses already (a second publish of a key appends nothing): the
    // miss's fsync'd append is timed on the probe cache instead.
    if (!facts.hit[i] && canonical) {
      Scope s(tracer, kPublish, i);
      state.probe->publish(dsmt::cache::canonical_key(request),
                           dsmt::cache::from_solution(solution));
    }
  } else {
    std::string key;
    {
      Scope s(tracer, kKey, i);
      key = dsmt::cache::canonical_key(request);
    }
    dsmt::cache::CachedSolve found;
    {
      Scope s(tracer, kLookup, i);
      facts.hit[i] = state.probe->lookup(key, found) ? 1 : 0;
    }
    facts.looked_up[i] = 1;
    if (i < kPublishProbes && canonical) {
      Scope s(tracer, kPublish, i);
      state.probe->publish(key, dsmt::cache::from_solution(solution));
    }
  }
  {
    Scope s(tracer, kHash, i);
    (void)dsmt::supervise::canonical_request_hash(request);
  }
  {
    Scope s(tracer, kEncodeMsg, i);
    (void)dsmt::supervise::encode_request_message(i, request);
  }
  if (!isolate() && i < kExecuteProbes) {
    Scope s(tracer, kExecute, i);
    (void)in_.pool->execute(request, i);
  }
}

void Replay::socket_pass(Tracer& tracer,
                         const std::vector<std::string>& frames,
                         const std::vector<Request>& requests,
                         PassState& state, Facts& facts) {
  dsmt::net::FrameDecoder decoder;
  for (std::uint32_t i = 0; i < frames.size(); ++i) {
    if (hot()) {
      // Probed before the path, so the lookup sees what handle will see.
      Scope root(tracer, kProbe, i);
      std::string key;
      {
        Scope s(tracer, kKey, i);
        key = dsmt::cache::canonical_key(requests[i]);
      }
      dsmt::cache::CachedSolve found;
      Scope s(tracer, kLookup, i);
      facts.hit[i] = state.live->lookup(key, found) ? 1 : 0;
      facts.looked_up[i] = 1;
    }
    std::string payload;
    std::string reply;
    bool full = false;
    {
      Scope root(tracer, kRequest, i);
      {
        Scope s(tracer, kDecode, i);
        decoder.append(frames[i].data(), frames[i].size());
        decoder.next(payload);
      }
      Json doc;
      {
        Scope s(tracer, kParse, i);
        doc = Json::parse(payload);
      }
      Request request;
      {
        Scope s(tracer, kFromJson, i);
        request = dsmt::service::request_from_json(doc);
      }
      const bool ran = on_pool(tracer, i, [&] {
        if (isolate()) {
          Scope s(tracer, kExecute, i);
          const dsmt::supervise::ExecuteResult result =
              in_.pool->execute(request, i);
          reply = result.frame;
          full = result.status == dsmt::core::StatusCode::kOk;
          return;
        }
        Response response;
        {
          Scope s(tracer, kHandle, i);
          response = state.server->handle(request, i);
        }
        full = full_rung(response);
        Json json;
        {
          Scope s(tracer, kToJson, i);
          json = dsmt::service::response_to_json(response);
        }
        std::string text;
        {
          Scope s(tracer, kDump, i);
          text = json.dump(-1);
        }
        Scope s(tracer, kEncode, i);
        reply = dsmt::net::encode_frame(text);
      });
      if (!ran && facts.error.empty())
        facts.error = "request " + std::to_string(i) + " threw on the pool";
    }
    if (isolate() && full) {
      // A supervised reply is ok; the rung is in its payload.
      const Json doc = Json::parse(dsmt::supervise::frame_payload(reply));
      const Json* level = doc.find("degradation_level");
      full = level != nullptr && level->as_integer() == 0;
    }
    facts.full[i] = full ? 1 : 0;
    facts.bytes[i] = static_cast<double>(
        payload.size() + reply.size() - dsmt::net::kFrameHeaderBytes);
    if (isolate() || i < kExecuteProbes) {
      Scope root(tracer, kProbe, i);
      probe_service(tracer, i, requests[i], state);
    }
    probe_layers(tracer, i, requests[i], state, facts);
  }
}

void Replay::table_pass(Tracer& tracer, const std::string& document,
                        const std::vector<Request>& cells, PassState& state,
                        Facts& facts) {
  std::vector<Response> responses;
  std::string output;
  {
    Scope root(tracer, kBatch, kDoc);
    Json doc;
    {
      Scope s(tracer, kParse, kDoc);
      doc = Json::parse(document);
    }
    std::vector<Request> batch;
    {
      Scope s(tracer, kFromJson, kDoc);
      batch.reserve(doc.size());
      for (std::size_t i = 0; i < doc.size(); ++i)
        batch.push_back(dsmt::service::request_from_json(doc.at(i)));
    }
    {
      Scope s(tracer, kSubmit, kDoc);
      responses = state.server->submit_batch(batch);
    }
    Json list = Json::array();
    {
      Scope s(tracer, kToJson, kDoc);
      for (const Response& r : responses)
        list.push(dsmt::service::response_to_json(r));
    }
    Scope s(tracer, kDump, kDoc);
    Json root_json = Json::object();
    root_json.set("responses", std::move(list));
    root_json.set("service", state.server->service_json());
    output = root_json.dump(-1);
  }
  const double per_cell =
      static_cast<double>(document.size() + output.size()) /
      static_cast<double>(responses.size());
  std::fill(facts.bytes.begin(), facts.bytes.end(), per_cell);

  // Per-cell probes: the layers a cell would cross if it were served alone.
  dsmt::net::FrameDecoder decoder;
  const std::size_t n = facts.full.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    facts.full[i] = full_rung(responses[i]) ? 1 : 0;
    const std::string frame = dsmt::net::encode_frame(
        dsmt::service::request_to_json(cells[i]).dump(-1));
    {
      Scope root(tracer, kProbe, i);
      std::string payload;
      {
        Scope s(tracer, kDecode, i);
        decoder.append(frame.data(), frame.size());
        decoder.next(payload);
      }
      if (!on_pool(tracer, i,
                   [&] { probe_service(tracer, i, cells[i], state); }) &&
          facts.error.empty())
        facts.error = "cell " + std::to_string(i) + " threw on the pool";
    }
    probe_layers(tracer, i, cells[i], state, facts);
  }
}

/// Per-request durations [us] of each span name (NaN where absent), plus
/// the document-level spans of table_batch.
struct Durations {
  std::map<std::string, std::vector<double>> per_request;
  std::map<std::string, double> doc;

  Durations(const std::vector<Span>& spans, std::size_t n) {
    for (const Span& s : spans) {
      const double us = static_cast<double>(s.end - s.start) / 1e3;
      if (s.request == kDoc) {
        doc[s.name] = us;
        continue;
      }
      std::vector<double>& v = per_request[s.name];
      if (v.empty()) v.assign(n, std::numeric_limits<double>::quiet_NaN());
      if (s.request < n) v[s.request] = us;
    }
  }

  double at(const char* name, std::size_t i) const {
    const auto it = per_request.find(name);
    return it == per_request.end() ? std::nan("") : it->second[i];
  }

  /// p50 over the requests that have the span, with its sample count.
  Metric p50(const std::string& metric, const char* name) const {
    std::vector<double> values;
    const auto it = per_request.find(name);
    if (it != per_request.end())
      for (const double v : it->second)
        if (!std::isnan(v)) values.push_back(v);
    return Metric{metric, median(values), "us", values.size()};
  }
};

/// p50 self time of each span name: its duration minus its children's.
std::vector<Metric> self_times(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    while (!stack.empty() && spans[stack.back()].end <= spans[k].start)
      stack.pop_back();
    if (!stack.empty() && spans[stack.back()].end >= spans[k].end)
      child[stack.back()] +=
          static_cast<double>(spans[k].end - spans[k].start) / 1e3;
    stack.push_back(k);
  }
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t k = 0; k < spans.size(); ++k)
    by_name[spans[k].name].push_back(
        static_cast<double>(spans[k].end - spans[k].start) / 1e3 - child[k]);
  std::vector<Metric> out;
  for (auto& [name, values] : by_name)
    out.push_back(
        Metric{"self." + name, median(values), "us", values.size()});
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  if (spans.empty()) return write_file(path, "{\"traceEvents\":[]}\n");
  std::int64_t origin = spans.front().start;
  for (const Span& s : spans) origin = std::min(origin, s.start);
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (const Span& s : spans) {
    if (s.request != kDoc && s.request >= kTraceFileRequests) continue;
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perf\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"request\":%lld}}",
                  first ? "" : ",", s.name,
                  static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, s.tid,
                  s.request == kDoc ? -1LL : static_cast<long long>(s.request));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return write_file(path, out);
}

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

ReplayOutput Replay::run() {
  ReplayOutput out;
  const Stream& stream = *in_.stream;
  std::vector<Request> requests;
  std::vector<std::string> frames;
  std::string document;
  if (table()) {
    document = batch_document(*in_.table, in_.table->size());
    for (std::size_t i = 0; i < std::min(in_.requests, in_.table->size());
         ++i)
      requests.push_back((*in_.table)[i].request);
  } else {
    for (std::uint64_t i = 0; i < in_.requests; ++i) {
      Generated g = stream.at(Phase::kOpen, i);
      frames.push_back(dsmt::net::encode_frame(g.payload));
      requests.push_back(std::move(g.request));
    }
  }
  const std::size_t n = requests.size();
  const std::size_t queue = table() ? in_.table->size() : 0;

  // Warm-up: builds the thread pool and warms code paths on a disjoint
  // slice of the stream (a small document for table_batch).
  {
    Tracer off(false);
    const std::size_t w = std::min(kWarmupRequests, n);
    Facts facts(w);
    PassState state = fresh_state("warmup", queue);
    if (table()) {
      table_pass(off, batch_document(*in_.table, w),
                 std::vector<Request>(requests.begin(), requests.begin() + w),
                 state, facts);
    } else {
      std::vector<std::string> warm_frames;
      std::vector<Request> warm_requests;
      for (std::uint64_t i = 0; i < w; ++i) {
        Generated g = stream.at(Phase::kReplayWarmup, i);
        warm_frames.push_back(dsmt::net::encode_frame(g.payload));
        warm_requests.push_back(std::move(g.request));
      }
      socket_pass(off, warm_frames, warm_requests, state, facts);
    }
  }

  // Spans off, on, off, on: each side's faster pass is compared, so one
  // slow stretch of the host does not read as tracing overhead. The last
  // pass's spans are the ones reported.
  Facts facts(n);
  std::vector<Span> spans;
  out.wall_off_s = out.wall_on_s = std::numeric_limits<double>::infinity();
  for (const bool traced : {false, true, false, true}) {
    Tracer tracer(traced);
    Facts pass_facts(n);
    PassState state = fresh_state(traced ? "on" : "off", queue);
    const std::int64_t start = now_ns();
    if (table())
      table_pass(tracer, document, requests, state, pass_facts);
    else
      socket_pass(tracer, frames, requests, state, pass_facts);
    double& wall = traced ? out.wall_on_s : out.wall_off_s;
    wall = std::min(wall, seconds_since(start));
    if (traced) {
      spans = tracer.take();
      facts = std::move(pass_facts);
    }
  }
  out.overhead_share = out.wall_on_s / out.wall_off_s - 1.0;
  if (!facts.error.empty()) {
    out.error = facts.error;
    return out;
  }

  // parallel: submit_batch of the replayed requests at 1 and at 2 threads
  // (the DSMT_THREADS default), alternating, the faster of two each.
  double t1 = std::numeric_limits<double>::infinity();
  double t2 = t1;
  for (const std::size_t threads : {1, 0, 1, 0}) {
    dsmt::parallel::set_thread_count(threads);
    std::unique_ptr<dsmt::service::Server> server = make_server(nullptr, n);
    const std::int64_t start = now_ns();
    (void)server->submit_batch(requests);
    double& t = threads == 1 ? t1 : t2;
    t = std::min(t, seconds_since(start));
  }

  const Durations d(spans, n);
  const double cells = table() ? static_cast<double>(in_.table->size()) : 1.0;
  const auto doc_us = [&](const char* name) {
    const auto it = d.doc.find(name);
    return it == d.doc.end() ? 0.0 : it->second / cells;
  };
  std::vector<Metric>& m = out.per_layer;
  // Where the service stages run in this process on the path; elsewhere
  // (a worker, a batch) the probes stand in.
  const bool on_path = !isolate() && !table();
  const char* handle_span = on_path ? kHandle : kHandleProbe;
  Metric parse = d.p50("report.json_parse_us", kParse);
  Metric from_json = d.p50("service.request_from_json_us", kFromJson);
  Metric to_json =
      d.p50("service.response_to_json_us", on_path ? kToJson : kToJsonProbe);
  Metric dump = d.p50("report.json_dump_us", on_path ? kDump : kDumpProbe);
  Metric batch_cell{"parallel.batch_cell_us",
                    t2 / static_cast<double>(n) * 1e6, "us", n};
  if (table()) {
    const std::size_t c = in_.table->size();
    parse = {"report.json_parse_us", doc_us(kParse), "us", c};
    from_json = {"service.request_from_json_us", doc_us(kFromJson), "us", c};
    to_json = {"service.response_to_json_us", doc_us(kToJson), "us", c};
    dump = {"report.json_dump_us", doc_us(kDump), "us", c};
    batch_cell = {"parallel.batch_cell_us", doc_us(kSubmit), "us", c};
  }
  const Metric decode = d.p50("net.frame_decode_us", kDecode);
  const Metric encode =
      d.p50("net.frame_encode_us", on_path ? kEncode : kEncodeProbe);
  const Metric handoff = d.p50("parallel.handoff_us", kHandoff);
  const Metric handle = d.p50("service.handle_us", handle_span);
  const Metric execute = d.p50("supervise.execute_us", kExecute);

  // The on-path stages; what they leave of the timed p50 is transport,
  // the poll loop, the completion queue and wake-ups (socket) or process
  // start, pipes and output (table_batch).
  double stages = 0.0;
  if (table())
    stages = parse.value + from_json.value + batch_cell.value +
             to_json.value + dump.value;
  else if (isolate())
    stages = decode.value + parse.value + from_json.value + handoff.value +
             execute.value;
  else
    stages = decode.value + parse.value + from_json.value + handoff.value +
             handle.value + to_json.value + dump.value + encode.value;
  const double timed_us = in_.timed_p50_ms * 1e3 / cells;

  std::vector<double> other;
  std::vector<double> ipc;
  std::size_t lookups = 0;
  std::size_t hits = 0;
  double iterations = 0.0;
  std::size_t full = 0;
  double bytes = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // handle minus the calls it is known to make for this request.
    double rest = d.at(handle_span, i) - d.at(kBuild, i);
    if (hot()) {
      rest -= d.at(kKey, i) + d.at(kLookup, i);
      if (!facts.hit[i]) rest -= d.at(kSolve, i) + d.at(kPublish, i);
    } else {
      rest -= d.at(kSolve, i);
    }
    if (!std::isnan(rest)) other.push_back(rest);
    // The supervise hop: a worker's round trip minus the in-process work
    // the worker does for it.
    const double hop = d.at(kExecute, i) - d.at(kHandleProbe, i) -
                       d.at(kToJsonProbe, i) - d.at(kDumpProbe, i);
    if (!std::isnan(hop)) ipc.push_back(hop);
    lookups += facts.looked_up[i] ? 1 : 0;
    hits += facts.hit[i] ? 1 : 0;
    iterations += facts.iterations[i];
    full += facts.full[i] ? 1 : 0;
    bytes += facts.bytes[i];
  }
  const double nd = static_cast<double>(n);

  m.push_back(decode);
  m.push_back(encode);
  m.push_back({"net.unaccounted_us", timed_us - stages, "us", n});
  m.push_back(handoff);
  m.push_back(batch_cell);
  m.push_back({"parallel.scaling_eff", t1 / (2.0 * t2), "ratio", n});
  m.push_back(parse);
  m.push_back(dump);
  m.push_back({"report.bytes_per_request", bytes / nd, "count", n});
  m.push_back(from_json);
  m.push_back(to_json);
  m.push_back(d.p50("service.build_problem_us", kBuild));
  m.push_back(handle);
  m.push_back({"service.handle_other_us", median(other), "us", other.size()});
  m.push_back({"service.full_rung_share", static_cast<double>(full) / nd,
               "ratio", n});
  m.push_back(d.p50("selfconsistent.solve_us", kSolve));
  m.push_back({"selfconsistent.iterations_mean", iterations / nd, "count", n});
  m.push_back(d.p50("cache.key_us", kKey));
  m.push_back(d.p50("cache.lookup_us", kLookup));
  m.push_back(d.p50("cache.publish_us", kPublish));
  m.push_back({"cache.hit_ratio",
               lookups > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               "ratio", lookups});
  m.push_back(d.p50("supervise.request_hash_us", kHash));
  m.push_back(d.p50("supervise.encode_us", kEncodeMsg));
  m.push_back(execute);
  m.push_back({"supervise.ipc_us", median(ipc), "us", ipc.size()});

  out.self_us = self_times(spans);
  if (!write_chrome_trace(in_.trace_path, spans))
    out.error = "cannot write " + in_.trace_path;
  remove_tree(in_.work_dir + "/warmup");
  remove_tree(in_.work_dir + "/off");
  remove_tree(in_.work_dir + "/on");
  return out;
}

}  // namespace

ReplayOutput run_replay(const ReplayInputs& in) {
  try {
    return Replay(in).run();
  } catch (const std::exception& e) {
    ReplayOutput out;
    out.error = std::string("replay failed: ") + e.what();
    return out;
  }
}

}  // namespace perf
