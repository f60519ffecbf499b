#include "run.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "cache/entry.h"
#include "cache/segment.h"
#include "client.h"
#include "expect.h"
#include "net/wire.h"
#include "proc.h"
#include "replay.h"
#include "report/json.h"
#include "selfconsistent/batch.h"

namespace perf {

namespace {

using dsmt::report::Json;

// The load shape. One process, two generator threads, four connections;
// the server and the batch run with two solve threads.
constexpr double kOpenRate = 5000.0;  // requests per second
constexpr int kConnections = 4;
constexpr int kClosedInflight = 8;  // per connection
// Sub-windows of the open and of the closed loop; each timing metric is
// the median of its sub-window values.
constexpr int kWindows = 20;
// One spawn-to-ping varies by ±20% from spawn to spawn; setup_s is the
// median of this many.
constexpr int kSetupSpawns = 25;
constexpr int kServerThreads = 2;
constexpr const char* kWorkers = "2";
// A generator that runs later than this at p99 measures itself, not the
// server: the run is invalid.
constexpr double kMaxLagP99Us = 1000.0;
// uds_hot_cached: cold entries pre-filled beside the hot set.
constexpr std::size_t kColdEntries = 20000;
// table_batch: duty points per (technology, level, gap-fill) family; the
// six NTRS technologies have 41 levels, so 123 families and 49,200 cells.
constexpr std::size_t kTableDutyPoints = 400;
constexpr int kTableMinRepeats = 9;
constexpr std::size_t kReplayRequests = 20000;
constexpr std::int64_t kSpawnTimeoutNs = 30'000'000'000;
// A server drains, a batch document finishes, within this; past it the
// process is killed and the run fails.
constexpr std::int64_t kExitTimeoutNs = 20'000'000'000;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Closed-loop requests per planned closed-loop second: the closed loop is
/// a fixed amount of work, sized to take about its planned time on the
/// baseline host. Fixing the work rather than the time keeps rss_mb (the
/// server keeps every full solve in its rung-1 reference cache) and the
/// verification cost independent of how fast the server is.
double closed_rate(Workload workload) {
  switch (workload) {
    case Workload::kUdsMixed:
      return 65000.0;
    case Workload::kUdsHotCached:
      return 50000.0;
    case Workload::kIsolateMixed:
      return 21000.0;
    case Workload::kTableBatch:
      break;
  }
  return 0.0;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// Scratch space of one workload run: sockets, cache copies, outputs.
class WorkDir {
 public:
  WorkDir(const Options& options, Workload workload)
      : path_(options.build_dir + "/run/" + workload_name(workload) + "-" +
              std::to_string(::getpid())) {
    remove_tree(path_);
    make_dirs(path_);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }
  /// Keeps the directory (logs, outputs) for inspection after a failure.
  void keep() { keep_ = true; }
  ~WorkDir() {
    if (!keep_) remove_tree(path_);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

 private:
  std::string path_;
  bool keep_ = false;
};

/// A pre-filled uds_hot_cached segment: the hot set plus kColdEntries cold
/// entries, written as the cache writes them (cache/segment.h records).
std::string prefill_segment(const Stream& stream, std::size_t cold) {
  std::string segment;
  const std::uint64_t stamp = dsmt::cache::default_schema_stamp();
  const auto add = [&](const dsmt::service::Request& request) {
    const dsmt::service::LadderProblem ladder =
        dsmt::service::build_problem(request);
    const dsmt::selfconsistent::Solution solution =
        dsmt::selfconsistent::solve_one(ladder.full);
    if (!dsmt::cache::canonical_solve(solution)) return;
    segment += dsmt::cache::encode_record(
        dsmt::cache::encode_payload(dsmt::cache::canonical_key(request),
                                    dsmt::cache::from_solution(solution)),
        stamp);
  };
  for (std::uint64_t i = 0; i < cold; ++i) add(stream.cold(i).request);
  for (const Generated& g : stream.hot_set()) add(g.request);
  return segment;
}

/// Flags every reply whose bytes differ from the reference.
std::size_t mark_bad(const std::vector<Reply>& replies,
                     std::span<const Expected> expected,
                     std::vector<char>& bad) {
  bad.assign(replies.size(), 0);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    const Expected& e = expected[i];
    if (r.done_ns == 0 || !r.id_ok || r.hash != e.hash || r.size != e.size) {
      bad[i] = 1;
      ++failed;
    }
  }
  return failed;
}

void require_full_rung(const std::vector<Expected>& expected,
                       const char* what, Result& result) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!expected[i].full_rung) {
      result.problems.push_back(std::string(what) + " request " +
                                std::to_string(i) +
                                " does not answer ok at rung 0");
      return;
    }
  }
}

long long member(const Json& node, const char* key) {
  const Json* value = node.find(key);
  return value != nullptr && value->is_number() ? value->as_integer() : -1;
}

/// The server's own account of the run must balance with the client's.
void check_signoff(const std::string& text, std::uint64_t solve_requests,
                   Workload workload, Result& result) {
  try {
    const Json root = Json::parse(text);
    const Json* net = root.find("net");
    if (net == nullptr) throw std::runtime_error("no net section");
    const long long frames = member(*net, "frames_in");
    const long long replies = member(*net, "replies_sent");
    const long long pings = member(*net, "pings");
    if (frames != replies + pings)
      result.problems.push_back(
          "sign-off: frames_in " + std::to_string(frames) +
          " != replies_sent + pings " + std::to_string(replies + pings));
    if (replies != static_cast<long long>(solve_requests))
      result.problems.push_back("sign-off: replies_sent " +
                                std::to_string(replies) + " != requests sent " +
                                std::to_string(solve_requests));
    for (const char* key :
         {"rejected_connections", "rejected_inflight", "invalid_requests",
          "protocol_errors", "evicted_idle", "evicted_midframe",
          "evicted_stalled", "resets"})
      if (member(*net, key) != 0)
        result.problems.push_back(std::string("sign-off: net.") + key +
                                  " = " + std::to_string(member(*net, key)));
    const Json* clean = net->find("drained_clean");
    if (clean == nullptr || !clean->as_bool())
      result.problems.push_back("sign-off: drain was not clean");
    if (workload == Workload::kIsolateMixed) {
      const Json* sup = root.find("supervise");
      const Json* stats = sup != nullptr ? sup->find("stats") : nullptr;
      if (stats == nullptr || member(*stats, "crashes") != 0)
        result.problems.push_back("sign-off: supervised workers crashed");
    }
  } catch (const std::exception& e) {
    result.problems.push_back(std::string("sign-off unreadable: ") + e.what());
  }
}

/// One spawned dsmt_serve in socket mode.
struct Server {
  Child child;
  std::string socket;
  std::string output;
};

class SocketRun {
 public:
  SocketRun(const Options& options, const Plan& plan, Workload workload,
            dsmt::supervise::WorkerPool* pool)
      : options_(options),
        plan_(plan),
        workload_(workload),
        pool_(pool),
        stream_(workload, options.seed),
        dir_(options, workload) {
    result_.workload = workload;
  }

  Result run();

 private:
  /// Consecutive requests of a phase as frames and ids, and, for the open
  /// loop, their expected replies.
  struct Batch {
    std::vector<std::string> frames;
    std::vector<std::string> ids;
    std::vector<Expected> expected;
  };
  /// A closed-loop sub-window: its span and its slice of the records.
  struct ClosedWindow {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t first = 0;
    std::size_t last = 0;
  };

  /// Spawns server number k and waits for its first answered ping;
  /// returns the spawn-to-ping time [s], or a negative value on failure.
  double spawn(int k, Server& server);
  /// SIGTERM, reap, and check the sign-off; returns the peak RSS [MiB].
  double stop(Server& server, std::uint64_t solve_requests);
  /// Frames and ids of requests first .. first + n - 1 of a phase.
  Batch frames(Phase phase, std::uint64_t first, std::size_t n) const;
  /// The first n requests of an open-loop phase with their expected
  /// replies: computed before any window, they are the pre-check that every
  /// request answers ok at rung 0.
  Batch prepare(Phase phase, std::size_t n);
  /// Sends requests [begin, end) of `batch` open-loop and verifies them;
  /// a timed window also records its latency quantiles.
  void open_window(const Server& server, const Batch& batch,
                   std::size_t begin, std::size_t end, bool timed);
  void closed_window(const Server& server, std::uint64_t count);
  /// Verifies every closed-loop reply, then counts each window's rate.
  void finish_closed();
  void fail(std::string problem) {
    result_.problems.push_back(std::move(problem));
  }

  const Options& options_;
  const Plan& plan_;
  const Workload workload_;
  dsmt::supervise::WorkerPool* pool_;
  const Stream stream_;
  WorkDir dir_;
  std::string seed_segment_;
  Result result_;
  std::uint64_t solve_requests_ = 0;  ///< sent to the measured server
  std::vector<double> p50s_;          ///< per open window [ms]
  std::vector<double> p90s_;
  std::vector<double> p99s_;
  std::vector<double> lag_us_;
  std::size_t open_samples_ = 0;
  std::size_t window_held_ = 0;
  std::uint64_t closed_next_ = 0;  ///< next closed-loop request index
  std::vector<std::uint64_t> closed_index_;
  std::vector<Reply> closed_replies_;
  std::vector<ClosedWindow> closed_windows_;
  double max_rps_ = 0.0;
  std::size_t closed_completions_ = 0;
};

double SocketRun::spawn(int k, Server& server) {
  const std::string tag = std::to_string(k);
  server.socket = dir_.file("s" + tag + ".sock");
  server.output = dir_.file("signoff" + tag + ".json");
  ::unlink(server.socket.c_str());
  std::vector<std::string> argv = {options_.build_dir + "/dsmt_serve",
                                   "--listen", server.socket};
  if (workload_ == Workload::kUdsHotCached) {
    // A fresh copy per spawn: set-up includes recovering the segment.
    const std::string cache = dir_.file("cache" + tag);
    make_dirs(cache);
    if (!write_file(cache + "/solve.dsc", seed_segment_)) {
      fail("cannot copy the cache segment");
      return -1.0;
    }
    argv.insert(argv.end(), {"--cache-dir", cache});
  }
  if (workload_ == Workload::kIsolateMixed)
    argv.insert(argv.end(), {"--isolate", "--workers", kWorkers});
  if (!server.child.spawn(argv, kServerThreads, server.output,
                          dir_.file("server.log"))) {
    fail("cannot spawn " + argv[0]);
    return -1.0;
  }
  const std::int64_t start = server.child.start_ns();
  if (!ping(server.socket, start + kSpawnTimeoutNs)) {
    fail("server " + std::to_string(k) + " never answered a ping");
    return -1.0;
  }
  return seconds_between(start, now_ns());
}

double SocketRun::stop(Server& server, std::uint64_t solve_requests) {
  server.child.terminate();
  const Exit exit = server.child.wait(now_ns() + kExitTimeoutNs);
  if (exit.timed_out) {
    fail("server did not exit within 20 s of SIGTERM");
    return 0.0;
  }
  if (!exit.exited || exit.code != 0) {
    fail("server exited with code " + std::to_string(exit.code) +
         ", signal " + std::to_string(exit.signal));
    return 0.0;
  }
  std::string text;
  if (!read_file(server.output, text)) {
    fail("no sign-off from the server");
    return 0.0;
  }
  check_signoff(text, solve_requests, workload_, result_);
  return exit.rss_mb;
}

SocketRun::Batch SocketRun::frames(Phase phase, std::uint64_t first,
                                   std::size_t n) const {
  Batch batch;
  batch.frames.resize(n);
  batch.ids.resize(n);
  split_work(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      batch.frames[i] =
          dsmt::net::encode_frame(stream_.payload(phase, first + i));
      batch.ids[i] = request_id(phase, first + i);
    }
  });
  return batch;
}

SocketRun::Batch SocketRun::prepare(Phase phase, std::size_t n) {
  Batch batch = frames(phase, 0, n);
  batch.expected = expect_all(
      n, [&](std::size_t i) { return stream_.at(phase, i).request; });
  require_full_rung(batch.expected, "open-loop", result_);
  return batch;
}

void SocketRun::open_window(const Server& server, const Batch& batch,
                            std::size_t begin, std::size_t end, bool timed) {
  const std::size_t n = end - begin;
  if (n == 0) return;
  const OpenLoopResult open = run_open_loop(
      server.socket, std::span(batch.frames).subspan(begin, n),
      std::span(batch.ids).subspan(begin, n), plan_.rate, kConnections);
  solve_requests_ += n;
  result_.attempted += n;
  if (!open.error.empty()) fail("open loop: " + open.error);
  std::vector<char> bad;
  result_.failed += mark_bad(
      open.replies, std::span(batch.expected).subspan(begin, n), bad);
  if (!timed) return;

  // Latency runs from each request's due time; a failed request never met
  // any limit.
  std::vector<double> ms;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due =
        open.start_ns + static_cast<std::int64_t>(i) * open.period_ns;
    ms.push_back(bad[i] ? kInf
                        : static_cast<double>(open.replies[i].done_ns - due) /
                              1e6);
  }
  p50s_.push_back(quantile(ms, 0.50));
  p90s_.push_back(quantile(ms, 0.90));
  p99s_.push_back(quantile(ms, 0.99));
  lag_us_.insert(lag_us_.end(), open.lag_us.begin(), open.lag_us.end());
  open_samples_ += n;
  window_held_ += open.window_held;
}

void SocketRun::closed_window(const Server& server, std::uint64_t count) {
  // Built before the window, so the generator's one CPU only sends and
  // receives while the server is measured.
  const Batch batch = frames(Phase::kClosed, closed_next_, count);
  const ClosedLoopResult closed = run_closed_loop(
      server.socket, batch.frames, batch.ids, kConnections, kClosedInflight);
  for (const std::size_t i : closed.index)
    closed_index_.push_back(closed_next_ + i);
  closed_next_ += count;
  solve_requests_ += closed.sent;
  result_.attempted += closed.sent;
  if (!closed.error.empty()) fail("closed loop: " + closed.error);
  result_.failed += closed.sent - closed.replies.size();
  closed_windows_.push_back({closed.start_ns, closed.end_ns,
                             closed_replies_.size(),
                             closed_replies_.size() + closed.replies.size()});
  closed_replies_.insert(closed_replies_.end(), closed.replies.begin(),
                         closed.replies.end());
}

void SocketRun::finish_closed() {
  const std::vector<Expected> expected =
      expect_all(closed_index_.size(), [&](std::size_t j) {
        return stream_.at(Phase::kClosed, closed_index_[j]).request;
      });
  require_full_rung(expected, "closed-loop", result_);
  std::vector<char> bad;
  result_.failed += mark_bad(closed_replies_, expected, bad);
  std::vector<double> rps;
  for (const ClosedWindow& w : closed_windows_) {
    std::size_t count = 0;
    for (std::size_t j = w.first; j < w.last; ++j) {
      const std::int64_t t = closed_replies_[j].done_ns;
      if (!bad[j] && t >= w.start_ns && t < w.end_ns) ++count;
    }
    rps.push_back(static_cast<double>(count) /
                  seconds_between(w.start_ns, w.end_ns));
    closed_completions_ += count;
  }
  max_rps_ = median(rps);
}

Result SocketRun::run() {
  if (workload_ == Workload::kUdsHotCached)
    seed_segment_ = prefill_segment(stream_, kColdEntries);

  // Set-up: the median of several spawns, each timed to its first answered
  // ping; the last one stays up and is measured.
  std::vector<double> setup;
  Server server;
  for (int k = 0; k < plan_.setup_spawns; ++k) {
    if (server.child.running()) {
      stop(server, 0);
      remove_tree(dir_.file("cache" + std::to_string(k - 1)));
    }
    const double s = spawn(k, server);
    if (s < 0.0) break;
    setup.push_back(s);
  }
  if (!result_.problems.empty()) {
    dir_.keep();
    return result_;
  }

  const auto count = [&](double seconds) {
    return static_cast<std::size_t>(std::llround(plan_.rate * seconds));
  };
  const Batch warm = prepare(Phase::kWarmup, count(plan_.warmup_s));
  const Batch open = prepare(Phase::kOpen, count(plan_.open_s));
  if (result_.problems.empty())
    open_window(server, warm, 0, warm.ids.size(), false);
  // The open- and closed-loop sub-windows alternate, so that each metric
  // samples the whole run rather than one stretch of the host's weather.
  const std::size_t n = open.ids.size();
  const auto closed_per_window = static_cast<std::uint64_t>(std::llround(
      closed_rate(workload_) * plan_.closed_s / kWindows));
  for (int w = 0; w < kWindows && result_.problems.empty(); ++w) {
    open_window(server, open, n * w / kWindows, n * (w + 1) / kWindows, true);
    if (closed_per_window > 0 && result_.problems.empty())
      closed_window(server, closed_per_window);
  }
  const double rss_mb = stop(server, solve_requests_);
  if (!closed_windows_.empty()) finish_closed();

  // Validity needs a p99 with at least ten samples beyond it.
  const double lag_p99 = quantile(lag_us_, 0.99);
  if (lag_p99 > kMaxLagP99Us && lag_us_.size() >= 1000)
    fail("invalid run: generator lag p99 " + std::to_string(lag_p99) +
         " us exceeds 1 ms");
  result_.notes.push_back({"error_share",
                           result_.attempted > 0
                               ? static_cast<double>(result_.failed) /
                                     static_cast<double>(result_.attempted)
                               : 0.0,
                           "fraction", result_.attempted});
  result_.notes.push_back({"p99_ms", median(p99s_), "ms", open_samples_});
  result_.notes.push_back(
      {"generator_lag_p99_us", lag_p99, "us", lag_us_.size()});
  result_.notes.push_back({"window_held", static_cast<double>(window_held_),
                           "count", open_samples_});

  const double p50_ms = median(p50s_);
  if (!options_.trace) {
    result_.metrics.push_back({"setup_s", median(setup), "s", setup.size()});
    result_.metrics.push_back({"p50_ms", p50_ms, "ms", open_samples_});
    result_.metrics.push_back({"p90_ms", median(p90s_), "ms", open_samples_});
    result_.metrics.push_back(
        {"max_rps", max_rps_, "req/s", closed_completions_});
    result_.metrics.push_back({"rss_mb", rss_mb, "MiB", 1});
  } else if (result_.correct()) {
    result_.notes.push_back({"timed.p50_ms", p50_ms, "ms", open_samples_});
    ReplayInputs in;
    in.workload = workload_;
    in.stream = &stream_;
    in.requests = plan_.replay_requests;
    in.work_dir = dir_.path();
    in.pool = pool_;
    in.timed_p50_ms = p50_ms;
    in.trace_path = options_.build_dir + "/trace/" + workload_name(workload_) +
                    ".trace.json";
    if (workload_ == Workload::kUdsHotCached) {
      in.seed_segment = dir_.file("seed.dsc");
      write_file(in.seed_segment, seed_segment_);
    }
    const ReplayOutput replay = run_replay(in);
    if (!replay.error.empty()) fail(replay.error);
    result_.metrics = replay.per_layer;
    result_.attempted += plan_.replay_requests;
    for (const Metric& m : replay.per_layer)
      if (m.name == "service.full_rung_share" && m.value != 1.0)
        fail("replay: not every request answered at rung 0");
    result_.notes.push_back(
        {"trace.overhead_share", replay.overhead_share, "fraction", 0});
    result_.notes.push_back({"trace.wall_off_s", replay.wall_off_s, "s", 0});
    result_.notes.push_back({"trace.wall_on_s", replay.wall_on_s, "s", 0});
    for (const Metric& m : replay.self_us) result_.notes.push_back(m);
  }
  if (!result_.correct()) dir_.keep();
  return result_;
}

/// Compares a batch document against the expected replies element by
/// element; returns the number of cells whose bytes differ.
std::size_t verify_batch(const std::string& out,
                         const std::vector<Expected>& expected,
                         Result& result) {
  const std::string head = "{\"responses\":[";
  if (out.compare(0, head.size(), head) != 0) {
    result.problems.push_back("batch output does not start with responses");
    return expected.size();
  }
  std::size_t pos = head.size();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Expected& e = expected[i];
    const char sep = i + 1 < expected.size() ? ',' : ']';
    if (pos + e.size >= out.size() || out[pos + e.size] != sep ||
        payload_hash(std::string_view(out).substr(pos, e.size)) != e.hash) {
      // Element boundaries are lost from here on.
      return expected.size() - i;
    }
    pos += e.size + 1;
  }
  const std::string tail = ",\"service\":";
  if (out.compare(pos, tail.size(), tail) != 0) {
    result.problems.push_back("batch output lacks the service section");
    return 0;
  }
  try {
    const std::size_t close = out.find_last_of('}');
    const Json service =
        Json::parse(out.substr(pos + tail.size(), close - pos - tail.size()));
    const Json* queue = service.find("queue");
    const Json* outcomes = service.find("outcomes");
    if (queue == nullptr || outcomes == nullptr ||
        member(*queue, "shed") != 0 || member(*outcomes, "failed") != 0 ||
        member(*outcomes, "ok_full") !=
            static_cast<long long>(expected.size()))
      result.problems.push_back("batch service counters do not balance");
  } catch (const std::exception& e) {
    result.problems.push_back(std::string("batch service section: ") +
                              e.what());
  }
  return 0;
}

Result run_table(const Options& options, const Plan& plan,
                 dsmt::supervise::WorkerPool* pool) {
  Result result;
  result.workload = Workload::kTableBatch;
  const Stream stream(Workload::kTableBatch, options.seed);
  WorkDir dir(options, Workload::kTableBatch);
  const std::vector<Generated> cells =
      stream.table_sweep(plan.table_duty_points);
  const std::string document = batch_document(cells, cells.size());
  const std::string table_path = dir.file("table.json");
  const std::string one_path = dir.file("one.json");
  if (!write_file(table_path, document) ||
      !write_file(one_path, "[" + cells.front().payload + "]")) {
    result.problems.push_back("cannot write the batch documents");
    return result;
  }
  const std::vector<Expected> expected = expect_all(
      cells.size(), [&](std::size_t i) { return cells[i].request; });
  require_full_rung(expected, "table", result);
  if (!result.problems.empty()) return result;

  const std::string queue = std::to_string(cells.size());
  const auto argv = [&](const std::string& batch) {
    return std::vector<std::string>{options.build_dir + "/dsmt_serve",
                                    "--batch", batch, "--indent", "-1",
                                    "--queue", queue};
  };
  const std::string out_path = dir.file("out.json");
  const auto run_once = [&](const std::string& batch, double& seconds,
                            double& rss_mb) {
    Child child;
    if (!child.spawn(argv(batch), kServerThreads, out_path,
                     dir.file("batch.log"))) {
      result.problems.push_back("cannot spawn dsmt_serve --batch");
      return false;
    }
    const Exit exit = child.wait(child.start_ns() + kExitTimeoutNs);
    seconds = seconds_between(child.start_ns(), exit.end_ns);
    rss_mb = exit.rss_mb;
    if (exit.timed_out) {
      result.problems.push_back("batch did not finish within 20 s");
      return false;
    }
    if (!exit.exited || exit.code != 0) {
      result.problems.push_back("batch exited with code " +
                                std::to_string(exit.code));
      return false;
    }
    return true;
  };

  // Set-up: spawn to exit of a one-cell batch, the batch user's fixed cost.
  std::vector<double> setup;
  for (int k = 0; k < plan.setup_spawns; ++k) {
    double s = 0.0;
    double rss = 0.0;
    if (!run_once(one_path, s, rss)) break;
    setup.push_back(s);
  }

  std::vector<double> ms;
  std::vector<double> rss;
  const std::int64_t start = now_ns();
  while (result.problems.empty() &&
         (static_cast<int>(ms.size()) < plan.table_min_repeats ||
          seconds_between(start, now_ns()) < plan.table_s)) {
    double s = 0.0;
    double r = 0.0;
    if (!run_once(table_path, s, r)) break;
    ms.push_back(s * 1e3);
    rss.push_back(r);
    std::string out;
    result.attempted += cells.size();
    if (!read_file(out_path, out)) {
      result.problems.push_back("no batch output");
      break;
    }
    result.failed += verify_batch(out, expected, result);
  }
  if (!result.problems.empty()) {
    dir.keep();
    return result;
  }

  // A document is this workload's request: its latency is spawn to exit,
  // its throughput cells per second at the median.
  const double p50_ms = median(ms);
  result.notes.push_back({"cells", static_cast<double>(cells.size()), "count",
                          ms.size()});
  result.notes.push_back({"error_share",
                          static_cast<double>(result.failed) /
                              static_cast<double>(result.attempted),
                          "fraction", result.attempted});
  if (!options.trace) {
    result.metrics.push_back({"setup_s", median(setup), "s", setup.size()});
    result.metrics.push_back({"p50_ms", p50_ms, "ms", ms.size()});
    result.metrics.push_back({"p90_ms", quantile(ms, 0.90), "ms", ms.size()});
    result.metrics.push_back(
        {"max_rps", static_cast<double>(cells.size()) / (p50_ms / 1e3),
         "req/s", ms.size()});
    result.metrics.push_back({"rss_mb", median(rss), "MiB", rss.size()});
    return result;
  }

  result.notes.push_back({"timed.p50_ms", p50_ms, "ms", ms.size()});
  ReplayInputs in;
  in.workload = Workload::kTableBatch;
  in.stream = &stream;
  in.requests = plan.replay_requests;
  in.table = &cells;
  in.work_dir = dir.path();
  in.pool = pool;
  in.timed_p50_ms = p50_ms;
  in.trace_path = options.build_dir + "/trace/table_batch.trace.json";
  const ReplayOutput replay = run_replay(in);
  if (!replay.error.empty()) result.problems.push_back(replay.error);
  result.metrics = replay.per_layer;
  result.notes.push_back(
      {"trace.overhead_share", replay.overhead_share, "fraction", 0});
  result.notes.push_back({"trace.wall_off_s", replay.wall_off_s, "s", 0});
  result.notes.push_back({"trace.wall_on_s", replay.wall_on_s, "s", 0});
  for (const Metric& m : replay.self_us) result.notes.push_back(m);
  if (!result.correct()) dir.keep();
  return result;
}

}  // namespace

Plan make_plan(const Options& options) {
  Plan p;
  // Smoke: every workload and check at a tenth of the duration and rate.
  const double scale = options.smoke ? 0.1 : 1.0;
  const double s = options.seconds * scale;
  p.rate = kOpenRate * scale;
  p.warmup_s = s * 2.0 / 30.0;
  p.table_duty_points =
      options.smoke ? kTableDutyPoints / 10 : kTableDutyPoints;
  p.replay_requests = options.smoke ? kReplayRequests / 10 : kReplayRequests;
  if (options.trace) {
    // The timed part of a traced run only feeds net.unaccounted_us.
    p.open_s = s / 3.0;
    p.setup_spawns = 1;
    p.table_min_repeats = 3;
  } else {
    p.open_s = s * 20.0 / 30.0;
    p.closed_s = s * 8.0 / 30.0;
    p.setup_spawns = kSetupSpawns;
    p.table_s = s;
    p.table_min_repeats = kTableMinRepeats;
  }
  return p;
}

Result run_workload(const Options& options, const Plan& plan,
                    Workload workload, dsmt::supervise::WorkerPool* pool) {
  try {
    if (workload == Workload::kTableBatch)
      return run_table(options, plan, pool);
    return SocketRun(options, plan, workload, pool).run();
  } catch (const std::exception& e) {
    Result result;
    result.workload = workload;
    result.problems.push_back(std::string("run failed: ") + e.what());
    return result;
  }
}

}  // namespace perf
