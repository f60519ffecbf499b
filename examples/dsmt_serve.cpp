// dsmt_serve — front end over the fault-tolerant request service
// (dsmt::service::Server), in one of two modes:
//
// Batch mode (default): reads a JSON batch (a bare array of request
// objects, or {"requests": [...]}), serves it through admission control /
// solve cache / one solve / degradation ladder, and prints one JSON document:
//
//   {"responses": [...one structured response per request, in order...],
//    "service":   {...admission and outcome counters, cache...}}
//
// The whole document is parsed first (a malformed one exits 2 before any
// output); then the replies are solved and written in chunks of
// service::kBatchChunk, so memory holds the decoded requests plus one chunk.
//
// Socket mode (--listen PATH or --tcp PORT): runs the hardened socket
// front end (dsmt::net::Server) speaking DSM1-framed request/response JSON
// until SIGTERM/SIGINT, then drains gracefully — stop accepting, finish or
// deadline-out in-flight work, flush — and prints the sign-off report
// (connection counters plus the section of the backend built here: the
// in-process "service", or under --isolate "supervise") on stdout.
//
// Process isolation (--isolate, socket mode only): solves run in forked
// worker children supervised by dsmt::supervise::WorkerPool instead of in
// the serving process. A worker that segfaults, aborts, OOMs, or trips its
// rlimit rails (--rlimit-as-mb / --rlimit-cpu-s) kills one request — the
// front end answers it "worker-crashed", restarts the slot, and keeps
// serving; a request that crashes two workers is quarantined. --crash-faults
// arms the chaos harness IN THE CHILDREN ONLY (see numeric/fault_injection).
// The solve cache (--cache-dir) is in-process only: the parent never solves,
// and children must not share a segment file.
//
// Numeric options take whole base-10 integers, checked in every mode
// (also printed by --help): --tick-ms and --workers at least 1, --tcp at
// most 65535, --indent any int (negative prints one line), every other
// count or budget at least 0.
//
// Exit-code contract (also printed by --help):
//   0  batch: every request got a terminal response (shed and degraded
//      count as served; with --strict, additionally no terminal response
//      carries a failure status);
//      socket: the drain completed cleanly inside its tick budget (with
//      --strict, a forced drain also exits 1). --isolate does not change
//      the contract: worker deaths surface as per-request "worker-crashed"
//      responses, never as a nonzero front-end exit
//   1  --strict violation: a terminal failure response (batch) or a forced
//      drain (socket)
//   2  usage, batch-parse, or socket-setup errors (an option it does not
//      know, a numeric value that is not a whole integer in the option's
//      range, --isolate with --batch or with --cache-dir, unknown
//      --crash-faults kind, or a failed initial worker fork), and output
//      that stdout refused ("cannot write output: ..."; a batch document
//      may then be cut short), with or without --strict
//
// With fault injection disarmed, batch output is bit-identical for every
// DSMT_THREADS value, and so is each connection's reply byte stream in
// socket mode — with or without --isolate (worker replies are forwarded
// byte-verbatim).
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/cli.h"
#include "net/server.h"
#include "net/wire.h"
#include "numeric/fault_injection.h"
#include "service/server.h"
#include "supervise/pool.h"

namespace {

using namespace dsmt;

/// Single funnel for every usage/error print, so messages stay uniform and
/// grep-able ("dsmt_serve: ..." on stderr).
void print_error(const std::string& message) {
  std::fprintf(stderr, "dsmt_serve: %s\n", message.c_str());
}

/// Every --name VALUE option main reads. Any other name is a usage error:
/// a misspelled or retired option must not be silently ignored.
constexpr const char* kValueOptions[] = {
    "batch",        "listen",       "tcp",          "queue",
    "deadline-ms",  "indent",       "cache-dir",    "max-connections",
    "max-inflight", "tick-ms",      "idle-ticks",   "drain-ticks",
    "workers",      "rlimit-as-mb", "rlimit-cpu-s", "crash-faults"};

/// The value of --name under core::number_option's rule ("0" for a tick
/// is out of range too), so main exits 2 naming the option instead of
/// serving a misread number.
template <typename T>
T number_option(const std::map<std::string, std::string>& opts,
                const std::string& name,
                T min = std::numeric_limits<T>::lowest(),
                T max = std::numeric_limits<T>::max()) {
  return core::number_option<T>(name, opts.at(name), min, max);
}

int usage(bool to_stdout = false) {
  std::fprintf(
      to_stdout ? stdout : stderr,
      "usage: dsmt_serve [--batch file.json|-] [--listen SOCKET_PATH]\n"
      "                  [--tcp PORT] [--queue N] [--deadline-ms M]\n"
      "                  [--max-connections N] [--max-inflight N]\n"
      "                  [--tick-ms M] [--idle-ticks N] [--drain-ticks N]\n"
      "                  [--isolate] [--workers N] [--rlimit-as-mb N]\n"
      "                  [--rlimit-cpu-s N] [--crash-faults KIND[:SUBSTR]]\n"
      "                  [--cache-dir DIR]\n"
      "                  [--indent N] [--strict] [--help]\n"
      "\n"
      "Batch mode (default; --batch - reads stdin) serves one JSON batch\n"
      "and prints {\"responses\": [...], \"service\": {...}}.\n"
      "Socket mode (--listen or --tcp, mutually exclusive with --batch)\n"
      "serves DSM1-framed requests until SIGTERM/SIGINT, drains\n"
      "gracefully, and prints the sign-off report.\n"
      "\n"
      "--isolate (socket mode only) runs solves in --workers forked child\n"
      "processes: a crashing request costs one worker, answered\n"
      "\"worker-crashed\"; two crashes quarantine the request's hash.\n"
      "--rlimit-as-mb/--rlimit-cpu-s rail each worker; --crash-faults\n"
      "KIND[:SUBSTR] (abort|segv|oom|stall, default SUBSTR \"poison\") arms the\n"
      "crash-chaos harness in the children only.\n"
      "\n"
      "--cache-dir DIR persists the content-addressed solve cache as an\n"
      "append-only checksummed segment (DIR/solve.dsc), recovered and\n"
      "repaired at startup. Every hit is checksum-verified and replies\n"
      "stay byte-identical to cold solves; corrupt entries are\n"
      "quarantined, never served. The cache is in-process only:\n"
      "--cache-dir with --isolate is refused.\n"
      "\n"
      "Numeric values are whole base-10 integers, checked in every mode:\n"
      "--tick-ms and --workers at least 1, --tcp at most 65535, --indent\n"
      "any int (negative prints one line), every other count or budget at\n"
      "least 0.\n"
      "\n"
      "exit codes:\n"
      "  0  served: every request answered (batch) / clean drain (socket);\n"
      "     worker crashes under --isolate never change the exit code\n"
      "  1  --strict violation: terminal failure response or forced drain\n"
      "  2  usage, batch-parse, or socket-setup error (unknown option,\n"
      "     invalid numeric value, --isolate with --batch or --cache-dir,\n"
      "     bad --crash-faults kind, failed initial worker fork), or\n"
      "     stdout refused the output (\"cannot write output\")\n");
  return to_stdout ? 0 : 2;
}

bool read_all(const std::string& path, std::string& out) {
  std::FILE* in = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (in == nullptr) return false;
  char buf[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, in)) > 0)
    out.append(buf, got);
  const bool ok = std::ferror(in) == 0;
  if (in != stdin) std::fclose(in);
  return ok;
}

/// stdout refused bytes; main reports it and exits 2.
struct OutputError : std::runtime_error {
  OutputError() : std::runtime_error(std::strerror(errno)) {}
};

/// Writes `bytes` to stdout; throws OutputError when they are refused.
void write_stdout(std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), stdout) != bytes.size())
    throw OutputError();
}

/// Flushes stdout; throws OutputError when the flush (or an earlier
/// buffered write) failed.
void flush_stdout() {
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0)
    throw OutputError();
}

int run_batch(const std::map<std::string, std::string>& opts,
              const service::ServerConfig& config, bool strict, int indent) {
  const auto batch_it = opts.find("batch");
  const std::string path = batch_it != opts.end() ? batch_it->second : "-";
  std::vector<service::Request> batch;
  {
    std::string text;
    if (!read_all(path, text)) {
      print_error("cannot read batch '" + path + "'");
      return 2;
    }
    batch = service::parse_batch(text);
  }  // the input text is freed before the first solve

  service::Server server(config);
  const std::size_t failures =
      service::write_batch_document(server, batch, indent, write_stdout);
  write_stdout("\n");
  flush_stdout();
  if (strict && failures > 0) {
    print_error("--strict: " + std::to_string(failures) + " of " +
                std::to_string(batch.size()) +
                " responses carry a failure status");
    return 1;
  }
  return 0;
}

/// Parses --crash-faults KIND[:SUBSTR] into a child fault plan. Returns
/// false on an unknown kind.
bool parse_crash_faults(const std::string& value,
                        numeric::fault::FaultPlan& plan) {
  const std::size_t colon = value.find(':');
  const std::string kind = value.substr(0, colon);
  if (kind == "abort")
    plan.kind = numeric::fault::FaultKind::kCrashAbort;
  else if (kind == "segv")
    plan.kind = numeric::fault::FaultKind::kCrashSegv;
  else if (kind == "oom")
    plan.kind = numeric::fault::FaultKind::kCrashOom;
  else if (kind == "stall")
    plan.kind = numeric::fault::FaultKind::kCrashStall;
  else
    return false;
  plan.kernel_substr = "supervise/worker";
  plan.key_substr =
      colon == std::string::npos ? "poison" : value.substr(colon + 1);
  return true;
}

/// Serves `config` until a drain, then prints the sign-off: the "net"
/// counters, then the backend's own section under `backend_key`.
int run_socket(const net::NetConfig& config, bool strict, int indent,
               const char* backend_key,
               const std::function<report::Json()>& backend_section) {
  net::Server server(config);
  server.open();  // fail fast (and resolve an ephemeral TCP port) pre-loop
  if (config.endpoint.kind == net::Endpoint::Kind::kTcp)
    std::fprintf(stderr, "dsmt_serve: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.bound_port()));
  else
    std::fprintf(stderr, "dsmt_serve: listening on %s\n",
                 config.endpoint.path.c_str());
  server.install_signal_drain();
  const net::NetStats stats = server.run();

  report::Json net_json = report::Json::object();
  net_json.set("accepted", report::Json::integer(
                               static_cast<long long>(stats.accepted)))
      .set("rejected_connections",
           report::Json::integer(
               static_cast<long long>(stats.rejected_connections)))
      .set("frames_in",
           report::Json::integer(static_cast<long long>(stats.frames_in)))
      .set("replies_sent",
           report::Json::integer(static_cast<long long>(stats.replies_sent)))
      .set("pings", report::Json::integer(static_cast<long long>(stats.pings)))
      .set("rejected_inflight",
           report::Json::integer(
               static_cast<long long>(stats.rejected_inflight)))
      .set("invalid_requests",
           report::Json::integer(
               static_cast<long long>(stats.invalid_requests)))
      .set("protocol_errors",
           report::Json::integer(
               static_cast<long long>(stats.protocol_errors)))
      .set("evicted_idle",
           report::Json::integer(static_cast<long long>(stats.evicted_idle)))
      .set("evicted_midframe",
           report::Json::integer(
               static_cast<long long>(stats.evicted_midframe)))
      .set("evicted_stalled",
           report::Json::integer(
               static_cast<long long>(stats.evicted_stalled)))
      .set("resets", report::Json::integer(
                         static_cast<long long>(stats.resets)))
      .set("replies_dropped",
           report::Json::integer(
               static_cast<long long>(stats.replies_dropped)))
      .set("drained_clean", report::Json::boolean(stats.drained_clean));
  report::Json root = report::Json::object();
  root.set("net", std::move(net_json));
  root.set(backend_key, backend_section());
  write_stdout(root.dump(indent) + "\n");
  flush_stdout();

  if (!stats.drained_clean) {
    print_error("drain timed out with work in flight (forced shutdown)");
    if (strict) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opts;
  bool strict = false;
  bool isolate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(/*to_stdout=*/true);
    if (arg == "--strict") {
      strict = true;
      continue;
    }
    if (arg == "--isolate") {
      isolate = true;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    const std::string name = arg.substr(2);
    if (std::find(std::begin(kValueOptions), std::end(kValueOptions), name) ==
        std::end(kValueOptions)) {
      print_error("unknown option '" + arg + "'");
      return usage();
    }
    if (i + 1 >= argc) return usage();
    opts[name] = argv[++i];
  }
  if (isolate && opts.count("cache-dir")) {
    print_error("--cache-dir is in-process only and cannot be combined "
                "with --isolate");
    return usage();
  }

  try {
    // Every numeric option is checked here, before the mode is chosen, so
    // a bad value exits 2 even in a mode that never reads it.
    service::ServerConfig config;
    constexpr std::uint64_t kNsPerMs = 1000000;
    if (opts.count("queue"))
      config.queue_capacity = number_option<std::size_t>(opts, "queue");
    if (opts.count("deadline-ms"))
      config.deadline_ns =
          number_option<std::uint64_t>(opts, "deadline-ms", 0,
                                       UINT64_MAX / kNsPerMs) *
          kNsPerMs;
    const int indent =
        opts.count("indent") ? number_option<int>(opts, "indent") : 2;

    net::NetConfig net_config;
    if (opts.count("tcp"))
      net_config.endpoint.port = number_option<std::uint16_t>(opts, "tcp");
    if (opts.count("max-connections"))
      net_config.max_connections =
          number_option<std::size_t>(opts, "max-connections");
    if (opts.count("max-inflight"))
      net_config.max_inflight_total =
          number_option<std::size_t>(opts, "max-inflight");
    if (opts.count("tick-ms"))
      net_config.tick_ms = number_option<int>(opts, "tick-ms", 1);
    if (opts.count("idle-ticks"))
      net_config.idle_timeout_ticks =
          number_option<std::uint64_t>(opts, "idle-ticks");
    if (opts.count("drain-ticks"))
      net_config.drain_timeout_ticks =
          number_option<std::uint64_t>(opts, "drain-ticks");
    // The request budget mirrors the service deadline so socket callers get
    // the same per-request guarantee as batch callers.
    net_config.request_deadline_ns = config.deadline_ns;

    supervise::SuperviseConfig sup;
    if (opts.count("workers"))
      sup.workers = number_option<std::size_t>(opts, "workers", 1);
    if (opts.count("rlimit-as-mb"))
      sup.limits.rlimit_as_bytes =
          number_option<std::uint64_t>(opts, "rlimit-as-mb", 0,
                                       UINT64_MAX >> 20)
          << 20;
    if (opts.count("rlimit-cpu-s"))
      sup.limits.rlimit_cpu_seconds =
          number_option<std::uint64_t>(opts, "rlimit-cpu-s");

    // Durable content-addressed solve cache: the segment file is
    // recovered/repaired here, before any server thread exists.
    if (opts.count("cache-dir")) {
      cache::SolveCacheConfig cache_config;
      cache_config.dir = opts["cache-dir"];
      config.solve_cache = std::make_shared<cache::SolveCache>(cache_config);
    }

    const bool socket_mode = opts.count("listen") > 0 || opts.count("tcp") > 0;
    if (!socket_mode) {
      if (isolate) {
        print_error("--isolate requires socket mode (--listen or --tcp)");
        return usage();
      }
      return run_batch(opts, config, strict, indent);
    }

    if (opts.count("batch") > 0 || (opts.count("listen") && opts.count("tcp"))) {
      print_error("--listen/--tcp are mutually exclusive with each other "
                  "and with --batch");
      return usage();
    }
    if (opts.count("listen")) {
      net_config.endpoint.kind = net::Endpoint::Kind::kUnix;
      net_config.endpoint.path = opts["listen"];
    } else {
      net_config.endpoint.kind = net::Endpoint::Kind::kTcp;
    }

    if (!isolate) {
      service::Server server(config);
      net_config.handler = [&server](const service::Request& request,
                                     std::uint64_t /*seq*/) {
        return net::response_frame(server.handle(request));
      };
      if (config.solve_cache != nullptr)
        net_config.health_source = [cache = config.solve_cache] {
          return report::Json::object().set("cache", cache->cache_json());
        };
      return run_socket(net_config, strict, indent, "service",
                        [&server] { return server.service_json(); });
    }

    sup.service = config;  // the CHILD-side service configuration
    if (opts.count("crash-faults") &&
        !parse_crash_faults(opts["crash-faults"], sup.limits.child_fault)) {
      print_error("--crash-faults: unknown kind in '" +
                  opts["crash-faults"] + "' (want abort|segv|oom|stall)");
      return usage();
    }
    // Fork the fleet BEFORE any server thread exists: the constructor is
    // the single-threaded window where fork() is safe.
    auto pool = std::make_unique<supervise::WorkerPool>(sup);
    if (pool->live_workers() == 0) {
      print_error("--isolate: no worker could be forked");
      return 2;
    }
    supervise::WorkerPool* pool_ptr = pool.get();
    net_config.handler = [pool_ptr](const service::Request& request,
                                    std::uint64_t seq) {
      return pool_ptr->execute(request, seq).frame;
    };
    net_config.health_source = [pool_ptr] {
      return report::Json::object().set("supervise",
                                        pool_ptr->supervise_json());
    };
    const int code =
        run_socket(net_config, strict, indent, "supervise",
                   [pool_ptr] { return pool_ptr->supervise_json(); });
    pool->shutdown();
    return code;
  } catch (const OutputError& e) {
    print_error(std::string("cannot write output: ") + e.what());
    return 2;
  } catch (const std::exception& e) {
    print_error(e.what());
    return 2;
  }
}
