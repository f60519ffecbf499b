// dsmt_perf — the layered, fingerprinted benchmark of the design-rule
// service. Normally started through perf/run.sh, which builds it first.
//
//   dsmt_perf [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]]
//             [--smoke] [--build-dir DIR] [--git-sha SHA] [--git-dirty 0|1]
//
// Without --workload all four workloads run in turn. A timed run prints
// every end-to-end metric as `workload metric value unit n=samples`; a
// traced run (--trace) replays each workload in-process and prints the
// per-layer metrics instead. Either way the result goes to
// DIR/results/<seed>-<unix ms>.json with the host and build fingerprint,
// and the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Exit codes: 0 every correctness check passed, 1 a check failed (wrong
// reply bytes, lost or refused requests, an unbalanced sign-off, an unclean
// drain, generator lag over 1 ms), 2 usage or environment errors.
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cache/fnv.h"
#include "proc.h"
#include "report/json.h"
#include "run.h"
#include "supervise/pool.h"

namespace {

using dsmt::report::Json;
using perf::Metric;
using perf::Options;
using perf::Result;
using perf::Workload;

/// Bumped whenever a change to the benchmark makes its numbers
/// incomparable with earlier results; compare.py refuses to mix versions.
constexpr const char* kBenchmarkVersion = "perf-1";
constexpr int kDsmtThreads = 2;

int usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "dsmt_perf: %s\n", error);
  std::fprintf(stderr,
               "usage: dsmt_perf [--workload uds_mixed|uds_hot_cached|"
               "isolate_mixed|table_batch]\n"
               "                 [--seed S] [--seconds T] [--trace [0|1]] "
               "[--smoke]\n"
               "                 [--build-dir DIR] [--git-sha SHA] "
               "[--git-dirty 0|1]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const auto value = [&] { return std::string(argv[++i]); };
    try {
      if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--trace") {
        // A bare --trace, or --trace 0|1.
        o.trace = true;
        if (has_value && (std::string(argv[i + 1]) == "0" ||
                          std::string(argv[i + 1]) == "1"))
          o.trace = value() == "1";
      } else if (!has_value) {
        return false;
      } else if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--build-dir") {
        o.build_dir = value();
      } else if (arg == "--git-sha") {
        o.git_sha = value();
      } else if (arg == "--git-dirty") {
        o.git_dirty = value();
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return o.seconds > 0.0 && std::isfinite(o.seconds);
}

std::string cpu_model() {
  std::string text;
  if (!perf::read_file("/proc/cpuinfo", text)) return "unknown";
  const std::size_t at = text.find("model name");
  if (at == std::string::npos) return "unknown";
  const std::size_t colon = text.find(':', at);
  const std::size_t end = text.find('\n', at);
  if (colon == std::string::npos || colon > end) return "unknown";
  return text.substr(colon + 2, end - colon - 2);
}

std::string kernel_release() {
  utsname u;
  return ::uname(&u) == 0 ? std::string(u.release) : "unknown";
}

/// Host and build identity: two result files compare only when these match.
Json provenance(const Options& o, std::string& fingerprint) {
  const std::string cpu = cpu_model();
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::string kernel = kernel_release();
  const std::string identity =
      cpu + "|" + std::to_string(nproc) + "|" + kernel + "|" +
      DSMT_PERF_COMPILER + "|" + DSMT_PERF_CXX_FLAGS + "|" +
      DSMT_PERF_BUILD_TYPE + "|" + std::to_string(kDsmtThreads) + "|" +
      kBenchmarkVersion;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(dsmt::cache::fnv1a(identity)));
  fingerprint = hex;
  Json p = Json::object();
  p.set("cpu_model", Json::string(cpu))
      .set("nproc", Json::integer(nproc))
      .set("kernel", Json::string(kernel))
      .set("compiler", Json::string(DSMT_PERF_COMPILER))
      .set("cxx_flags", Json::string(DSMT_PERF_CXX_FLAGS))
      .set("build_type", Json::string(DSMT_PERF_BUILD_TYPE))
      .set("git_sha", Json::string(o.git_sha))
      .set("git_dirty", Json::string(o.git_dirty))
      .set("dsmt_threads", Json::integer(kDsmtThreads))
      .set("cpu_placement", Json::string(perf::describe(perf::placement())))
      .set("seed", Json::integer(static_cast<long long>(o.seed)))
      .set("run_seconds", Json::number(o.seconds))
      .set("trace", Json::boolean(o.trace))
      .set("smoke", Json::boolean(o.smoke))
      .set("benchmark_version", Json::string(kBenchmarkVersion));
  return p;
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& m : metrics) {
    Json entry = Json::object();
    entry.set("value", Json::number_or_null(m.value))
        .set("unit", Json::string(m.unit))
        .set("samples", Json::integer(static_cast<long long>(m.samples)));
    out.set(m.name, std::move(entry));
  }
  return out;
}

Json result_json(const Result& r) {
  Json problems = Json::array();
  for (const std::string& p : r.problems) problems.push(Json::string(p));
  Json out = Json::object();
  out.set("correct", Json::boolean(r.correct()))
      .set("attempted", Json::integer(static_cast<long long>(r.attempted)))
      .set("failed", Json::integer(static_cast<long long>(r.failed)))
      .set("problems", std::move(problems))
      .set("metrics", metrics_json(r.metrics))
      .set("notes", metrics_json(r.notes));
  return out;
}

void print_metric(const Result& r, const Metric& m) {
  std::printf("%s %s %.6g %s n=%zu\n", perf::workload_name(r.workload),
              m.name.c_str(), m.value, m.unit.c_str(), m.samples);
}

/// A number for the summary line: every digit measured, null if not
/// finite (only possible in a run that is not correct).
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) { return Json::string(s).dump(-1); }

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return usage("bad arguments");
  std::vector<Workload> workloads;
  if (options.workload.empty()) {
    workloads.assign(std::begin(perf::kAllWorkloads),
                     std::end(perf::kAllWorkloads));
  } else {
    Workload w;
    if (!perf::workload_from_name(options.workload, w))
      return usage(("unknown workload '" + options.workload + "'").c_str());
    workloads.push_back(w);
  }
  // The library's pool and the servers the benchmark spawns all run with
  // the same thread count.
  ::setenv("DSMT_THREADS", std::to_string(kDsmtThreads).c_str(), 1);

  // The traced replay's own supervise::WorkerPool forks its workers here,
  // before this process has started any thread.
  std::unique_ptr<dsmt::supervise::WorkerPool> pool;
  if (options.trace) {
    dsmt::supervise::SuperviseConfig config;
    config.workers = 2;
    config.publish_signoff = false;
    config.service.publish_signoff = false;
    pool = std::make_unique<dsmt::supervise::WorkerPool>(config);
    if (pool->live_workers() == 0) {
      std::fprintf(stderr, "dsmt_perf: cannot fork supervise workers\n");
      return 2;
    }
  }
  if (!perf::make_dirs(options.build_dir + "/results") ||
      !perf::make_dirs(options.build_dir + "/trace")) {
    std::fprintf(stderr, "dsmt_perf: cannot create %s/results\n",
                 options.build_dir.c_str());
    return 2;
  }

  const perf::Plan plan = perf::make_plan(options);
  std::vector<Result> results;
  for (const Workload w : workloads) {
    std::fprintf(stderr, "dsmt_perf: %s (%s, seed %llu)\n",
                 perf::workload_name(w), options.trace ? "traced" : "timed",
                 static_cast<unsigned long long>(options.seed));
    results.push_back(perf::run_workload(options, plan, w, pool.get()));
  }
  if (pool != nullptr) pool->shutdown();

  std::string fingerprint;
  Json root = Json::object();
  root.set("benchmark_version", Json::string(kBenchmarkVersion));
  root.set("provenance", provenance(options, fingerprint));
  root.set("fingerprint", Json::string(fingerprint));
  Json by_workload = Json::object();
  bool correct = true;
  unsigned long long attempted = 0;
  unsigned long long failed = 0;
  for (const Result& r : results) {
    by_workload.set(perf::workload_name(r.workload), result_json(r));
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : r.metrics) print_metric(r, m);
    for (const Metric& m : r.notes) print_metric(r, m);
    for (const std::string& p : r.problems)
      std::fprintf(stderr, "dsmt_perf: %s: FAILED: %s\n",
                   perf::workload_name(r.workload), p.c_str());
  }
  root.set("workloads", std::move(by_workload));
  const auto ms_since_epoch =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const std::string path = options.build_dir + "/results/" +
                           std::to_string(options.seed) + "-" +
                           std::to_string(ms_since_epoch) + ".json";
  if (!perf::write_file(path, root.dump(2) + "\n"))
    std::fprintf(stderr, "dsmt_perf: cannot write %s\n", path.c_str());
  else
    std::fprintf(stderr, "dsmt_perf: result written to %s (fingerprint %s)\n",
                 path.c_str(), fingerprint.c_str());

  // The summary line: metric names are bare for one workload and
  // "workload/metric" when several ran. A run that failed before sending
  // anything counts as one failed attempt.
  if (attempted == 0) attempted = failed = 1;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Result& r : results) {
    for (const Metric& m : r.metrics) {
      std::string name = m.name;
      if (results.size() > 1)
        name = std::string(perf::workload_name(r.workload)) + "/" + m.name;
      if (!first) line += ", ";
      line += escape(name) + ": {\"value\": " + number(m.value) +
              ", \"unit\": " + escape(m.unit) + "}";
      first = false;
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
