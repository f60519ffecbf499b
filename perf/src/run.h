// One workload run: set up, measure, verify, and (traced) replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "stream.h"

namespace dsmt::supervise {
class WorkerPool;
}

namespace perf {

struct Options {
  std::string workload;  ///< empty: all four
  std::uint64_t seed = 1;
  double seconds = 5.0;  ///< measured time per workload
  bool trace = false;
  bool smoke = false;
  std::string build_dir = "build-perf";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

/// Phase lengths and sizes of one run, derived from the options.
struct Plan {
  double warmup_s = 0.0;
  double open_s = 0.0;
  double closed_s = 0.0;  ///< 0 in traced runs
  double rate = 0.0;      ///< open-loop requests per second
  int setup_spawns = 0;
  double table_s = 0.0;   ///< table_batch: time the repeats run for
  int table_min_repeats = 0;
  std::size_t table_duty_points = 0;
  std::size_t replay_requests = 0;
};

Plan make_plan(const Options& options);

struct Result {
  Workload workload = Workload::kUdsMixed;
  /// End-to-end metrics (timed run) or per-layer metrics (traced run):
  /// exactly the BENCHMARK.json set, in its order.
  std::vector<Metric> metrics;
  /// Printed and stored with the result but not named in BENCHMARK.json:
  /// error share, p99, generator lag, self times, tracing overhead.
  std::vector<Metric> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed correctness checks

  bool correct() const { return failed == 0 && problems.empty(); }
};

/// Runs one workload. `pool` (traced runs only) is the benchmark-owned
/// supervise::WorkerPool, forked before any thread of this process started.
Result run_workload(const Options& options, const Plan& plan,
                    Workload workload, dsmt::supervise::WorkerPool* pool);

}  // namespace perf
