// Traced in-process replay: where a request's time goes, layer by layer.
//
// The replay feeds the first requests of a workload's stream, one at a time,
// through the same public calls the server makes, in the same configuration
// (no cache, a copy of the pre-filled cache segment, or a benchmark-owned
// supervise::WorkerPool), and records one span around each call:
//
//   request                     root, one per request
//     FrameDecoder::next        net: payload out of the DSM1 frame
//     Json::parse               report
//     request_from_json         service
//     pool_handoff              parallel: pool_submit until the task starts
//     Server::handle            service (solve cache inside, when configured)
//       | WorkerPool::execute   supervise (--isolate): IPC to a worker
//     response_to_json          service
//     Json::dump                report
//     encode_frame              net
//   probe                       root: calls timed beside the path, splitting
//                               handle (build_problem, solve_one), the cache
//                               (canonical_key, SolveCache::lookup/publish)
//                               and the hop (canonical_request_hash, ...)
//
// table_batch has one `batch` root per document instead: Json::parse,
// request_from_json (all elements), submit_batch, response_to_json (all
// elements), Json::dump — dsmt_serve --batch minus its process and pipes.
//
// Spans are kept in memory and written as a Chrome trace-event file at the
// end. The replay runs with identical work with spans off and on (twice
// each); the wall-time difference is the tracing overhead.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "metrics.h"
#include "stream.h"

namespace dsmt::supervise {
class WorkerPool;
}

namespace perf {

struct ReplayInputs {
  Workload workload = Workload::kUdsMixed;
  const Stream* stream = nullptr;
  /// Socket workloads: how many open-loop requests to replay.
  std::size_t requests = 20000;
  /// table_batch: the whole sweep (the on-path replay is the document).
  const std::vector<Generated>* table = nullptr;
  /// uds_hot_cached: the pre-filled segment file each pass starts from.
  std::string seed_segment;
  /// Scratch directory for cache copies.
  std::string work_dir;
  /// Built before any thread of this process started (fork safety).
  dsmt::supervise::WorkerPool* pool = nullptr;
  /// The timed run's p50 [ms] of one request (socket) or of one whole
  /// document (table_batch): net.unaccounted_us is what the replayed stages
  /// leave of it.
  double timed_p50_ms = 0.0;
  std::string trace_path;
};

struct ReplayOutput {
  std::vector<Metric> per_layer;  ///< the BENCHMARK.json per_layer set
  std::vector<Metric> self_us;    ///< p50 self time per span name
  double overhead_share = 0.0;  ///< (spans on - off) / off wall time
  double wall_off_s = 0.0;      ///< faster spans-off pass
  double wall_on_s = 0.0;       ///< faster spans-on pass
  std::string error;  ///< non-empty when the replay itself failed
};

ReplayOutput run_replay(const ReplayInputs& in);

}  // namespace perf
