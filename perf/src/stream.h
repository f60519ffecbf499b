// Seeded request streams of the four benchmark workloads.
//
// Every request is a pure function of (seed, phase, index): the generator
// never holds RNG state, so the load generator, the correctness gate and the
// traced replay can each rebuild request i on their own and agree byte for
// byte. The server receives only the generated payload bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/request.h"

namespace perf {

enum class Workload { kUdsMixed, kUdsHotCached, kIsolateMixed, kTableBatch };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kUdsMixed, Workload::kUdsHotCached, Workload::kIsolateMixed,
    Workload::kTableBatch};

const char* workload_name(Workload workload);
/// False when `name` names no workload.
bool workload_from_name(const std::string& name, Workload& out);

/// Disjoint index spaces, so that lengthening one phase never shifts the
/// requests of another.
enum class Phase : std::uint64_t {
  kWarmup = 1,
  kOpen = 2,
  kClosed = 3,
  kReplayWarmup = 4,
};

/// One generated request: the bytes a client sends, and the request the
/// server decodes from them. The decoded form matters because the wire
/// renders doubles with ten significant digits: expected replies and cache
/// keys must be computed from what the server parses, not from the draw.
struct Generated {
  std::string payload;
  dsmt::service::Request request;
};

/// Decodes a payload exactly as the server's front end does.
Generated decode(std::string payload);

/// The id request `index` of `phase` carries ("o-17"); replies must echo it.
std::string request_id(Phase phase, std::uint64_t index);

/// The batch document (a compact JSON array) of the first `n` cells.
std::string batch_document(const std::vector<Generated>& cells,
                           std::size_t n);

class Stream {
 public:
  /// Builds the stream; for the hot workload this draws the hot set.
  Stream(Workload workload, std::uint64_t seed);

  /// Wire payload of request `index` of `phase` (socket workloads).
  std::string payload(Phase phase, std::uint64_t index) const;
  /// The same request, decoded as the server decodes it.
  Generated at(Phase phase, std::uint64_t index) const {
    return decode(payload(phase, index));
  }

  /// The hot operating points (uds_hot_cached; empty otherwise).
  const std::vector<Generated>& hot_set() const { return hot_; }

  /// Requests pre-filled into the uds_hot_cached segment but never asked:
  /// they enlarge the segment the server recovers and the map it searches.
  Generated cold(std::uint64_t index) const;

  /// The full design-rule table sweep of table_batch, `duty_points` duty
  /// cycles per (technology, level, gap-fill) family.
  std::vector<Generated> table_sweep(std::size_t duty_points) const;

 private:
  std::string mixed(std::uint64_t tag, std::uint64_t index,
                    const std::string& id) const;

  Workload workload_;
  std::uint64_t seed_;
  std::vector<Generated> hot_;
  std::vector<double> zipf_cdf_;
};

}  // namespace perf
