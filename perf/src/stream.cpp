#include "stream.h"

#include <cmath>
#include <exception>
#include <utility>

#include "cache/entry.h"
#include "report/json.h"
#include "selfconsistent/batch.h"
#include "service/retry.h"
#include "tech/ntrs.h"

namespace perf {

namespace {

using dsmt::service::Request;
using dsmt::service::RequestKind;

// Stream tags beyond the Phase values: the hot set, the cold pre-fill and
// the table sweep each draw from their own index space.
constexpr std::uint64_t kHotTag = 101;
constexpr std::uint64_t kColdTag = 102;
constexpr std::uint64_t kTableTag = 103;
// Offset separating a hot stream's fresh draws from its hot/fresh choice.
constexpr std::uint64_t kFreshTagOffset = 200;

// uds_hot_cached: hot-set size, Zipf exponent, share of hot requests.
constexpr std::size_t kHotPoints = 64;
constexpr double kZipfExponent = 1.1;
constexpr double kHotShare = 0.9;

/// Uniform [0, 1) draw `k` of request `index` in stream `tag`.
double unit(std::uint64_t seed, std::uint64_t tag, std::uint64_t index,
            std::uint64_t k) {
  using dsmt::service::mix64;
  const std::uint64_t h = mix64(mix64(mix64(seed) ^ tag) ^ index);
  return static_cast<double>(mix64(h + k) >> 11) * 0x1.0p-53;
}

struct TableTech {
  std::string name;
  int levels;
};

/// The six built-in NTRS technologies with their metal level counts.
const std::vector<TableTech>& table_techs() {
  static const std::vector<TableTech> techs = [] {
    std::vector<TableTech> out;
    for (const dsmt::tech::Technology& t :
         {dsmt::tech::make_ntrs_250nm_cu(), dsmt::tech::make_ntrs_180nm_cu(),
          dsmt::tech::make_ntrs_130nm_cu(), dsmt::tech::make_ntrs_100nm_cu(),
          dsmt::tech::make_ntrs_250nm_alcu(),
          dsmt::tech::make_ntrs_100nm_alcu()})
      out.push_back({t.name, t.num_levels()});
    return out;
  }();
  return techs;
}

constexpr const char* kGapFills[] = {"oxide", "hsq", "polyimide"};
constexpr double kDirectK[] = {1.15, 0.6, 0.25};

std::size_t pick(double u, std::size_t n) {
  const std::size_t i = static_cast<std::size_t>(u * static_cast<double>(n));
  return i < n ? i : n - 1;
}

/// Log-uniform duty cycle in [1e-3, 1).
double duty(double u) { return std::pow(10.0, -3.0 + 3.0 * u); }

std::string id_for(char prefix, std::uint64_t index) {
  return std::string(1, prefix) + "-" + std::to_string(index);
}

char phase_prefix(Phase phase) {
  switch (phase) {
    case Phase::kWarmup:
      return 'w';
    case Phase::kOpen:
      return 'o';
    case Phase::kClosed:
      return 'c';
    case Phase::kReplayWarmup:
      return 'r';
  }
  return 'x';
}

/// True when the request's full solve is a clean first-try success, i.e.
/// one the solve cache stores.
bool cacheable(const Request& request) {
  try {
    const dsmt::service::LadderProblem ladder =
        dsmt::service::build_problem(request);
    const dsmt::selfconsistent::Solution solution =
        dsmt::selfconsistent::solve_one(ladder.full);
    return dsmt::cache::canonical_solve(solution);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kUdsMixed:
      return "uds_mixed";
    case Workload::kUdsHotCached:
      return "uds_hot_cached";
    case Workload::kIsolateMixed:
      return "isolate_mixed";
    case Workload::kTableBatch:
      return "table_batch";
  }
  return "unknown";
}

bool workload_from_name(const std::string& name, Workload& out) {
  for (const Workload w : kAllWorkloads) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

Generated decode(std::string payload) {
  Generated g;
  g.request =
      dsmt::service::request_from_json(dsmt::report::Json::parse(payload));
  g.payload = std::move(payload);
  return g;
}

Stream::Stream(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  if (workload_ != Workload::kUdsHotCached) return;
  // Hot points must be cacheable, or the pre-filled segment could not hold
  // them and every "hit" would silently be a miss.
  for (std::uint64_t i = 0; hot_.size() < kHotPoints; ++i) {
    Generated g = decode(mixed(kHotTag, i, ""));
    if (cacheable(g.request)) hot_.push_back(std::move(g));
  }
  double total = 0.0;
  for (std::size_t k = 1; k <= kHotPoints; ++k)
    total += std::pow(static_cast<double>(k), -kZipfExponent);
  double running = 0.0;
  for (std::size_t k = 1; k <= kHotPoints; ++k) {
    running += std::pow(static_cast<double>(k), -kZipfExponent) / total;
    zipf_cdf_.push_back(running);
  }
}

std::string Stream::mixed(std::uint64_t tag, std::uint64_t index,
                          const std::string& id) const {
  const auto u = [&](std::uint64_t k) { return unit(seed_, tag, index, k); };
  Request r;
  r.id = id;
  const double kind = u(0);
  r.kind = kind < 0.6   ? RequestKind::kSelfConsistent
           : kind < 0.8 ? RequestKind::kDutyCyclePoint
                        : RequestKind::kTableCell;
  r.duty_cycle = duty(u(6));
  r.j0_MA_cm2 = 0.6 + 1.8 * u(7);
  if (r.kind == RequestKind::kTableCell) {
    const TableTech& t = table_techs()[pick(u(1), table_techs().size())];
    r.technology = t.name;
    r.level = 1 + static_cast<int>(
                      pick(u(2), static_cast<std::size_t>(t.levels)));
    r.dielectric = kGapFills[pick(u(3), 3)];
  } else {
    r.wire.metal = u(1) < 0.5 ? "cu" : "alcu";
    r.wire.width_um = 0.2 + 2.8 * u(2);
    r.wire.thickness_um = 0.3 + 1.2 * u(3);
    r.wire.dielectric_um = 0.5 + 2.5 * u(4);
    r.wire.k_dielectric = kDirectK[pick(u(5), 3)];
  }
  return dsmt::service::request_to_json(r).dump(-1);
}

std::string request_id(Phase phase, std::uint64_t index) {
  return id_for(phase_prefix(phase), index);
}

std::string batch_document(const std::vector<Generated>& cells,
                           std::size_t n) {
  std::string doc = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) doc += ',';
    doc += cells[i].payload;
  }
  return doc + "]";
}

std::string Stream::payload(Phase phase, std::uint64_t index) const {
  const std::uint64_t tag = static_cast<std::uint64_t>(phase);
  const std::string id = request_id(phase, index);
  if (workload_ != Workload::kUdsHotCached) return mixed(tag, index, id);
  if (unit(seed_, tag, index, 0) >= kHotShare)
    return mixed(tag + kFreshTagOffset, index, id);
  const double z = unit(seed_, tag, index, 1);
  std::size_t k = 0;
  while (k + 1 < zipf_cdf_.size() && zipf_cdf_[k] <= z) ++k;
  Request r = hot_[k].request;
  r.id = id;
  return dsmt::service::request_to_json(r).dump(-1);
}

Generated Stream::cold(std::uint64_t index) const {
  return decode(mixed(kColdTag, index, ""));
}

std::vector<Generated> Stream::table_sweep(std::size_t duty_points) const {
  std::vector<Generated> cells;
  const double offset = unit(seed_, kTableTag, 0, 0);
  std::size_t family = 0;
  for (const TableTech& t : table_techs()) {
    for (int level = 1; level <= t.levels; ++level) {
      for (const char* gap : kGapFills) {
        // The paper's two design-rule current densities (Tables 2 and 3),
        // alternating by family.
        const double j0 = family % 2 == 0 ? 0.6 : 1.8;
        ++family;
        for (std::size_t g = 0; g < duty_points; ++g) {
          Request r;
          r.id = id_for('t', cells.size());
          r.kind = RequestKind::kTableCell;
          r.technology = t.name;
          r.level = level;
          r.dielectric = gap;
          r.j0_MA_cm2 = j0;
          r.duty_cycle =
              duty((static_cast<double>(g) + offset) /
                   static_cast<double>(duty_points));
          cells.push_back(decode(dsmt::service::request_to_json(r).dump(-1)));
        }
      }
    }
  }
  return cells;
}

}  // namespace perf
