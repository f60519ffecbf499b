// Request/response schema of the batch request service.
//
// A request names one design-rule query against the Eq. 13 self-consistent
// solver: a direct-geometry solve (kSelfConsistent), the same solve plus the
// EM-only reference line of Fig. 2 (kDutyCyclePoint), or a design-rule table
// cell addressed by technology/level/gap-fill (kTableCell). Requests and
// responses cross the process boundary as JSON (report/json.h); the codec
// here is strict — unknown kinds, unknown or malformed fields, and
// non-finite numbers raise dsmt::SolveError (kInvalidInput) instead of
// guessing. Served requests are decoded from their bytes by
// RequestDocument, which reads them with report::JsonReader and builds no
// tree; request_from_json runs the same checks on a tree.
//
// Every response is terminal and structured: success (possibly degraded,
// with `degradation_level` and a conservative-direction guarantee on j_rms),
// kRejectedOverload from admission control, or a classified failure. The
// full SolverDiag chain (the solve attempt and the degradation rung) rides
// along for diagnostics. Every failure reply, whichever layer answers it
// (service, socket front end, supervise pool or worker), is built by
// failure_response(), so a reply to a decoded request echoes its id and
// kind on every path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "report/json.h"
#include "selfconsistent/solver.h"

namespace dsmt::service {

enum class RequestKind { kSelfConsistent = 0, kDutyCyclePoint, kTableCell };

/// Short stable name ("self-consistent", "duty-cycle-point", "table-cell").
const char* kind_name(RequestKind kind);

/// Direct wire geometry for kSelfConsistent / kDutyCyclePoint requests: an
/// isolated line over a uniform dielectric (paper Eq. 10/15 with a single
/// slab).
struct WireSpec {
  std::string metal = "cu";     ///< metal_by_name key ("cu", "alcu", ...)
  double width_um = 1.0;        ///< line width W_m [um]
  double thickness_um = 1.0;    ///< metal thickness t_m [um]
  double dielectric_um = 1.0;   ///< underlying dielectric thickness b [um]
  double k_dielectric = 1.15;   ///< dielectric conductivity [W/(m*K)]
};

struct Request {
  std::string id;  ///< caller correlation id, echoed in the response
  RequestKind kind = RequestKind::kSelfConsistent;
  double duty_cycle = 0.1;  ///< r [1]
  double j0_MA_cm2 = 0.6;   ///< design-rule j_avg at t_ref [MA/cm^2]
  double t_ref_c = 100.0;   ///< reference junction temperature [degC]
  WireSpec wire;            ///< direct-geometry kinds
  std::string technology;   ///< kTableCell: technology name ("NTRS-250nm-Cu")
  int level = 1;            ///< kTableCell: 1-based metal level
  std::string dielectric = "oxide";  ///< kTableCell: gap-fill name
};

/// Degradation ladder rungs, most faithful first. The response field
/// `degradation_level` carries the integer value.
///   0 full       quasi-2D self-consistent solve (phi = 2.45)
///   2 analytic   iteration-free quasi-1D bound (phi = 0.88)
/// Value 1 belonged to a deleted rung (a cache of earlier full solves) and
/// is never sent; the analytic rung keeps 2 so existing clients read it
/// unchanged.
enum class DegradationLevel {
  kFull = 0,
  kAnalyticBound = 2,
};

struct Response {
  std::string id;
  RequestKind kind = RequestKind::kSelfConsistent;
  core::StatusCode status = core::StatusCode::kOk;
  bool degraded = false;
  DegradationLevel degradation_level = DegradationLevel::kFull;
  /// True when the payload carries the degraded-rung guarantee: j_rms (and
  /// j_peak/j_avg derived from it) never exceed the full solve's values and
  /// the operating point is feasible (docs/THEORY.md §15).
  bool conservative = false;

  // Solution payload, valid when status == kOk.
  double t_metal_c = 0.0;        ///< metal temperature [degC]
  double delta_t_c = 0.0;        ///< T_m - T_ref [degC]
  double j_peak_MA_cm2 = 0.0;    ///< allowed peak density [MA/cm^2]
  double j_rms_MA_cm2 = 0.0;     ///< allowed RMS density [MA/cm^2]
  double j_avg_MA_cm2 = 0.0;     ///< allowed average density [MA/cm^2]
  double jpeak_em_only_MA_cm2 = 0.0;  ///< kDutyCyclePoint: j0 / r [MA/cm^2]

  /// 1 when the request reached its full solve (a cache hit replays the
  /// cold reply's 1), 0 when it was answered before it (shed, invalid).
  int attempts = 0;
  core::SolverDiag diag;  ///< solve attempt, degradation
  std::string error;      ///< summary when status != kOk

  bool ok() const { return status == core::StatusCode::kOk; }
};

/// One request document as the JSON grammar read it, before the request
/// checks: what is needed to answer a ping, to echo an id, and to decode
/// the request. Only the members a request can carry are kept, as leaves
/// (a container keeps its type alone, the "wire" object its own members),
/// so reading builds no tree.
class RequestDocument {
 public:
  /// Reads one whole payload; anything after the document is an error.
  /// Throws dsmt::SolveError (kInvalidInput) with report::Json::parse's
  /// text on malformed JSON.
  static RequestDocument parse(std::string_view bytes);
  /// Reads the value at `in`'s position (one element of a batch).
  static RequestDocument from_reader(report::JsonReader& in);

  /// A top-level object whose "kind" is exactly the string "ping",
  /// whatever its other members.
  bool is_ping() const;
  /// The best-effort id an error reply echoes: the top-level "id" when it
  /// is a string, else "".
  std::string id() const;
  /// The request, or the first failing check as dsmt::SolveError
  /// (kInvalidInput) naming the field; absent optional fields keep their
  /// defaults.
  Request decode() const;

 private:
  /// The members of one object: each known field present, in the order
  /// of its name list, and the first member no name matches.
  template <std::size_t N>
  struct Members {
    std::array<std::optional<report::Json>, N> field;
    std::optional<std::string> unknown;
  };

  friend Request request_from_json(const report::Json& node);
  static RequestDocument from_tree(const report::Json& node);

  // R10-ok: a value type; each thread decodes its own documents
  bool object_ = false;  ///< the document is a JSON object
  Members<9> request_;
  Members<5> wire_;  ///< when the request's "wire" is an object
};

/// Decodes one request object: RequestDocument::decode() of the tree.
Request request_from_json(const report::Json& node);

report::Json request_to_json(const Request& request);

/// The reply as a tree. Nothing outside src/service/ calls it (lint R15):
/// it is the oracle write_response is tested against.
report::Json response_to_json(const Response& response);

/// Appends the reply's bytes to `out`: exactly
/// response_to_json(response).dump(indent) re-indented as if nested
/// `depth` levels deep, built without a tree. The one writer of reply
/// bytes (net::response_frame and the batch document call it). For a
/// non-finite payload number it throws what response_to_json throws and
/// leaves `out` as it was.
void write_response(std::string& out, const Response& response, int indent,
                    int depth = 0);

/// The one constructor of failure replies. Echoes the request's id and
/// kind, sets `status` and `error`, and records one diag event at `where`
/// whose note is `note`, or `error` when `note` is empty. An empty `where`
/// records no event (the supervise pool's lease failures carry none).
Response failure_response(const Request& request, core::StatusCode status,
                          const std::string& where, std::string error,
                          std::string note = {});

/// The same reply to bytes that never decoded into a request: only the
/// best-effort `id` is echoed, and the kind keeps its default.
Response failure_response(std::string id, core::StatusCode status,
                          const std::string& where, std::string error,
                          std::string note = {});

/// The failure reply to `request` for `error`: its status, its what() and
/// its diag chain.
Response failure_response(const Request& request, const SolveError& error);

/// Decodes a batch document, a bare array of request objects or an object
/// carrying a "requests" array, straight from its bytes. The whole document
/// is read before anything is thrown: a JSON error anywhere wins, then the
/// document's shape, then the first element in index order that fails its
/// checks. Throws dsmt::SolveError (kInvalidInput).
std::vector<Request> parse_batch(const std::string& text);

/// The ladder's working set for one request: the quasi-2D problem the full
/// rung solves and the quasi-1D problem the analytic rung bounds.
struct LadderProblem {
  selfconsistent::Problem full;
  selfconsistent::Problem quasi1d;
};

/// Builds the ladder problems for a request. Throws std::invalid_argument,
/// std::out_of_range (unknown metal/technology/dielectric names), or
/// dsmt::SolveError (kInvalidInput) on malformed specs.
LadderProblem build_problem(const Request& request);

}  // namespace dsmt::service
