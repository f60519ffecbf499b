#include "service/request.h"

#include <cctype>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "materials/dielectric.h"
#include "materials/metal.h"
#include "report/diagnostics.h"
#include "selfconsistent/sweep.h"
#include "tech/ntrs.h"
#include "thermal/impedance.h"

namespace dsmt::service {

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  core::SolverDiag diag;
  diag.record("service/request", core::StatusCode::kInvalidInput, 0, 0.0,
              what);
  throw SolveError("service/request: " + what, diag);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

using Member = std::optional<report::Json>;

double get_number(const Member& member, double fallback) {
  return member ? member->as_number() : fallback;
}

std::string get_string(const Member& member, std::string fallback) {
  return member ? member->as_string() : fallback;
}

/// Integral member, validated before the narrowing cast: a client-supplied
/// {"level": 1e300} or NaN must classify as bad_request, never reach a
/// double->int conversion whose behavior is undefined out of range.
int get_int(const Member& member, const char* key, int fallback) {
  if (!member) return fallback;
  const double v = member->as_number();
  if (v != std::floor(v) || !(std::abs(v) <= 2147483647.0))
    bad_request(std::string("'") + key +
                "' must be an integral number within int range");
  return static_cast<int>(v);
}

// The members a request and its wire may carry, in the order their checks
// run. Any other member is rejected: a misspelled field must not silently
// answer a different question.
enum RequestField : std::size_t {
  kId, kKind, kDutyCycle, kJ0, kTRef, kWire, kTechnology, kLevel,
  kDielectric
};
constexpr const char* kRequestFields[] = {
    "id",   "kind",       "duty_cycle", "j0_MA_cm2", "t_ref_c",
    "wire", "technology", "level",      "dielectric"};
enum WireField : std::size_t {
  kMetal, kWidth, kThickness, kDielectricThickness, kConductivity
};
constexpr const char* kWireFields[] = {"metal", "width_um", "thickness_um",
                                       "dielectric_um", "k_dielectric"};

/// Position of `name` in `names`, or N when it names no field.
template <std::size_t N>
std::size_t field_index(const char* const (&names)[N],
                        std::string_view name) {
  std::size_t i = 0;
  while (i < N && name != names[i]) ++i;
  return i;
}

/// A member's value as a request keeps it: a container reduced to an empty
/// one of its type, which fails every check a container fails.
report::Json leaf(const report::Json& value) {
  if (value.is_object()) return report::Json::object();
  if (value.is_array()) return report::Json::array();
  return value;
}

/// The value at `in` as a request keeps it (leaf() without the tree).
report::Json read_leaf(report::JsonReader& in) {
  switch (in.peek()) {
    case report::JsonReader::Type::kObject:
      in.skip();
      return report::Json::object();
    case report::JsonReader::Type::kArray:
      in.skip();
      return report::Json::array();
    case report::JsonReader::Type::kScalar:
      break;
  }
  return in.scalar();
}

RequestKind kind_from_name(const std::string& name) {
  const std::string k = lower(name);
  if (k == "self-consistent" || k == "sc") return RequestKind::kSelfConsistent;
  if (k == "duty-cycle-point" || k == "duty")
    return RequestKind::kDutyCyclePoint;
  if (k == "table-cell" || k == "table") return RequestKind::kTableCell;
  bad_request("unknown request kind '" + name + "'");
}

/// Built-in technology lookup for table-cell requests. Matches the node and
/// metallization in the name, case-insensitively: "NTRS-250nm-Cu",
/// "250nm_alcu", "ntrs100cu", ...
tech::Technology technology_by_name(const std::string& name) {
  const std::string n = lower(name);
  const bool alcu = n.find("alcu") != std::string::npos;
  if (n.find("250") != std::string::npos)
    return alcu ? tech::make_ntrs_250nm_alcu() : tech::make_ntrs_250nm_cu();
  if (n.find("180") != std::string::npos && !alcu)
    return tech::make_ntrs_180nm_cu();
  if (n.find("130") != std::string::npos && !alcu)
    return tech::make_ntrs_130nm_cu();
  if (n.find("100") != std::string::npos)
    return alcu ? tech::make_ntrs_100nm_alcu() : tech::make_ntrs_100nm_cu();
  throw std::out_of_range("service/request: unknown technology '" + name +
                          "'");
}

}  // namespace

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kSelfConsistent:
      return "self-consistent";
    case RequestKind::kDutyCyclePoint:
      return "duty-cycle-point";
    case RequestKind::kTableCell:
      return "table-cell";
  }
  return "unknown";
}

RequestDocument RequestDocument::parse(std::string_view bytes) {
  report::JsonReader in(bytes);
  RequestDocument doc = from_reader(in);
  in.finish();
  return doc;
}

RequestDocument RequestDocument::from_reader(report::JsonReader& in) {
  RequestDocument doc;
  if (in.peek() != report::JsonReader::Type::kObject) {
    in.skip();
    return doc;
  }
  doc.object_ = true;
  in.begin_object();
  while (in.next_member()) {
    const std::size_t field = field_index(kRequestFields, in.key());
    if (field == std::size(kRequestFields)) {
      if (!doc.request_.unknown) doc.request_.unknown.emplace(in.key());
      in.skip();
    } else if (field == kWire &&
               in.peek() == report::JsonReader::Type::kObject) {
      doc.request_.field[kWire] = report::Json::object();
      in.begin_object();
      while (in.next_member()) {
        const std::size_t w = field_index(kWireFields, in.key());
        if (w == std::size(kWireFields)) {
          if (!doc.wire_.unknown) doc.wire_.unknown.emplace(in.key());
          in.skip();
        } else {
          doc.wire_.field[w] = read_leaf(in);
        }
      }
    } else {
      doc.request_.field[field] = read_leaf(in);
    }
  }
  return doc;
}

RequestDocument RequestDocument::from_tree(const report::Json& node) {
  RequestDocument doc;
  if (!node.is_object()) return doc;
  doc.object_ = true;
  for (std::size_t i = 0; i < node.size(); ++i) {
    const auto& [key, value] = node.member(i);
    const std::size_t field = field_index(kRequestFields, key);
    if (field == std::size(kRequestFields)) {
      if (!doc.request_.unknown) doc.request_.unknown = key;
      continue;
    }
    doc.request_.field[field] = leaf(value);
    if (field != kWire || !value.is_object()) continue;
    for (std::size_t j = 0; j < value.size(); ++j) {
      const auto& [wire_key, wire_value] = value.member(j);
      const std::size_t w = field_index(kWireFields, wire_key);
      if (w == std::size(kWireFields)) {
        if (!doc.wire_.unknown) doc.wire_.unknown = wire_key;
      } else {
        doc.wire_.field[w] = leaf(wire_value);
      }
    }
  }
  return doc;
}

bool RequestDocument::is_ping() const {
  const Member& kind = request_.field[kKind];
  return object_ && kind && kind->is_string() && kind->as_string() == "ping";
}

std::string RequestDocument::id() const {
  const Member& id = request_.field[kId];
  return id && id->is_string() ? id->as_string() : std::string{};
}

Request RequestDocument::decode() const {
  static_assert(std::tuple_size_v<decltype(request_.field)> ==
                    std::size(kRequestFields) &&
                std::tuple_size_v<decltype(wire_.field)> ==
                    std::size(kWireFields));
  if (!object_) bad_request("request is not a JSON object");
  if (request_.unknown)
    bad_request("unknown request field '" + *request_.unknown + "'");
  const auto& f = request_.field;
  Request r;
  r.id = get_string(f[kId], "");
  r.kind = kind_from_name(get_string(f[kKind], "self-consistent"));
  r.duty_cycle = get_number(f[kDutyCycle], r.duty_cycle);
  r.j0_MA_cm2 = get_number(f[kJ0], r.j0_MA_cm2);
  r.t_ref_c = get_number(f[kTRef], r.t_ref_c);
  if (f[kWire]) {
    if (!f[kWire]->is_object()) bad_request("'wire' is not a JSON object");
    if (wire_.unknown)
      bad_request("unknown wire field '" + *wire_.unknown + "'");
    const auto& w = wire_.field;
    r.wire.metal = get_string(w[kMetal], r.wire.metal);
    r.wire.width_um = get_number(w[kWidth], r.wire.width_um);
    r.wire.thickness_um = get_number(w[kThickness], r.wire.thickness_um);
    r.wire.dielectric_um =
        get_number(w[kDielectricThickness], r.wire.dielectric_um);
    r.wire.k_dielectric = get_number(w[kConductivity], r.wire.k_dielectric);
  }
  r.technology = get_string(f[kTechnology], r.technology);
  r.level = get_int(f[kLevel], "level", r.level);
  r.dielectric = get_string(f[kDielectric], r.dielectric);
  if (r.kind == RequestKind::kTableCell && r.technology.empty())
    bad_request("table-cell request without 'technology'");
  return r;
}

Request request_from_json(const report::Json& node) {
  return RequestDocument::from_tree(node).decode();
}

report::Json request_to_json(const Request& r) {
  using report::Json;
  Json node = Json::object();
  node.set("id", Json::string(r.id))
      .set("kind", Json::string(kind_name(r.kind)))
      .set("duty_cycle", Json::number(r.duty_cycle))
      .set("j0_MA_cm2", Json::number(r.j0_MA_cm2))
      .set("t_ref_c", Json::number(r.t_ref_c));
  if (r.kind == RequestKind::kTableCell) {
    node.set("technology", Json::string(r.technology))
        .set("level", Json::integer(r.level))
        .set("dielectric", Json::string(r.dielectric));
  } else {
    Json wire = Json::object();
    wire.set("metal", Json::string(r.wire.metal))
        .set("width_um", Json::number(r.wire.width_um))
        .set("thickness_um", Json::number(r.wire.thickness_um))
        .set("dielectric_um", Json::number(r.wire.dielectric_um))
        .set("k_dielectric", Json::number(r.wire.k_dielectric));
    node.set("wire", std::move(wire));
  }
  return node;
}

report::Json response_to_json(const Response& resp) {
  using report::Json;
  Json node = Json::object();
  node.set("id", Json::string(resp.id))
      .set("kind", Json::string(kind_name(resp.kind)))
      .set("status", Json::string(core::status_name(resp.status)))
      .set("degraded", Json::boolean(resp.degraded))
      .set("degradation_level",
           Json::integer(static_cast<long long>(resp.degradation_level)))
      .set("conservative", Json::boolean(resp.conservative))
      .set("attempts", Json::integer(resp.attempts))
      // Always empty (requests are never retried); kept so replies keep
      // their shape for existing clients.
      .set("backoff_ns", Json::array());
  if (resp.ok()) {
    Json sol = Json::object();
    sol.set("t_metal_c", Json::number(resp.t_metal_c))
        .set("delta_t_c", Json::number(resp.delta_t_c))
        .set("j_peak_MA_cm2", Json::number(resp.j_peak_MA_cm2))
        .set("j_rms_MA_cm2", Json::number(resp.j_rms_MA_cm2))
        .set("j_avg_MA_cm2", Json::number(resp.j_avg_MA_cm2));
    if (resp.kind == RequestKind::kDutyCyclePoint)
      sol.set("jpeak_em_only_MA_cm2",
              Json::number(resp.jpeak_em_only_MA_cm2));
    node.set("solution", std::move(sol));
  } else {
    node.set("error", Json::string(resp.error));
  }
  node.set("diag", report::diag_to_json(resp.diag));
  return node;
}

void write_response(std::string& out, const Response& resp, int indent,
                    int depth) {
  const std::size_t mark = out.size();
  try {
    report::JsonWriter w(out, indent, depth);
    w.begin_object()
        .key("id").string(resp.id)
        .key("kind").string(kind_name(resp.kind))
        .key("status").string(core::status_name(resp.status))
        .key("degraded").boolean(resp.degraded)
        .key("degradation_level")
        .integer(static_cast<long long>(resp.degradation_level))
        .key("conservative").boolean(resp.conservative)
        .key("attempts").integer(resp.attempts)
        .key("backoff_ns").begin_array().end_array();
    if (resp.ok()) {
      w.key("solution").begin_object()
          .key("t_metal_c").number(resp.t_metal_c)
          .key("delta_t_c").number(resp.delta_t_c)
          .key("j_peak_MA_cm2").number(resp.j_peak_MA_cm2)
          .key("j_rms_MA_cm2").number(resp.j_rms_MA_cm2)
          .key("j_avg_MA_cm2").number(resp.j_avg_MA_cm2);
      if (resp.kind == RequestKind::kDutyCyclePoint)
        w.key("jpeak_em_only_MA_cm2").number(resp.jpeak_em_only_MA_cm2);
      w.end_object();
    } else {
      w.key("error").string(resp.error);
    }
    w.key("diag");
    report::write_diag(w, resp.diag);
    w.end_object();
  } catch (...) {
    out.resize(mark);
    throw;
  }
}

Response failure_response(const Request& request, core::StatusCode status,
                          const std::string& where, std::string error,
                          std::string note) {
  Response resp = failure_response(request.id, status, where,
                                   std::move(error), std::move(note));
  resp.kind = request.kind;
  return resp;
}

Response failure_response(std::string id, core::StatusCode status,
                          const std::string& where, std::string error,
                          std::string note) {
  Response resp;
  resp.id = std::move(id);
  resp.status = status;
  if (!where.empty())
    resp.diag.record(where, status, 0, 0.0,
                     note.empty() ? error : std::move(note));
  resp.error = std::move(error);
  return resp;
}

Response failure_response(const Request& request, const SolveError& error) {
  Response resp = failure_response(request, error.status(), "", error.what());
  resp.diag = error.diag();
  return resp;
}

std::vector<Request> parse_batch(const std::string& text) {
  using Type = report::JsonReader::Type;
  report::JsonReader in(text);
  std::vector<Request> requests;
  std::optional<SolveError> first_error;
  bool listed = false;
  // Decodes the array at `in`. After the first element that fails its
  // checks, the rest are only read: a JSON error still wins over it.
  const auto read_list = [&] {
    listed = true;
    in.begin_array();
    while (in.next_item()) {
      if (first_error) {
        in.skip();
        continue;
      }
      const RequestDocument doc = RequestDocument::from_reader(in);
      try {
        requests.push_back(doc.decode());
      } catch (const SolveError& e) {
        first_error = e;
      }
    }
  };
  const Type top = in.peek();
  if (top == Type::kArray) {
    read_list();
  } else if (top == Type::kObject) {
    in.begin_object();
    while (in.next_member()) {
      if (in.key() == "requests" && in.peek() == Type::kArray)
        read_list();
      else
        in.skip();
    }
  } else {
    in.skip();
  }
  in.finish();
  if (top == Type::kScalar)
    bad_request("batch document is neither an array nor an object");
  if (!listed) bad_request("batch object lacks a 'requests' array");
  if (first_error) throw *first_error;
  return requests;
}

LadderProblem build_problem(const Request& r) {
  // Shape errors are classified here as kInvalidInput, before any kernel is
  // touched: client garbage is reported as the client's fault, never as a
  // kernel failure.
  if (!std::isfinite(r.duty_cycle) || r.duty_cycle <= 0.0 ||
      r.duty_cycle > 1.0)
    bad_request("duty_cycle must be in (0, 1]");
  if (!std::isfinite(r.j0_MA_cm2) || r.j0_MA_cm2 <= 0.0)
    bad_request("j0_MA_cm2 must be positive and finite");
  if (!std::isfinite(r.t_ref_c) || r.t_ref_c + kCelsiusOffset <= 0.0)
    bad_request("t_ref_c must be finite and above absolute zero");
  if (r.kind == RequestKind::kTableCell && r.level < 1)
    bad_request("table-cell level must be >= 1");

  LadderProblem lp;
  const units::CurrentDensity j0 = MA_per_cm2(r.j0_MA_cm2);
  const units::Kelvin t_ref = celsius_to_kelvin(r.t_ref_c);
  // The reply's EM-only line is j0 / r (selfconsistent::jpeak_em_only); a
  // duty cycle small enough to overflow it has no finite answer to send.
  if (r.kind == RequestKind::kDutyCyclePoint &&
      !std::isfinite((j0 / r.duty_cycle).value()))
    bad_request("duty_cycle is too small: the EM-only peak "
                "j0_MA_cm2 / duty_cycle overflows");

  if (r.kind == RequestKind::kTableCell) {
    const tech::Technology technology = technology_by_name(r.technology);
    const materials::Dielectric gap_fill =
        materials::dielectric_by_name(r.dielectric);
    lp.full = selfconsistent::make_level_problem(
        technology, r.level, gap_fill, thermal::kPhiQuasi2D, r.duty_cycle,
        j0);
    lp.quasi1d = selfconsistent::make_level_problem(
        technology, r.level, gap_fill, thermal::kPhiQuasi1D, r.duty_cycle,
        j0);
    lp.full.t_ref = t_ref;
    lp.quasi1d.t_ref = t_ref;
    return lp;
  }

  if (!std::isfinite(r.wire.width_um) || r.wire.width_um <= 0.0 ||
      !std::isfinite(r.wire.thickness_um) || r.wire.thickness_um <= 0.0 ||
      !std::isfinite(r.wire.dielectric_um) || r.wire.dielectric_um <= 0.0 ||
      !std::isfinite(r.wire.k_dielectric) || r.wire.k_dielectric <= 0.0)
    bad_request("wire geometry must be finite and positive");

  const materials::Metal metal = materials::metal_by_name(r.wire.metal);
  const units::Metres w_m = um(r.wire.width_um);
  const units::Metres t_m = um(r.wire.thickness_um);
  const units::Metres b = um(r.wire.dielectric_um);
  const units::ThermalConductivity k_d{r.wire.k_dielectric};

  const auto make = [&](double phi) {
    const units::Metres w_eff = thermal::effective_width(w_m, b, phi);
    const units::ThermalResistancePerLength rth =
        thermal::rth_per_length_uniform(b, k_d, w_eff);
    selfconsistent::Problem p;
    p.metal = metal;
    p.duty_cycle = r.duty_cycle;
    p.j0 = j0;
    p.t_ref = t_ref;
    p.heating_coefficient =
        selfconsistent::heating_coefficient(w_m, t_m, rth);
    return p;
  };
  lp.full = make(thermal::kPhiQuasi2D);
  lp.quasi1d = make(thermal::kPhiQuasi1D);
  return lp;
}

}  // namespace dsmt::service
