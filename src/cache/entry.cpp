#include "cache/entry.h"

#include <bit>
#include <cstddef>
#include <utility>

#include "core/status.h"

namespace dsmt::cache {

namespace {

/// The two kernels a canonical clean solve leaves in its diag — must match
/// what selfconsistent::solve records for a first-try root find exactly.
constexpr const char* kSolveKernel = "eq13/solve";
constexpr const char* kRootKernel = "numeric/brent";

// Big-endian fixed-width codec, the supervise protocol's convention.
void put_u32_be(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>((v >> 24) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>(v & 0xff));
}

void put_u64_be(std::string& out, std::uint64_t v) {
  put_u32_be(out, static_cast<std::uint32_t>(v >> 32));
  put_u32_be(out, static_cast<std::uint32_t>(v & 0xffffffffull));
}

void put_double_be(std::string& out, double v) {
  put_u64_be(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t get_u32_be(const unsigned char* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t get_u64_be(const unsigned char* p) {
  return (static_cast<std::uint64_t>(get_u32_be(p)) << 32) |
         static_cast<std::uint64_t>(get_u32_be(p + 4));
}

double get_double_be(const unsigned char* p) {
  return std::bit_cast<double>(get_u64_be(p));
}

/// Length-prefixed, so no string can run into the field after it.
void put_string(std::string& out, const std::string& s) {
  put_u32_be(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Keys are a few dozen bytes plus the request's strings. Anything larger
/// in a decoded header is corruption, not data.
constexpr std::uint32_t kMaxKeyBytes = 1u << 20;

/// Bounds-checked cursor over canonical_key's layout: a read that would
/// run past the end fails instead of touching bytes that are not there.
struct KeyReader {
  std::string_view rest;

  bool take(std::size_t n, const unsigned char*& out) {
    if (n > rest.size()) return false;
    out = reinterpret_cast<const unsigned char*>(rest.data());
    rest.remove_prefix(n);
    return true;
  }
  bool u32(std::uint32_t& v) {
    const unsigned char* p = nullptr;
    if (!take(4, p)) return false;
    v = get_u32_be(p);
    return true;
  }
  bool f64(double& v) {
    const unsigned char* p = nullptr;
    if (!take(8, p)) return false;
    v = get_double_be(p);
    return true;
  }
  bool string(std::string& s) {
    std::uint32_t n = 0;
    const unsigned char* p = nullptr;
    if (!u32(n) || !take(n, p)) return false;
    s.assign(reinterpret_cast<const char*>(p), n);
    return true;
  }
};

}  // namespace

std::string canonical_key(const service::Request& request) {
  // The fields request_to_json writes for the request's kind, minus the
  // id, each double as its exact bit pattern.
  std::string key;
  put_string(key, service::kind_name(request.kind));
  put_double_be(key, request.duty_cycle);
  put_double_be(key, request.j0_MA_cm2);
  put_double_be(key, request.t_ref_c);
  if (request.kind == service::RequestKind::kTableCell) {
    put_string(key, request.technology);
    put_u32_be(key, static_cast<std::uint32_t>(request.level));
    put_string(key, request.dielectric);
  } else {
    put_string(key, request.wire.metal);
    put_double_be(key, request.wire.width_um);
    put_double_be(key, request.wire.thickness_um);
    put_double_be(key, request.wire.dielectric_um);
    put_double_be(key, request.wire.k_dielectric);
  }
  return key;
}

bool decode_canonical_key(std::string_view key, service::Request& request) {
  using service::RequestKind;
  KeyReader in{key};
  std::string kind;
  if (!in.string(kind)) return false;
  service::Request r;  // kind kSelfConsistent unless the name says otherwise
  if (kind == service::kind_name(RequestKind::kDutyCyclePoint))
    r.kind = RequestKind::kDutyCyclePoint;
  else if (kind == service::kind_name(RequestKind::kTableCell))
    r.kind = RequestKind::kTableCell;
  else if (kind != service::kind_name(RequestKind::kSelfConsistent))
    return false;
  bool ok = in.f64(r.duty_cycle) && in.f64(r.j0_MA_cm2) && in.f64(r.t_ref_c);
  if (r.kind == RequestKind::kTableCell) {
    std::uint32_t level = 0;
    ok = ok && in.string(r.technology) && in.u32(level) &&
         in.string(r.dielectric);
    // Modular, the inverse of canonical_key's cast: every int round-trips.
    r.level = static_cast<int>(level);
  } else {
    ok = ok && in.string(r.wire.metal) && in.f64(r.wire.width_um) &&
         in.f64(r.wire.thickness_um) && in.f64(r.wire.dielectric_um) &&
         in.f64(r.wire.k_dielectric);
  }
  if (!ok || !in.rest.empty()) return false;
  request = std::move(r);
  return true;
}

bool canonical_solve(const selfconsistent::Solution& solution) {
  const core::SolverDiag& d = solution.diag;
  if (!d.ok()) return false;
  if (d.recovered || d.kernel != kSolveKernel) return false;
  if (d.chain.size() != 1) return false;
  const core::DiagEvent& ev = d.chain[0];
  return ev.kernel == kRootKernel && ev.status == core::StatusCode::kOk &&
         ev.note.empty() && ev.iterations == d.iterations &&
         ev.residual == d.residual && d.iterations == solution.iterations;
}

CachedSolve from_solution(const selfconsistent::Solution& solution) {
  CachedSolve value;
  value.t_metal_k = solution.t_metal.value();
  value.delta_t_k = solution.delta_t.value();
  value.j_peak_A_m2 = solution.j_peak.value();
  value.j_rms_A_m2 = solution.j_rms.value();
  value.j_avg_A_m2 = solution.j_avg.value();
  value.residual = solution.diag.residual;
  value.iterations = solution.iterations;
  return value;
}

selfconsistent::Solution to_solution(const CachedSolve& value) {
  selfconsistent::Solution s;
  s.t_metal = units::Kelvin{value.t_metal_k};
  s.delta_t = units::CelsiusDelta{value.delta_t_k};
  s.j_peak = units::CurrentDensity{value.j_peak_A_m2};
  s.j_rms = units::CurrentDensity{value.j_rms_A_m2};
  s.j_avg = units::CurrentDensity{value.j_avg_A_m2};
  s.converged = true;
  s.iterations = value.iterations;
  // The canonical chain, exactly what selfconsistent::solve returns on a
  // first-try success.
  s.diag.kernel = kSolveKernel;
  s.diag.status = core::StatusCode::kOk;
  s.diag.iterations = value.iterations;
  s.diag.residual = value.residual;
  s.diag.chain.push_back(core::DiagEvent{});
  core::DiagEvent& ev = s.diag.chain.back();
  ev.kernel = kRootKernel;
  ev.iterations = value.iterations;
  ev.residual = value.residual;
  return s;
}

std::string encode_payload(const std::string& key, const CachedSolve& value) {
  std::string out;
  out.reserve(4 + key.size() + 6 * 8 + 4);
  put_u32_be(out, static_cast<std::uint32_t>(key.size()));
  out.append(key);
  put_double_be(out, value.t_metal_k);
  put_double_be(out, value.delta_t_k);
  put_double_be(out, value.j_peak_A_m2);
  put_double_be(out, value.j_rms_A_m2);
  put_double_be(out, value.j_avg_A_m2);
  put_double_be(out, value.residual);
  put_u32_be(out, static_cast<std::uint32_t>(value.iterations));
  return out;
}

bool decode_payload(const std::string& payload, std::string& key,
                    CachedSolve& value) {
  constexpr std::size_t kFixedTail = 6 * 8 + 4;
  if (payload.size() < 4 + kFixedTail) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(payload.data());
  const std::uint32_t key_len = get_u32_be(p);
  if (key_len > kMaxKeyBytes) return false;
  if (payload.size() != 4 + static_cast<std::size_t>(key_len) + kFixedTail)
    return false;
  key.assign(payload, 4, key_len);
  const unsigned char* q = p + 4 + key_len;
  value.t_metal_k = get_double_be(q);
  value.delta_t_k = get_double_be(q + 8);
  value.j_peak_A_m2 = get_double_be(q + 16);
  value.j_rms_A_m2 = get_double_be(q + 24);
  value.j_avg_A_m2 = get_double_be(q + 32);
  value.residual = get_double_be(q + 40);
  value.iterations = static_cast<int>(get_u32_be(q + 48));
  return true;
}

}  // namespace dsmt::cache
