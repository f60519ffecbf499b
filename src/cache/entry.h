// One cached Eq.-13 solve: canonical key, numeric payload, byte codec.
//
// The cache stores the raw solver outputs (SI doubles, bit-exact), not
// formatted reply bytes: replies echo the request id and every unit
// conversion the reply layer applies is reproduced on the hit path, so one
// cached solve serves any id while keeping replies byte-identical to a cold
// solve. Only CANONICAL solves are cacheable — a clean first-try success
// whose diag chain is the single "numeric/brent" event
// selfconsistent::solve records. Recovered or degraded solves carry history a
// fixed-width payload cannot round-trip, and caching them would make a
// cached reply differ from a clean cold one; they simply stay uncached.
//
// The wire payload is fixed-layout big-endian (the supervise protocol's
// convention): key length + key bytes + six IEEE-754 bit patterns + the
// iteration count. Doubles travel as u64 bit patterns, never through text,
// so a decode(encode(x)) round trip is the identity on every lane. The key
// writes the request's doubles the same way, so two requests share a key
// only when every input bit agrees.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "selfconsistent/solver.h"
#include "service/request.h"

namespace dsmt::cache {

/// The numeric outcome of one canonical solve, SI units throughout.
struct CachedSolve {
  double t_metal_k = 0.0;
  double delta_t_k = 0.0;
  double j_peak_A_m2 = 0.0;
  double j_rms_A_m2 = 0.0;
  double j_avg_A_m2 = 0.0;
  double residual = 0.0;  ///< final root-find residual (diag chain's)
  int iterations = 0;
};

/// Content-address of a request, as binary bytes: the kind name, then the
/// fields request_to_json writes for that kind in its order, without the
/// client-chosen id. Doubles are big-endian IEEE-754 bit patterns,
/// strings are u32 length + bytes, the table level a u32. Distinct
/// clients asking the same physics share one entry; requests that differ
/// in any bit of any input do not. The supervise quarantine hash keys the
/// same bytes: a poison payload stays one quarantine entry whatever id it
/// is re-sent under. It is also the request's only encoding on the
/// supervise IPC channel, so a worker answers every input bit.
std::string canonical_key(const service::Request& request);

/// Strict inverse of canonical_key: rebuilds the request `key` was made
/// from, with an empty id and defaults in the fields the kind does not
/// key. Returns false, leaving `request` untouched, on an unknown kind
/// name, short input, a string length that runs past the end, or trailing
/// bytes. For every key k canonical_key produces,
/// canonical_key(decoded) == k.
bool decode_canonical_key(std::string_view key, service::Request& request);

/// True iff `solution` is a canonical clean solve: converged, kOk, and its
/// diag is exactly the single-event "numeric/brent" chain.
bool canonical_solve(const selfconsistent::Solution& solution);

/// Captures a canonical solve's numbers. Precondition: canonical_solve().
CachedSolve from_solution(const selfconsistent::Solution& solution);

/// Rebuilds the Solution a clean scalar solve would have returned,
/// including the canonical diag — field-for-field what
/// selfconsistent::solve leaves behind on a first-try success.
selfconsistent::Solution to_solution(const CachedSolve& value);

/// Serializes (key, value) into the segment payload layout.
std::string encode_payload(const std::string& key, const CachedSolve& value);

/// Parses a payload; false on any structural violation (short buffer,
/// trailing bytes, absurd key length).
bool decode_payload(const std::string& payload, std::string& key,
                    CachedSolve& value);

}  // namespace dsmt::cache
