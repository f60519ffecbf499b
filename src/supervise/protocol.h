// Wire protocol of the worker-supervision IPC channel.
//
// Parent and worker child exchange one SOCK_SEQPACKET datagram per message.
// A datagram is an 8-byte big-endian sequence number followed by one DSM1
// frame (net/wire.h) whose payload is the strict-JSON request or response
// codec of service/request.h — the exact same bytes the socket front end
// speaks, so the parent can forward a worker's reply frame to the client
// VERBATIM. That byte-level pass-through is what preserves the
// byte-identical-replies-at-any-DSMT_THREADS invariant through the process
// boundary: the parent never re-serializes a successful response, it only
// peeks at the status field for metrics.
//
// The sequence number is an integrity check, not a multiplexer: the channel
// carries one request at a time (the pool leases a worker per request), so
// a mismatched echo means the child is corrupted and must be restarted.
//
// canonical_request_hash() is the poison-quarantine key: FNV-1a over the
// request's canonical key, which leaves the id out (cache::canonical_key),
// so the same physics shares one quarantine entry whatever correlation id
// each client chose. Clients pick a fresh id per request; a poison payload
// re-sent under new ids is still one payload and must still be quarantined.
#pragma once

#include <cstdint>
#include <string>

#include "service/request.h"

namespace dsmt::supervise {

/// Bytes of the big-endian sequence prefix ahead of the DSM1 frame.
inline constexpr std::size_t kSeqPrefixBytes = 8;

/// FNV-1a (64-bit, cache::kCanonicalBasis) over cache::canonical_key(
/// request): the content hash that keys the poison-quarantine table.
/// Pure — identical across processes, threads, and runs.
std::uint64_t canonical_request_hash(const service::Request& request);

/// One parent->child datagram: seq prefix + DSM1-framed request JSON.
std::string encode_request_message(std::uint64_t seq,
                                   const service::Request& request);

/// One child->parent datagram: seq prefix + DSM1-framed response JSON.
std::string encode_response_message(std::uint64_t seq,
                                    const service::Response& response);

/// Splits a datagram into its sequence number and the DSM1 frame bytes that
/// follow (header + payload, ready to forward). Returns false on anything
/// malformed: short datagram, bad magic, or a declared payload length that
/// disagrees with the datagram size or exceeds `max_payload_bytes`.
bool split_message(const char* data, std::size_t size,
                   std::size_t max_payload_bytes, std::uint64_t& seq,
                   std::string& frame);

/// JSON payload of a frame produced by split_message (bytes after the
/// 8-byte DSM1 header).
std::string frame_payload(const std::string& frame);

}  // namespace dsmt::supervise
