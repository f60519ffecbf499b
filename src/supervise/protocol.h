// Wire protocol of the worker-supervision IPC channel: one SOCK_SEQPACKET
// datagram per message, each opening with an 8-byte big-endian sequence
// number.
//
//   request  seq | u32 id length | id | cache::canonical_key(request)
//   reply    seq | u8 status | DSM1 frame (net/wire.h) of the reply JSON
//
// A request's one encoding is its bit-exact canonical key, so the worker
// answers every input bit and parses no JSON. The parent reads only the
// echo and the status byte and forwards the frame to the client VERBATIM,
// so supervised reply bytes equal in-process ones at any DSMT_THREADS.
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

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/status.h"
#include "net/wire.h"
#include "service/request.h"

namespace dsmt::supervise {

/// Bytes of the big-endian sequence prefix every datagram opens with.
inline constexpr std::size_t kSeqPrefixBytes = 8;

/// Echo + status byte + DSM1 header: a reply's fixed bytes (a request's are
/// fewer). Every size on the channel is this plus the payload cap.
inline constexpr std::size_t kMessageOverheadBytes =
    kSeqPrefixBytes + 1 + net::kFrameHeaderBytes;

/// FNV-1a (64-bit, cache::kCanonicalBasis) over cache::canonical_key(
/// request): the content hash that keys the poison-quarantine table.
/// Pure — identical across processes, threads, and runs.
std::uint64_t canonical_request_hash(const service::Request& request);

/// One parent->child datagram: seq, then the id and the canonical key.
std::string encode_request_message(std::uint64_t seq,
                                   const service::Request& request);

/// Strict inverse of encode_request_message. `seq` is read whenever the
/// prefix is present, so even a rejected datagram can be answered under
/// its own echo. Returns false on a short datagram, an id length that runs
/// past the end, or a key cache::decode_canonical_key rejects.
bool decode_request_message(const char* data, std::size_t size,
                            std::uint64_t& seq, service::Request& request);

/// One child->parent datagram: seq, response.status, then
/// net::response_frame(response).
std::string encode_response_message(std::uint64_t seq,
                                    const service::Response& response);

/// Splits a reply datagram into its echo, its status and the DSM1 frame
/// bytes that follow (header + payload, ready to forward). Returns false on
/// anything malformed: short datagram, a status byte outside
/// core::StatusCode, bad magic, or a declared payload length that disagrees
/// with the datagram size or exceeds `max_payload_bytes`.
bool decode_response_message(const char* data, std::size_t size,
                             std::size_t max_payload_bytes,
                             std::uint64_t& seq, core::StatusCode& status,
                             std::string& frame);

/// Sends one whole datagram; EINTR and a would-block on a full buffer are
/// retried (the peer reads one message per request, so the buffer drains).
/// Returns 0, or the errno of the failure: a dead peer (EPIPE/ECONNRESET)
/// must stay distinguishable from a datagram a LIVE peer could not take
/// (EMSGSIZE, ENOBUFS), which is not a crash.
int send_message(int fd, const std::string& message);

/// JSON payload of a reply frame (bytes after the 8-byte DSM1 header).
std::string frame_payload(const std::string& frame);

}  // namespace dsmt::supervise
