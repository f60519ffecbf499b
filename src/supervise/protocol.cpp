#include "supervise/protocol.h"

#include <cerrno>
#include <cstring>
#include <string_view>

#include "cache/entry.h"
#include "cache/fnv.h"
#include "net/socket_io.h"

namespace dsmt::supervise {

namespace {

/// Big-endian unsigned integer of `bytes` bytes at `data`.
std::uint64_t get_be(const char* data, std::size_t bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    value = (value << 8) | static_cast<unsigned char>(data[i]);
  return value;
}

void put_be(std::string& out, std::uint64_t value, std::size_t bytes) {
  for (std::size_t i = bytes; i-- > 0;)
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
}

constexpr std::size_t kIdLengthBytes = 4;

}  // namespace

std::uint64_t canonical_request_hash(const service::Request& request) {
  // FNV-1a from the one shared primitive (cache/fnv.h), under the basis
  // this hash has always used (frozen there as kCanonicalBasis).
  return cache::fnv1a(cache::canonical_key(request), cache::kCanonicalBasis);
}

std::string encode_request_message(std::uint64_t seq,
                                   const service::Request& request) {
  std::string out;
  put_be(out, seq, kSeqPrefixBytes);
  put_be(out, request.id.size(), kIdLengthBytes);
  out += request.id;
  out += cache::canonical_key(request);
  return out;
}

bool decode_request_message(const char* data, std::size_t size,
                            std::uint64_t& seq, service::Request& request) {
  if (size < kSeqPrefixBytes) return false;
  seq = get_be(data, kSeqPrefixBytes);
  const std::string_view rest(data + kSeqPrefixBytes, size - kSeqPrefixBytes);
  if (rest.size() < kIdLengthBytes) return false;
  const std::uint64_t id_end =
      kIdLengthBytes + get_be(rest.data(), kIdLengthBytes);
  // decode_canonical_key leaves `request` untouched when it fails.
  if (id_end > rest.size() ||
      !cache::decode_canonical_key(rest.substr(id_end), request))
    return false;
  request.id = rest.substr(kIdLengthBytes, id_end - kIdLengthBytes);
  return true;
}

std::string encode_response_message(std::uint64_t seq,
                                    const service::Response& response) {
  std::string out;
  put_be(out, seq, kSeqPrefixBytes);
  put_be(out, static_cast<std::uint64_t>(response.status), 1);
  out += net::response_frame(response);
  return out;
}

bool decode_response_message(const char* data, std::size_t size,
                             std::size_t max_payload_bytes,
                             std::uint64_t& seq, core::StatusCode& status,
                             std::string& frame) {
  if (size < kMessageOverheadBytes) return false;
  seq = get_be(data, kSeqPrefixBytes);
  const std::uint64_t code = get_be(data + kSeqPrefixBytes, 1);
  if (code > static_cast<std::uint64_t>(core::kLastStatusCode)) return false;
  const char* header = data + kSeqPrefixBytes + 1;
  if (std::memcmp(header, net::kFrameMagic, sizeof net::kFrameMagic) != 0)
    return false;
  const std::uint64_t declared = get_be(header + sizeof net::kFrameMagic, 4);
  if (declared > max_payload_bytes) return false;
  // SEQPACKET preserves message boundaries, so the declared length must
  // account for exactly the rest of the datagram — anything else is a
  // protocol violation, not a short read.
  if (size - kMessageOverheadBytes != declared) return false;
  status = static_cast<core::StatusCode>(code);
  frame.assign(header, net::kFrameHeaderBytes + declared);
  return true;
}

int send_message(int fd, const std::string& message) {
  for (;;) {
    const net::IoResult r =
        net::write_some(fd, message.data(), message.size());
    if (r.n == static_cast<long>(message.size())) return 0;
    if (r.n < 0 && r.would_block()) continue;
    if (r.n >= 0) return EPROTO;  // short SEQPACKET send: cannot happen
    return r.error != 0 ? r.error : EPIPE;
  }
}

std::string frame_payload(const std::string& frame) {
  if (frame.size() < net::kFrameHeaderBytes) return std::string{};
  return frame.substr(net::kFrameHeaderBytes);
}

}  // namespace dsmt::supervise
