// Length-prefixed framing of the service JSON codec.
//
// One frame = an 8-byte header followed by a UTF-8 JSON payload:
//
//   bytes 0..3   magic "DSM1" (0x44 0x53 0x4D 0x31)
//   bytes 4..7   payload length, unsigned 32-bit big-endian
//   bytes 8..    payload (request or response object, service/request.h)
//
// The header is fixed-size and self-describing, so the reader always knows
// how many bytes it still owes before it can act — the property that makes
// truncation, garbage, and oversize *classifiable* instead of ambiguous:
//
//   * wrong magic      -> kBadMagic: the stream is not speaking this
//                         protocol (an HTTP probe, random bytes). There is
//                         no resync point, so the connection must close
//                         after one well-formed error frame.
//   * declared length  -> kOversized: a frame bigger than the configured
//     over the cap        cap is refused before a single payload byte is
//                         buffered — the length field alone must never
//                         drive an allocation.
//   * EOF mid-frame    -> the decoder reports mid_frame(), letting the
//                         connection distinguish a truncated frame (error
//                         frame, then close) from a clean close between
//                         frames.
//
// The decoder is incremental (feed bytes as they arrive, extract zero or
// more complete frames) and single-threaded by design: each instance
// belongs to one Connection, which belongs to the event loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dsmt::service {
struct Response;
}  // namespace dsmt::service

namespace dsmt::net {

inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr char kFrameMagic[4] = {'D', 'S', 'M', '1'};
/// Default cap on one frame's payload [bytes]. A design-rule request is a
/// few hundred bytes; 1 MiB leaves room for large batched diagnostics
/// without letting a hostile length field size an allocation.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 20;

/// Outcome of asking the decoder for the next frame.
enum class FrameStatus {
  kNeedMore = 0,  ///< incomplete header or payload — keep reading
  kFrame,         ///< a complete payload was extracted
  kBadMagic,      ///< stream is not speaking the protocol (close after error)
  kOversized,     ///< declared length exceeds the cap (close after error)
};

/// Wraps `payload` in a wire frame (header + bytes). The caller enforces
/// any size cap; encoding itself is total for payloads < 2^32 bytes.
std::string encode_frame(const std::string& payload);

/// The one encoder of a reply, on a socket or the supervision channel: the
/// frame of service::write_response(response) at compact indent. No tree
/// is built, and the frame is allocated once, at its exact size.
std::string response_frame(const service::Response& response);

/// Incremental frame decoder for one connection's inbound byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Buffers `n` raw bytes from the socket.
  void append(const char* data, std::size_t n);

  /// Extracts the next complete frame into `payload` (kFrame), or reports
  /// why it cannot: kNeedMore (benign), kBadMagic / kOversized (protocol
  /// errors — the decoder is poisoned and keeps returning the same error).
  FrameStatus next(std::string& payload);

  /// True when bytes of an incomplete frame (or partial header) are
  /// buffered — EOF now means the peer truncated a frame.
  bool mid_frame() const { return !poisoned_ && buffer_.size() > consumed_; }

  /// Bytes currently buffered and not yet consumed by a returned frame.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  std::size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  // R10-ok: a FrameDecoder is owned by one Connection and touched only by
  // the event-loop thread; nothing here is shared across threads.
  std::size_t max_frame_bytes_;  // R10-ok: event-loop-only (see above)
  std::string buffer_;           // R10-ok: event-loop-only (see above)
  std::size_t consumed_ = 0;     // R10-ok: event-loop-only (see above)
  bool poisoned_ = false;        // R10-ok: event-loop-only (see above)
  FrameStatus poison_status_ = FrameStatus::kNeedMore;  // R10-ok: see above
};

}  // namespace dsmt::net
