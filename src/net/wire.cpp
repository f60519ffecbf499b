#include "net/wire.h"

#include <cstring>

#include "service/request.h"

namespace dsmt::net {

namespace {

/// Largest reply scratch buffer a thread keeps between replies [bytes].
constexpr std::size_t kScratchKeepBytes = std::size_t{64} << 10;

}  // namespace

std::string encode_frame(const std::string& payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(kFrameMagic, sizeof kFrameMagic);
  frame.push_back(static_cast<char>((len >> 24) & 0xFF));
  frame.push_back(static_cast<char>((len >> 16) & 0xFF));
  frame.push_back(static_cast<char>((len >> 8) & 0xFF));
  frame.push_back(static_cast<char>(len & 0xFF));
  frame.append(payload);
  return frame;
}

std::string response_frame(const service::Response& response) {
  // The payload goes to a per-thread scratch buffer, so the frame is
  // allocated once at its exact size: frames queue per connection, and a
  // string grown in place would hold up to twice its bytes.
  thread_local std::string payload;
  payload.clear();
  service::write_response(payload, response, -1);
  std::string frame = encode_frame(payload);
  // One outsized reply must not pin its buffer for the thread's lifetime.
  if (payload.capacity() > kScratchKeepBytes) std::string().swap(payload);
  return frame;
}

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::append(const char* data, std::size_t n) {
  if (poisoned_) return;  // the stream is dead; don't buffer more garbage
  // Compact lazily: move unconsumed tail to the front once the consumed
  // prefix dominates, so a pipelining client cannot grow the buffer without
  // bound while staying under the frame cap per frame.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

FrameStatus FrameDecoder::next(std::string& payload) {
  if (poisoned_) return poison_status_;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  const char* head = buffer_.data() + consumed_;
  if (std::memcmp(head, kFrameMagic, sizeof kFrameMagic) != 0) {
    poisoned_ = true;
    poison_status_ = FrameStatus::kBadMagic;
    return poison_status_;
  }
  const std::uint32_t len =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(head[4])) << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(head[5])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(head[6])) << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(head[7]));
  if (len > max_frame_bytes_) {
    poisoned_ = true;
    poison_status_ = FrameStatus::kOversized;
    return poison_status_;
  }
  if (avail < kFrameHeaderBytes + len) return FrameStatus::kNeedMore;
  payload.assign(head + kFrameHeaderBytes, len);
  consumed_ += kFrameHeaderBytes + len;
  return FrameStatus::kFrame;
}

}  // namespace dsmt::net
