#include "cache/segment.h"

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "cache/fnv.h"
#include "core/atomic_file.h"

namespace dsmt::cache {

namespace {

constexpr std::uint32_t kMaxPayloadBytes = 1u << 21;  ///< sanity, not policy

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

}  // namespace

const char* const kPhysicsSchema =
    "dsmt eq13/solve v2: quasi-2D ladder, brent(tol=machine) + "
    "expand/bisect recovery, SI doubles, canonical single-event diag; "
    "keys: kind + request fields, doubles as IEEE-754 bits, "
    "length-prefixed strings";

std::uint64_t default_schema_stamp() { return fnv1a(kPhysicsSchema); }

std::string encode_record(const std::string& payload,
                          std::uint64_t schema_stamp) {
  std::string out;
  out.reserve(kRecordHeaderBytes + payload.size());
  out.append(kSegmentMagic, sizeof(kSegmentMagic));
  put_u32_be(out, kFormatVersion);
  put_u64_be(out, schema_stamp);
  put_u32_be(out, static_cast<std::uint32_t>(payload.size()));
  put_u64_be(out, fnv1a(payload));
  put_u64_be(out, fnv1a(out.data(), out.size()));
  out.append(payload);
  return out;
}

SegmentLoadStats load_segment(
    const std::string& path, std::uint64_t schema_stamp,
    const std::function<void(std::string, const CachedSolve&)>& sink) {
  SegmentLoadStats stats;

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) return stats;  // no file yet: an empty cache
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }

  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t offset = 0;
  bool truncate_here = false;
  while (offset < bytes.size()) {
    const std::size_t remaining = bytes.size() - offset;
    if (remaining < kRecordHeaderBytes) {
      truncate_here = true;  // torn mid-header
      break;
    }
    const unsigned char* h = base + offset;
    // Header integrity first: a flipped bit in the length field would
    // otherwise mis-frame every record after this one.
    const std::uint64_t header_sum = get_u64_be(h + 28);
    if (fnv1a(h, 28) != header_sum ||
        std::string_view(reinterpret_cast<const char*>(h), 4) !=
            std::string_view(kSegmentMagic, 4) ||
        get_u32_be(h + 4) != kFormatVersion) {
      truncate_here = true;  // unframeable: cut the tail
      break;
    }
    if (get_u64_be(h + 8) != schema_stamp) {
      // Different physics revision wrote this file. Refuse all of it —
      // entries already sunk were stamped identically (one stamp per
      // writer), so a mismatch can only appear on the first record.
      stats.refused_stamp = true;
      const std::string aside = path + ".refused";
      std::remove(aside.c_str());
      std::rename(path.c_str(), aside.c_str());
      return stats;
    }
    const std::uint32_t payload_len = get_u32_be(h + 16);
    if (payload_len > kMaxPayloadBytes ||
        remaining < kRecordHeaderBytes + payload_len) {
      truncate_here = true;  // torn mid-payload
      break;
    }
    const char* payload_at =
        bytes.data() + offset + kRecordHeaderBytes;
    const std::string payload(payload_at, payload_len);
    std::string key;
    CachedSolve value;
    if (fnv1a(payload) != get_u64_be(h + 20) ||
        !decode_payload(payload, key, value)) {
      // Damage confined to this record: the intact header frames it, so
      // later records survive. Never served, always counted.
      ++stats.corrupt_quarantined;
    } else {
      sink(std::move(key), value);
      ++stats.entries_loaded;
    }
    offset += kRecordHeaderBytes + payload_len;
  }

  if (truncate_here && offset < bytes.size()) {
    ++stats.torn_truncated;
    stats.bytes_truncated = bytes.size() - offset;
    core::truncate_file_to(path, offset);
  }
  return stats;
}

}  // namespace dsmt::cache
