// The correctness gate's reference: what the server must have answered.
//
// A reply is correct when its bytes equal the compact dump of
// response_to_json(service::Server::handle(request)) computed in this
// process on the request the server decoded. That holds for every
// configuration the benchmark serves: cache hits replay cold bytes and
// supervised workers forward the child's bytes verbatim. Only a digest and a
// length are kept per request, so the gate costs no reply-sized memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "service/request.h"

namespace perf {

struct Expected {
  std::uint64_t hash = 0;  ///< FNV-1a of the reply payload bytes
  std::uint32_t size = 0;  ///< reply payload length [bytes]
  /// The reference answered ok at rung 0 (the full solve). Every generated
  /// request must, or the workload is not measuring what it claims.
  bool full_rung = false;
};

std::uint64_t payload_hash(std::string_view bytes);

/// Expected replies of requests 0..count-1, where make(i) yields request i
/// as the server decodes it. Runs on up to four threads (split_work), each
/// with its own uncached service::Server.
std::vector<Expected> expect_all(
    std::size_t count,
    const std::function<dsmt::service::Request(std::size_t)>& make);

}  // namespace perf
