#include "expect.h"

#include <exception>
#include <memory>

#include "cache/fnv.h"
#include "proc.h"
#include "service/server.h"

namespace perf {

namespace {

// A service::Server keeps every full solve in its rung-1 reference cache;
// with never-repeating keys that grows without bound, so each worker starts
// a fresh server after this many requests. Replies of full solves do not
// depend on that cache.
constexpr std::size_t kServerReuse = 16384;

std::unique_ptr<dsmt::service::Server> fresh_server() {
  dsmt::service::ServerConfig config;
  config.publish_signoff = false;
  return std::make_unique<dsmt::service::Server>(config);
}

}  // namespace

std::uint64_t payload_hash(std::string_view bytes) {
  return dsmt::cache::fnv1a(bytes);
}

std::vector<Expected> expect_all(
    std::size_t count,
    const std::function<dsmt::service::Request(std::size_t)>& make) {
  std::vector<Expected> out(count);
  split_work(count, [&](std::size_t begin, std::size_t end) {
    std::unique_ptr<dsmt::service::Server> server = fresh_server();
    for (std::size_t i = begin; i < end; ++i) {
      if ((i - begin) % kServerReuse == kServerReuse - 1)
        server = fresh_server();
      try {
        const dsmt::service::Response response = server->handle(make(i));
        const std::string bytes =
            dsmt::service::response_to_json(response).dump(-1);
        out[i].hash = payload_hash(bytes);
        out[i].size = static_cast<std::uint32_t>(bytes.size());
        out[i].full_rung =
            response.ok() && response.degradation_level ==
                                 dsmt::service::DegradationLevel::kFull;
      } catch (const std::exception&) {
        out[i] = Expected{};  // not full_rung: the pre-check reports it
      }
    }
  });
  return out;
}

}  // namespace perf
