// Process-supervision suite (ctest label `supervise`): the crash-contained
// worker pool of src/supervise/. Forks real worker children, kills them with
// armed crash faults (SIGABRT / SIGSEGV / allocation storm under an
// RLIMIT_AS rail), and asserts the contract the supervisor exists to prove:
// the parent survives every child death, every request gets exactly one
// typed terminal answer, a poison hash is quarantined after the configured
// crash threshold, and clean-lane replies stay byte-deterministic through
// the process boundary. Forks processes and arms process-global fault
// plans, so it lives in its own executable like the other chaos suites.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/entry.h"
#include "core/atomic_file.h"
#include "core/run_context.h"
#include "core/status.h"
#include "net/wire.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "report/json.h"
#include "service/request.h"
#include "service/retry.h"
#include "service/server.h"
#include "supervise/pool.h"
#include "supervise/protocol.h"
#include "supervise/worker.h"

namespace dsmt::supervise {
namespace {

using core::StatusCode;
using numeric::fault::FaultKind;
using numeric::fault::FaultPlan;
using numeric::fault::ScopedFault;

service::Request wire_request(const std::string& id, double duty = 0.1,
                              double width_um = 0.5) {
  service::Request r;
  r.id = id;
  r.kind = service::RequestKind::kSelfConsistent;
  r.duty_cycle = duty;
  r.wire.width_um = width_um;
  r.wire.thickness_um = 0.9;
  r.wire.dielectric_um = 0.8;
  return r;
}

/// Pool config with every sleep disabled and no sign-off publication, so
/// the suite is fast and leaves no process-global registration behind.
SuperviseConfig quiet_pool(std::size_t workers) {
  SuperviseConfig c;
  c.workers = workers;
  c.service.publish_signoff = false;
  c.sleep_on_restart_backoff = false;
  c.publish_signoff = false;
  c.poll_interval_ms = 5;
  return c;
}

/// Crash plan for the worker-loop chaos hook: requests whose id contains
/// `key` die in the child by `kind` before the solve starts.
FaultPlan crash_plan(FaultKind kind, const std::string& key = "poison") {
  FaultPlan plan;
  plan.kind = kind;
  plan.kernel_substr = "supervise/worker";
  plan.key_substr = key;
  return plan;
}

/// A splitmix64 stream (service::mix64 is its output function): every
/// generated input below is a pure function of its seed.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    const std::uint64_t out = service::mix64(state);
    state += 0x9e3779b97f4a7c15ull;
    return out;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  template <typename T>
  T pick(std::initializer_list<T> values) {
    return values.begin()[below(values.size())];
  }
};

/// Seeded requests of all three kinds for the codec round trips and the
/// supervised-vs-in-process differential. Doubles often need 17 digits
/// (0.05 + 0.01 k, nextafter neighbours of round values); about one in
/// eight inputs fails (j0 1e7 has no bracket, unknown metal, technology or
/// gap fill, level 0 and -1, duty 0); the fields a kind does not key carry
/// junk; ids are empty, several KiB long, or hold quotes, backslashes,
/// control bytes and UTF-8.
std::vector<service::Request> generated_requests(std::size_t count,
                                                 std::uint64_t seed) {
  SplitMix rng{seed};
  // A round value, a nextafter neighbour of it, or a 17-digit perturbation.
  const auto near = [&rng](double round) {
    switch (rng.below(4)) {
      case 0: return round;
      case 1: return std::nextafter(round, 0.0);
      case 2: return std::nextafter(round, 2.0 * round);
      default:
        return round * (1.0 + 1e-13 * static_cast<double>(1 + rng.below(99)));
    }
  };
  const auto fails = [&rng] { return rng.below(8) == 0; };
  std::vector<service::Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    service::Request r;
    r.kind = rng.pick({service::RequestKind::kSelfConsistent,
                       service::RequestKind::kDutyCyclePoint,
                       service::RequestKind::kTableCell});
    r.duty_cycle = fails() ? 0.0
                   : rng.below(2) == 0
                       ? 0.05 + 0.01 * static_cast<double>(rng.below(96))
                       : near(rng.pick({0.1, 0.25, 0.5, 1.0}));
    r.j0_MA_cm2 = fails() ? 1e7
                          : rng.pick({near(0.6), near(1.8), 0.1 + 0.2,
                                      1.2345678901234});
    r.t_ref_c = rng.below(2) == 0
                    ? near(100.0)
                    : 25.0 + 0.1 * static_cast<double>(rng.below(900));
    const bool table = r.kind == service::RequestKind::kTableCell;
    // The fields this kind does not key get junk half the time: the reply
    // must not depend on them.
    if (table || rng.below(2) == 0) {
      r.technology = fails() ? std::string("NTRS-65nm-Cu")
                             : rng.pick<std::string>(
                                   {"NTRS-250nm-Cu", "NTRS-250nm-AlCu",
                                    "NTRS-180nm-Cu", "NTRS-130nm-Cu",
                                    "ntrs100cu", "100nm_alcu"});
      r.level = fails() ? rng.pick({0, -1})
                        : static_cast<int>(1 + rng.below(8));
      r.dielectric = fails() ? std::string("vacuum")
                             : rng.pick<std::string>({"oxide", "hsq",
                                                      "polyimide", "fsg",
                                                      "aerogel", "air"});
    }
    if (!table || rng.below(2) == 0) {
      r.wire.metal = fails() ? std::string("unobtainium")
                             : rng.pick<std::string>({"cu", "alcu", "al"});
      r.wire.width_um = 0.1 + 0.01 * static_cast<double>(rng.below(190));
      r.wire.thickness_um = near(rng.pick({0.5, 0.9, 1.2}));
      r.wire.dielectric_um = near(rng.pick({0.4, 0.8, 1.6}));
      r.wire.k_dielectric = near(rng.pick({1.15, 0.3, 0.6}));
    }
    switch (rng.below(6)) {
      case 0: break;  // empty id
      case 1:
        r.id = std::string(2048 + rng.below(6144), 'k') +
               std::to_string(i);
        break;
      case 2: r.id = "q\"uote\\back\\slash-" + std::to_string(i); break;
      case 3:
        r.id = std::string("ctl") + '\x01' + '\t' + '\n' + '\x1f' +
               '\x7f' + std::to_string(i);
        break;
      case 4:
        // Omega, euro sign, fire emoji: two-, three- and four-byte UTF-8.
        r.id = "\xce\xa9-\xe2\x82\xac-\xf0\x9f\x94\xa5-" +
               std::to_string(i);
        break;
      default: r.id = "wire-" + std::to_string(i); break;
    }
    out.push_back(std::move(r));
  }
  return out;
}

report::Json payload_of(const ExecuteResult& result) {
  return report::Json::parse(frame_payload(result.frame));
}

/// A reply payload with the worker-specific numbers masked: the pid and the
/// peak RSS of the child it names differ from run to run, the rest does not.
std::string without_pid(const std::string& payload) {
  static const std::regex kVolatile("(pid |maxrss_kb=)[0-9]+");
  return std::regex_replace(payload, kVolatile, "$1N");
}

std::string field_string(const report::Json& root, const char* key) {
  const report::Json* node = root.find(key);
  return node != nullptr ? node->as_string() : std::string{};
}

// --- IPC protocol -----------------------------------------------------------

TEST(SuperviseProtocol, CanonicalHashIsPureAndContentKeyed) {
  const service::Request a = wire_request("req-a");
  EXPECT_EQ(canonical_request_hash(a), canonical_request_hash(a));
  service::Request copy = a;
  EXPECT_EQ(canonical_request_hash(a), canonical_request_hash(copy));
  // The client's correlation id is not content: a fresh id keeps the key.
  copy.id = "req-b";
  EXPECT_EQ(canonical_request_hash(a), canonical_request_hash(copy));
  // Any physics difference changes it.
  service::Request hotter = a;
  hotter.duty_cycle = 0.2;
  EXPECT_NE(canonical_request_hash(a), canonical_request_hash(hotter));
}

TEST(SuperviseProtocol, MessageRoundTripAndStrictRejection) {
  // Request: seq | u32 id length | id | canonical key — every input bit.
  service::Request request = wire_request("round-trip", 0.1 + 0.2);
  request.j0_MA_cm2 = 1.2345678901234;
  const std::string message = encode_request_message(7, request);
  std::uint64_t seq = 0;
  service::Request decoded;
  ASSERT_TRUE(
      decode_request_message(message.data(), message.size(), seq, decoded));
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(decoded.id, "round-trip");
  EXPECT_EQ(decoded.duty_cycle, request.duty_cycle);  // bit-exact
  EXPECT_EQ(decoded.j0_MA_cm2, request.j0_MA_cm2);
  EXPECT_EQ(cache::canonical_key(decoded), cache::canonical_key(request));

  // Every proper prefix and one trailing byte are rejected, and so is an
  // id length that runs past the end.
  for (std::size_t n = 0; n < message.size(); ++n)
    EXPECT_FALSE(decode_request_message(message.data(), n, seq, decoded))
        << n;
  const std::string trailing = message + '\0';
  EXPECT_FALSE(
      decode_request_message(trailing.data(), trailing.size(), seq, decoded));
  std::string overlong_id = message;
  overlong_id[kSeqPrefixBytes] = '\x7f';
  EXPECT_FALSE(decode_request_message(overlong_id.data(), overlong_id.size(),
                                      seq, decoded));

  // Reply: seq | status byte | DSM1 frame, forwarded without parsing.
  service::Response response;
  response.id = "round-trip";
  response.status = StatusCode::kNoBracket;
  response.error = "no sign change";
  const std::string reply = encode_response_message(9, response);
  StatusCode status = StatusCode::kOk;
  std::string frame;
  ASSERT_TRUE(decode_response_message(reply.data(), reply.size(),
                                      net::kDefaultMaxFrameBytes, seq, status,
                                      frame));
  EXPECT_EQ(seq, 9u);
  EXPECT_EQ(status, StatusCode::kNoBracket);
  EXPECT_EQ(frame, net::encode_frame(
                       service::response_to_json(response).dump(-1)));

  const auto rejects = [&](const std::string& bytes, std::size_t cap) {
    return !decode_response_message(bytes.data(), bytes.size(), cap, seq,
                                    status, frame);
  };
  EXPECT_TRUE(rejects(reply.substr(0, 4), net::kDefaultMaxFrameBytes));
  // A status byte past core::StatusCode is a protocol violation.
  for (const int code : {static_cast<int>(core::kLastStatusCode) + 1, 255}) {
    std::string bad_status = reply;
    bad_status[kSeqPrefixBytes] = static_cast<char>(code);
    EXPECT_TRUE(rejects(bad_status, net::kDefaultMaxFrameBytes)) << code;
  }
  std::string bad_magic = reply;
  bad_magic[kSeqPrefixBytes + 1] = 'X';
  EXPECT_TRUE(rejects(bad_magic, net::kDefaultMaxFrameBytes));
  // Declared length must match the datagram exactly (SEQPACKET boundary).
  EXPECT_TRUE(rejects(reply.substr(0, reply.size() - 1),
                      net::kDefaultMaxFrameBytes));
  EXPECT_TRUE(rejects(reply + 'x', net::kDefaultMaxFrameBytes));
  // Payload over the configured cap is refused before any buffering.
  EXPECT_TRUE(rejects(reply, 4));
}

TEST(SuperviseProtocol, CanonicalKeyDecodesBackToItsOwnBytes) {
  std::uint64_t index = 0;
  for (const service::Request& request : generated_requests(2048, 16)) {
    const std::string key = cache::canonical_key(request);
    service::Request decoded;
    ASSERT_TRUE(cache::decode_canonical_key(key, decoded)) << index;
    EXPECT_EQ(cache::canonical_key(decoded), key) << index;
    EXPECT_TRUE(decoded.id.empty());

    const std::string message = encode_request_message(index, request);
    std::uint64_t seq = 0;
    service::Request carried;
    ASSERT_TRUE(decode_request_message(message.data(), message.size(), seq,
                                       carried));
    EXPECT_EQ(seq, index);
    EXPECT_EQ(carried.id, request.id);
    EXPECT_EQ(cache::canonical_key(carried), key);
    ++index;
  }
  // The table level is a u32 on the wire; every int comes back, negatives
  // included, so invalid-level replies stay byte-identical too.
  for (const int level : {INT_MIN, -1, 0, 1, INT_MAX}) {
    service::Request cell;
    cell.kind = service::RequestKind::kTableCell;
    cell.technology = "NTRS-250nm-Cu";
    cell.level = level;
    service::Request decoded;
    ASSERT_TRUE(
        cache::decode_canonical_key(cache::canonical_key(cell), decoded));
    EXPECT_EQ(decoded.level, level);
  }
}

TEST(SuperviseProtocol, KeyDecoderRejectsWhatCanonicalKeyNeverWrites) {
  service::Request cell;
  cell.kind = service::RequestKind::kTableCell;
  cell.technology = "NTRS-180nm-Cu";
  cell.level = 3;
  service::Request untouched = wire_request("");
  untouched.wire.metal = "sentinel";
  for (const service::Request& request : {wire_request(""), cell}) {
    const std::string key = cache::canonical_key(request);
    service::Request decoded = untouched;
    for (std::size_t n = 0; n < key.size(); ++n)
      EXPECT_FALSE(cache::decode_canonical_key(key.substr(0, n), decoded))
          << n;
    EXPECT_FALSE(cache::decode_canonical_key(key + '\0', decoded));
    // A rejected key leaves the output as it was.
    EXPECT_EQ(decoded.wire.metal, "sentinel");
  }

  // An unknown kind, including aliases the JSON codec accepts but the key
  // never writes.
  const std::string wire_key = cache::canonical_key(wire_request(""));
  const std::string body = wire_key.substr(4 + 15);  // after "self-consistent"
  for (const std::string kind : {"sc", "self-consistenT", "unknown", ""}) {
    std::string key;
    key.push_back('\0');
    key.push_back('\0');
    key.push_back('\0');
    key.push_back(static_cast<char>(kind.size()));
    key += kind + body;
    service::Request decoded;
    EXPECT_FALSE(cache::decode_canonical_key(key, decoded)) << kind;
  }

  // A string length that runs past the end: the metal's, right after the
  // kind and the three doubles.
  for (const unsigned char top : {0x00, 0x7f, 0xff}) {
    std::string key = wire_key;
    const std::size_t metal_length = 4 + 15 + 3 * 8;
    key[metal_length] = static_cast<char>(top);
    key[metal_length + 3] = static_cast<char>(0xff);
    service::Request decoded;
    EXPECT_FALSE(cache::decode_canonical_key(key, decoded)) << int{top};
  }
}

TEST(SuperviseProtocol, MutatedRequestsNeverCrashAndAcceptedOnesReencode) {
  // A seeded splitmix64 mutation campaign over the request envelope and
  // the key inside it: no mutant may crash the decoder (run it under the
  // asan-ubsan preset), and any mutant it accepts must re-encode to its
  // own bytes — the decoder reads exactly what the encoder can write.
  const std::vector<service::Request> corpus =
      generated_requests(256, 0x6b6579);
  SplitMix rng{0x6d757461};
  std::size_t accepted = 0;
  constexpr std::size_t kMutants = 120000;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::string bytes = encode_request_message(
        rng.next(), corpus[rng.below(corpus.size())]);
    for (std::size_t edits = 1 + rng.below(3); edits > 0; --edits) {
      switch (rng.below(5)) {
        case 0:  // flip bits in one byte
          bytes[rng.below(bytes.size())] ^=
              static_cast<char>(1 + rng.below(255));
          break;
        case 1:  // insert a byte
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                           rng.below(bytes.size() + 1)),
                       static_cast<char>(rng.next()));
          break;
        case 2:  // erase a byte
          bytes.erase(rng.below(bytes.size()), 1);
          break;
        case 3:  // truncate
          bytes.resize(rng.below(bytes.size() + 1));
          break;
        default: {  // overwrite four bytes with a plausible or huge length
          if (bytes.size() < 4) break;
          const std::size_t at = rng.below(bytes.size() - 3);
          const std::uint64_t length =
              rng.below(2) == 0 ? rng.below(64) : rng.next();
          for (std::size_t k = 0; k < 4; ++k)
            bytes[at + k] = static_cast<char>(length >> (24 - 8 * k));
          break;
        }
      }
      if (bytes.empty()) bytes.push_back(static_cast<char>(rng.next()));
    }
    std::uint64_t seq = 0;
    service::Request decoded;
    if (decode_request_message(bytes.data(), bytes.size(), seq, decoded)) {
      ++accepted;
      ASSERT_EQ(encode_request_message(seq, decoded), bytes) << "mutant " << m;
    }
  }
  // Flips inside a double, the id or the echo keep a datagram valid, so
  // the campaign exercises both outcomes.
  EXPECT_GT(accepted, kMutants / 100);
  EXPECT_LT(accepted, kMutants);
}

// --- the worker loop ---------------------------------------------------------

TEST(SuperviseWorker, MalformedDatagramGetsTypedReplyAndTheLoopKeepsServing) {
  // run_worker in a thread over a socketpair: the exact child loop, minus
  // the fork.
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, sv), 0);
  constexpr std::size_t kCap = 64 * 1024;
  service::ServerConfig config;
  config.publish_signoff = false;
  int exit_code = -1;
  std::thread worker(
      [&] { exit_code = run_worker(sv[1], config, WorkerLimits{}, kCap); });
  {
    // Closing our end is the clean-shutdown signal; doing it on scope exit
    // joins the worker even when an assertion returns early.
    struct Stop {
      int* fds;
      std::thread& thread;
      ~Stop() {
        ::close(fds[0]);
        thread.join();
        ::close(fds[1]);
      }
    } stop{sv, worker};

    std::string buffer(kMessageOverheadBytes + kCap, '\0');
    const auto ask = [&](const std::string& message, std::uint64_t& seq,
                         StatusCode& status, std::string& frame) {
      if (send_message(sv[0], message) != 0) return false;
      const ssize_t n = ::read(sv[0], buffer.data(), buffer.size());
      return n > 0 && decode_response_message(
                          buffer.data(), static_cast<std::size_t>(n), kCap,
                          seq, status, frame);
    };

    const service::Request request = wire_request("after-garbage", 0.15);
    std::string malformed = encode_request_message(41, request);
    malformed += "trailing";
    std::uint64_t seq = 0;
    StatusCode status = StatusCode::kOk;
    std::string frame;
    ASSERT_TRUE(ask(malformed, seq, status, frame));
    EXPECT_EQ(seq, 41u);  // answered under its own echo
    EXPECT_EQ(status, StatusCode::kInvalidInput);
    const report::Json rejected = report::Json::parse(frame_payload(frame));
    EXPECT_EQ(field_string(rejected, "status"), "invalid-input");
    EXPECT_NE(field_string(rejected, "error").find("malformed"),
              std::string::npos);
    EXPECT_EQ(frame_payload(frame),
              "{\"id\":\"\",\"kind\":\"self-consistent\",\"status\":\"invalid-i"
              "nput\",\"degraded\":false,\"degradation_level\":0,\"conservative"
              "\":false,\"attempts\":0,\"backoff_ns\":[],\"error\":\"malformed "
              "supervision datagram\",\"diag\":{\"kernel\":\"supervise/worker\""
              ",\"status\":\"invalid-input\",\"iterations\":0,\"residual\":0,\""
              "recovered\":false,\"chain\":[{\"kernel\":\"supervise/worker\",\""
              "status\":\"invalid-input\",\"iterations\":0,\"residual\":0,\"not"
              "e\":\"malformed supervision datagram\"}]}}");

    // The loop keeps serving: the next, well-formed request gets the
    // in-process reply bytes.
    ASSERT_TRUE(ask(encode_request_message(42, request), seq, status, frame));
    EXPECT_EQ(seq, 42u);
    EXPECT_EQ(status, StatusCode::kOk);
    service::Server in_process(config);
    EXPECT_EQ(frame, net::encode_frame(service::response_to_json(
                                           in_process.handle(request))
                                           .dump(-1)));
  }
  EXPECT_EQ(exit_code, 0);  // EOF on the channel: clean shutdown
}

// --- clean path --------------------------------------------------------------

TEST(WorkerPool, RefusesZeroWorkers) {
  EXPECT_THROW(WorkerPool{quiet_pool(0)}, std::invalid_argument);
}

TEST(WorkerPool, CleanRoundTripForwardsDeterministicWorkerBytes) {
  WorkerPool pool(quiet_pool(1));
  ASSERT_EQ(pool.live_workers(), 1u);

  const service::Request request = wire_request("clean-1");
  const ExecuteResult result = pool.execute(request, 3);
  ASSERT_EQ(result.status, StatusCode::kOk);
  const report::Json root = payload_of(result);
  EXPECT_EQ(field_string(root, "id"), "clean-1");
  EXPECT_EQ(field_string(root, "status"), "ok");

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.replies, 1u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.forks, 1u);

  // A second, independent fleet serving the same (request, seq) must echo
  // byte-identical reply frames: the worker runs the same deterministic
  // service and the parent forwards its bytes verbatim.
  WorkerPool other(quiet_pool(1));
  const ExecuteResult again = other.execute(request, 3);
  ASSERT_EQ(again.status, StatusCode::kOk);
  EXPECT_EQ(again.frame, result.frame);
}

TEST(WorkerPool, GeneratedRepliesEqualInProcessBytesAtOneAndEightThreads) {
  // The behavioural contract through the process boundary: for every
  // generated request, the supervised frame is byte for byte the frame the
  // in-process path sends for it — full-precision doubles, failing inputs
  // and awkward ids included — whether one thread or eight drive the pool.
  const std::vector<service::Request> requests = generated_requests(2048, 1);
  service::ServerConfig config;
  config.publish_signoff = false;
  service::Server in_process(config);
  std::vector<std::string> expected;
  expected.reserve(requests.size());
  std::size_t full = 0;
  std::size_t degraded = 0;
  std::size_t refused = 0;
  for (const service::Request& request : requests) {
    const service::Response response = in_process.handle(request);
    (response.ok() ? (response.degraded ? degraded : full) : refused) += 1;
    expected.push_back(
        net::encode_frame(service::response_to_json(response).dump(-1)));
  }
  // Every outcome class rides along: full solves, rung-2 answers to failed
  // solves, and typed refusals of invalid input.
  EXPECT_GT(full, requests.size() / 4);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(refused, 0u);

  const std::size_t restore = parallel::thread_count();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    parallel::set_thread_count(threads);
    WorkerPool pool(quiet_pool(2));
    ASSERT_EQ(pool.live_workers(), 2u);
    std::vector<std::string> frames(requests.size());
    parallel::parallel_for(requests.size(), [&](std::size_t i) {
      frames[i] = pool.execute(requests[i], i).frame;
    });
    std::size_t differing = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (frames[i] == expected[i]) continue;
      if (++differing <= 3)
        ADD_FAILURE() << "request " << i << " at " << threads
                      << " threads\n  in-process "
                      << frame_payload(expected[i]).substr(0, 400)
                      << "\n  supervised "
                      << frame_payload(frames[i]).substr(0, 400);
    }
    EXPECT_EQ(differing, 0u) << "of " << requests.size() << " at " << threads
                             << " threads";
    EXPECT_EQ(pool.stats().crashes, 0u);
  }
  parallel::set_thread_count(restore);
}

TEST(WorkerPool, TinyDutyRefusalIsTheSameBytesOnEveryPath) {
  // At duty_cycle 5e-324 the EM-only line j0/r overflows. The request is
  // refused as invalid input before any kernel runs, so the in-process
  // service, a supervised worker and a batch answer it with one set of
  // bytes, instead of each failing to encode +inf in its own way.
  const std::vector<service::Request> batch =
      service::parse_batch(R"([{"kind":"duty","duty_cycle":5e-324}])");
  ASSERT_EQ(batch.size(), 1u);
  service::ServerConfig config;
  config.publish_signoff = false;
  service::Server in_process(config);
  const service::Response handled = in_process.handle(batch[0]);
  EXPECT_EQ(handled.status, StatusCode::kInvalidInput);
  const std::string frame = net::response_frame(handled);

  WorkerPool pool(quiet_pool(1));
  const ExecuteResult supervised = pool.execute(batch[0], 1);
  EXPECT_EQ(supervised.status, StatusCode::kInvalidInput);
  EXPECT_EQ(supervised.frame, frame);

  service::Server batch_server(config);
  std::string document;
  EXPECT_EQ(service::write_batch_document(
                batch_server, batch, -1,
                [&document](std::string_view bytes) { document += bytes; }),
            1u);
  EXPECT_EQ(document.rfind("{\"responses\":[" + frame_payload(frame) + "],",
                           0),
            0u)
      << document;
}

// --- crash containment -------------------------------------------------------

TEST(WorkerPool, AbortCrashIsTypedContainedAndSurvivable) {
  SuperviseConfig config = quiet_pool(2);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  WorkerPool pool(config);

  EXPECT_EQ(pool.execute(wire_request("clean-a"), 1).status, StatusCode::kOk);

  const ExecuteResult crashed = pool.execute(wire_request("poison-a"), 2);
  EXPECT_EQ(crashed.status, StatusCode::kWorkerCrashed);
  const report::Json root = payload_of(crashed);
  EXPECT_EQ(field_string(root, "status"), "worker-crashed");
  EXPECT_NE(field_string(root, "error").find("worker crashed"),
            std::string::npos);
  EXPECT_EQ(without_pid(frame_payload(crashed.frame)),
            "{\"id\":\"poison-a\",\"kind\":\"self-consistent\",\"status\":\"wor"
            "ker-crashed\",\"degraded\":false,\"degradation_level\":0,\"conserv"
            "ative\":false,\"attempts\":0,\"backoff_ns\":[],\"error\":\"worker "
            "crashed serving the request (SIGABRT)\",\"diag\":{\"kernel\":\"sup"
            "ervise/pool\",\"status\":\"worker-crashed\",\"iterations\":0,\"res"
            "idual\":0,\"recovered\":false,\"chain\":[{\"kernel\":\"supervise/p"
            "ool\",\"status\":\"worker-crashed\",\"iterations\":0,\"residual\":"
            "0,\"note\":\"worker pid N died: SIGABRT; maxrss_kb=N; crash 1/2 fo"
            "r hash 0x5cad5fb7b24b1dbc\"}]}}");

  // The front end survives and the next clean request is served (by the
  // remaining live worker or a lazily reforked slot).
  EXPECT_EQ(pool.execute(wire_request("clean-b"), 4).status, StatusCode::kOk);

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.replies, 2u);
  EXPECT_GE(stats.forks, 2u);
}

TEST(WorkerPool, SegvCrashContained) {
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashSegv);
  WorkerPool pool(config);
  // Only the status is asserted: under a sanitizer the invalid store dies
  // by the sanitizer's own trap rather than a raw SIGSEGV, and both are the
  // same event from the supervisor's point of view — a dead child.
  EXPECT_EQ(pool.execute(wire_request("poison-segv"), 1).status,
            StatusCode::kWorkerCrashed);
  EXPECT_EQ(pool.execute(wire_request("clean-after-segv"), 2).status,
            StatusCode::kOk);
  EXPECT_EQ(pool.stats().crashes, 1u);
  EXPECT_GE(pool.stats().restarts, 1u);
}

TEST(WorkerPool, OomCrashDiesInsideTheAddressSpaceRail) {
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashOom);
  // The rail bounds the allocation storm: the child dies at ~512 MiB
  // instead of dragging the whole machine through real memory pressure.
  config.limits.rlimit_as_bytes = std::uint64_t{512} << 20;
  WorkerPool pool(config);
  // Either the storm is SIGKILLed inside the rail or (under a sanitizer,
  // where RLIMIT_AS breaks shadow mapping) the child dies at startup; both
  // are a contained kWorkerCrashed, never a parent failure.
  EXPECT_EQ(pool.execute(wire_request("poison-oom"), 1).status,
            StatusCode::kWorkerCrashed);
  EXPECT_GE(pool.stats().crashes, 0u);  // startup death is not a solve crash
  EXPECT_EQ(pool.stats().requests, 1u);
}

// --- poison quarantine -------------------------------------------------------

TEST(WorkerPool, QuarantineServesParentAnalyticRungAfterThreshold) {
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  const service::Request poison = wire_request("poison-q");
  EXPECT_EQ(pool.execute(poison, 1).status, StatusCode::kWorkerCrashed);
  EXPECT_EQ(pool.execute(poison, 2).status, StatusCode::kWorkerCrashed);

  // Third occurrence never reaches a worker: the parent answers from the
  // iteration-free analytic rung, degraded and conservative.
  const ExecuteResult refused = pool.execute(poison, 3);
  ASSERT_EQ(refused.status, StatusCode::kOk);
  const report::Json root = payload_of(refused);
  ASSERT_NE(root.find("degraded"), nullptr);
  EXPECT_TRUE(root.find("degraded")->as_bool());
  EXPECT_EQ(root.find("degradation_level")->as_integer(), 2);
  EXPECT_TRUE(root.find("conservative")->as_bool());
  const report::Json* solution = root.find("solution");
  ASSERT_NE(solution, nullptr);
  EXPECT_GT(solution->find("j_rms_MA_cm2")->as_number(), 0.0);

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.crashes, 2u);
  EXPECT_EQ(stats.quarantined_hashes, 1u);
  EXPECT_EQ(stats.quarantine_refusals, 1u);

  // The quarantine table is published for ping frames and sign-off.
  const report::Json doc = pool.supervise_json();
  const report::Json* table = doc.find("quarantine");
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->size(), 1u);
  EXPECT_TRUE(table->at(0).find("quarantined")->as_bool());
  EXPECT_EQ(table->at(0).find("crashes")->as_integer(), 2);

  // Clean traffic (other physics) still flows on a fresh worker.
  EXPECT_EQ(pool.execute(wire_request("clean-q", 0.2), 4).status,
            StatusCode::kOk);
  EXPECT_EQ(pool.stats().replies, 1u);
}

TEST(WorkerPool, PoisonUnderFreshIdsCrashesAtMostThresholdWorkers) {
  // Real clients pick a fresh correlation id per request. A poison payload
  // re-sent under 100 ids is still one payload: it may crash at most
  // quarantine_threshold workers, then the parent answers every repeat.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  for (int i = 0; i < 100; ++i) {
    const ExecuteResult result =
        pool.execute(wire_request("poison-" + std::to_string(i)),
                     static_cast<std::uint64_t>(i));
    EXPECT_FALSE(result.frame.empty()) << i;
  }
  const SuperviseStats stats = pool.stats();
  EXPECT_LE(stats.crashes, 2u);
  EXPECT_EQ(stats.quarantined_hashes, 1u);
  EXPECT_EQ(stats.quarantine_refusals, 98u);
}

TEST(WorkerPool, QuarantineIsTypedErrorWithoutTheAnalyticRung) {
  // A poison request whose problem does not build still crashes workers:
  // the crash arm fires before the service looks at the physics. Once it is
  // quarantined no rung can answer it, so the parent refuses it typed.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  service::Request poison = wire_request("poison-e");
  poison.wire.metal = "unobtainium";
  EXPECT_EQ(pool.execute(poison, 1).status, StatusCode::kWorkerCrashed);
  EXPECT_EQ(pool.execute(poison, 2).status, StatusCode::kWorkerCrashed);

  const ExecuteResult refused = pool.execute(poison, 3);
  EXPECT_EQ(refused.status, StatusCode::kWorkerCrashed);
  EXPECT_NE(field_string(payload_of(refused), "error").find("quarantined"),
            std::string::npos);
  EXPECT_EQ(pool.stats().crashes, 2u);  // refusals do not reach workers
}

// --- datagram capacity -------------------------------------------------------

TEST(WorkerPool, OversizeRequestIsTypedRefusalNotACrash) {
  // A request whose encoded message exceeds the (clamped) payload cap must
  // never be offered to the kernel: SEQPACKET refuses it with EMSGSIZE on a
  // LIVE child, and mistaking that for a crash used to blocking-wait on a
  // worker that never died.
  SuperviseConfig config = quiet_pool(1);
  config.max_payload_bytes = 4096;
  WorkerPool pool(config);
  ASSERT_EQ(pool.payload_cap(), 4096u);

  const service::Request fat = wire_request(std::string(12 * 1024, 'x'));
  const ExecuteResult refused = pool.execute(fat, 1);
  EXPECT_EQ(refused.status, StatusCode::kInvalidInput);
  EXPECT_NE(field_string(payload_of(refused), "error")
                .find("datagram capacity"),
            std::string::npos);
  EXPECT_EQ(frame_payload(refused.frame),
            "{\"id\":\"" + fat.id +
            "\",\"kind\":\"self-consistent\",\"status\":\"invalid-input\",\"deg"
            "raded\":false,\"degradation_level\":0,\"conservative\":false,\"att"
            "empts\":0,\"backoff_ns\":[],\"error\":\"request exceeds the superv"
            "ision channel datagram capacity\",\"diag\":{\"kernel\":\"supervise"
            "/pool\",\"status\":\"invalid-input\",\"iterations\":0,\"residual\""
            ":0,\"recovered\":false,\"chain\":[{\"kernel\":\"supervise/pool\","
            "\"status\":\"invalid-input\",\"iterations\":0,\"residual\":0,\"not"
            "e\":\"encoded request is 12381 bytes; the channel carries at most "
            "4113 (max_payload_bytes clamped to the socket buffer grant)\"}]}"
            "}");

  // The worker never saw the request and is still in service: the next
  // clean request is answered by the SAME child — no crash, no refork.
  EXPECT_EQ(pool.live_workers(), 1u);
  EXPECT_EQ(pool.execute(wire_request("small-after-fat"), 2).status,
            StatusCode::kOk);

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.oversize_refusals, 1u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.forks, 1u);
}

TEST(WorkerPool, OversizeReplyKeepsResultsAndElidesOnlyTheDiag) {
  // Fatten the reply's diag chain deterministically: exhausting the child's
  // solver iterations fails the full solve and drives the degradation
  // ladder, which append several records to a still-kOk response.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault.kind = FaultKind::kExhaustIterations;
  config.limits.child_fault.kernel_substr = "selfconsistent";
  config.limits.child_fault.at_iteration = 1;

  const service::Request request = wire_request("fat-diag");
  std::size_t full_payload = 0;
  {
    WorkerPool wide(config);
    const ExecuteResult full = wide.execute(request, 9);
    ASSERT_EQ(full.status, StatusCode::kOk);
    ASSERT_GT(full.frame.size(), net::kFrameHeaderBytes);
    full_payload = full.frame.size() - net::kFrameHeaderBytes;
  }

  // One byte under the full reply: the worker must elide the diag chain,
  // NOT the numeric results, and NOT report a hollow kOk or a crash.
  SuperviseConfig tight = config;
  tight.max_payload_bytes = full_payload - 1;
  WorkerPool pool(tight);
  const ExecuteResult elided = pool.execute(request, 9);
  ASSERT_EQ(elided.status, StatusCode::kOk);
  const report::Json root = payload_of(elided);
  EXPECT_EQ(field_string(root, "id"), "fat-diag");
  const report::Json* solution = root.find("solution");
  ASSERT_NE(solution, nullptr);
  EXPECT_GT(solution->find("j_rms_MA_cm2")->as_number(), 0.0);
  EXPECT_NE(elided.frame.find("diag chain elided"), std::string::npos);

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.replies, 1u);
  EXPECT_EQ(stats.crashes, 0u);
}

// --- deadline kills vs quarantine --------------------------------------------

TEST(WorkerPool, ReplyDeadlineKillCountsTowardQuarantine) {
  // kCrashStall wedges the child in an endless sleep: only the supervised
  // reply deadline — measured from the successful send, so provably spent
  // inside the worker — can resolve it, and that kill DOES indict the hash.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashStall);
  config.reply_deadline_ns = 80ull * 1000 * 1000;
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  const service::Request poison = wire_request("poison-stall");
  const ExecuteResult first = pool.execute(poison, 1);
  EXPECT_EQ(first.status, StatusCode::kDeadlineExceeded);
  EXPECT_NE(field_string(payload_of(first), "error").find("reply deadline"),
            std::string::npos);
  EXPECT_EQ(without_pid(frame_payload(first.frame)),
            "{\"id\":\"poison-stall\",\"kind\":\"self-consistent\",\"status\":"
            "\"deadline-exceeded\",\"degraded\":false,\"degradation_level\":0,"
            "\"conservative\":false,\"attempts\":0,\"backoff_ns\":[],\"error\":"
            "\"worker exceeded the supervised reply deadline and was killed\","
            "\"diag\":{\"kernel\":\"supervise/pool\",\"status\":\"deadline-exce"
            "eded\",\"iterations\":0,\"residual\":0,\"recovered\":false,\"chain"
            "\":[{\"kernel\":\"supervise/pool\",\"status\":\"deadline-exceeded"
            "\",\"iterations\":0,\"residual\":0,\"note\":\"worker pid N killed "
            "(SIGKILL) while serving hash 0x5cad5fb7b24b1dbc; crash 1/2\"}]}}");
  // The second attempt exercises the lazy refork (through the fork broker,
  // from this thread — which is not the thread the pool was built on).
  EXPECT_EQ(pool.execute(poison, 2).status, StatusCode::kDeadlineExceeded);

  // Two pool-deadline kills reach the threshold: the parent's analytic rung
  // answers without any worker (or any 80 ms wait).
  const ExecuteResult refused = pool.execute(poison, 3);
  ASSERT_EQ(refused.status, StatusCode::kOk);
  EXPECT_TRUE(payload_of(refused).find("degraded")->as_bool());

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.deadline_kills, 2u);
  EXPECT_EQ(stats.crashes, 2u);
  EXPECT_EQ(stats.quarantined_hashes, 1u);
  EXPECT_EQ(stats.quarantine_refusals, 1u);
}

TEST(WorkerPool, AmbientDeadlineKillDoesNotQuarantine) {
  // An ambient (caller-budget) expiry may have burnt its budget queueing or
  // in restart backoff before the child ever started: the worker is killed
  // so the lane frees, but the request's hash is NOT indicted — two queue
  // delays must never add up to a permanent quarantine of a valid request.
  SuperviseConfig config = quiet_pool(1);
  config.limits.child_fault = crash_plan(FaultKind::kCrashStall);
  config.quarantine_threshold = 1;  // a single counted kill would quarantine
  WorkerPool pool(config);

  const service::Request poison = wire_request("poison-ambient");
  {
    const core::RunContext context =
        core::RunContext::with_deadline_after(std::chrono::milliseconds(60));
    core::ScopedRunContext scope(context);
    const ExecuteResult killed = pool.execute(poison, 1);
    EXPECT_EQ(killed.status, StatusCode::kDeadlineExceeded);
    EXPECT_NE(field_string(payload_of(killed), "error").find("interrupted"),
              std::string::npos);
    EXPECT_EQ(without_pid(frame_payload(killed.frame)),
              "{\"id\":\"poison-ambient\",\"kind\":\"self-consistent\",\"status"
              "\":\"deadline-exceeded\",\"degraded\":false,\"degradation_level"
              "\":0,\"conservative\":false,\"attempts\":0,\"backoff_ns\":[],\"e"
              "rror\":\"request interrupted: worker killed by the supervisor\","
              "\"diag\":{\"kernel\":\"supervise/pool\",\"status\":\"deadline-ex"
              "ceeded\",\"iterations\":0,\"residual\":0,\"recovered\":false,\"c"
              "hain\":[{\"kernel\":\"supervise/pool\",\"status\":\"deadline-exc"
              "eeded\",\"iterations\":0,\"residual\":0,\"note\":\"worker pid N "
              "killed (SIGKILL) while serving hash 0x5cad5fb7b24b1dbc\"}]}}");
  }

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.deadline_kills, 1u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.quarantined_hashes, 0u);
  const report::Json doc = pool.supervise_json();
  const report::Json* table = doc.find("quarantine");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 0u);

  // Unquarantined and off the ambient clock, a clean request flows again
  // through a freshly reforked worker.
  EXPECT_EQ(pool.execute(wire_request("clean-after-ambient"), 2).status,
            StatusCode::kOk);
}

// --- concurrency -------------------------------------------------------------

TEST(WorkerPool, ConcurrentStormAnswersEveryRequestExactlyOnce) {
  SuperviseConfig config = quiet_pool(3);
  config.limits.child_fault = crash_plan(FaultKind::kCrashAbort);
  config.quarantine_threshold = 2;
  WorkerPool pool(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::vector<std::vector<StatusCode>> results(kThreads);
  std::vector<int> clean_failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Two poison payloads shared across all threads (under per-request
        // ids, and with physics no clean request asks for), so their
        // hashes accrue crashes fleet-wide and quarantine mid-storm.
        const bool poison = i % 5 == 0;
        const std::string id =
            std::to_string(t) + "-" + std::to_string(i);
        const service::Request request =
            poison ? wire_request("poison-" + id, 0.1,
                                  0.6 + 0.1 * static_cast<double>(i / 5 % 2))
                   : wire_request("clean-" + id);
        const ExecuteResult result = pool.execute(
            request, static_cast<std::uint64_t>(t * kPerThread + i));
        EXPECT_FALSE(result.frame.empty());
        results[t].push_back(result.status);
        if (!poison && result.status != StatusCode::kOk) ++clean_failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::size_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    total += results[t].size();
    EXPECT_EQ(clean_failures[t], 0) << "thread " << t;
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads * kPerThread));

  const SuperviseStats stats = pool.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Both poison hashes end up quarantined; racing lanes may land a few
  // extra crashes past the threshold before the table closes.
  EXPECT_EQ(stats.quarantined_hashes, 2u);
  EXPECT_GE(stats.crashes, 2u);
  EXPECT_GE(stats.quarantine_refusals, 1u);
}

TEST(WorkerPool, ShutdownRefusesNewWorkAndIsIdempotent) {
  WorkerPool pool(quiet_pool(2));
  EXPECT_EQ(pool.live_workers(), 2u);
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_EQ(pool.live_workers(), 0u);
  const ExecuteResult refused = pool.execute(wire_request("late"), 1);
  EXPECT_EQ(refused.status, StatusCode::kCancelled);
  EXPECT_EQ(frame_payload(refused.frame),
            "{\"id\":\"late\",\"kind\":\"self-consistent\",\"status\":\"cancell"
            "ed\",\"degraded\":false,\"degradation_level\":0,\"conservative\":f"
            "alse,\"attempts\":0,\"backoff_ns\":[],\"error\":\"worker pool is s"
            "hut down\",\"diag\":{\"kernel\":\"\",\"status\":\"ok\",\"iteration"
            "s\":0,\"residual\":0,\"recovered\":false,\"chain\":[]}}");
}

// --- crash-safe artifacts under process death --------------------------------

TEST(AtomicFileCrash, KilledWriterNeverTearsTheTarget) {
  const std::string path = ::testing::TempDir() + "dsmt_atomic_kill.txt";
  const std::string old_content =
      "OLD:" + std::string(64 * 1024, 'a') + "\nEND\n";
  const std::string new_content =
      "NEW:" + std::string(64 * 1024, 'b') + "\nEND\n";
  core::atomic_write_file(path, old_content);

  for (int round = 0; round < 5; ++round) {
    const ::pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // CHILD: hammer the target with atomic rewrites until killed. Never
      // unwind back into gtest.
      for (int i = 0; i < 100000; ++i) {
        try {
          core::atomic_write_file(path, new_content);
        } catch (...) {
          ::_exit(7);
        }
      }
      ::_exit(0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + 3 * round));
    (void)::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    // Whatever instant the SIGKILL landed, the target is one complete
    // generation — never a torn intermediate, never the temp file.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream content;
    content << in.rdbuf();
    const std::string seen = content.str();
    EXPECT_TRUE(seen == old_content || seen == new_content)
        << "round " << round << ": torn file of " << seen.size() << " bytes";
  }
  (void)std::remove(path.c_str());
}

// --- allocation failure at the service boundary ------------------------------

TEST(ServiceAdmission, BadAllocDuringSolveIsShedAsOverload) {
  // kThrowBadAlloc makes the solver's residual filter throw std::bad_alloc;
  // the service must classify it as overload (shed, retry elsewhere), not
  // as bad input, and must not mask memory pressure with the ladder.
  FaultPlan plan;
  plan.kind = FaultKind::kThrowBadAlloc;
  plan.kernel_substr = "numeric/";
  ScopedFault fault(plan);

  service::ServerConfig config;
  config.publish_signoff = false;
  service::Server server(config);
  const service::Response resp = server.handle(wire_request("heap-gone"), 1);
  EXPECT_EQ(resp.status, StatusCode::kRejectedOverload);
  EXPECT_NE(resp.error.find("allocation failure"), std::string::npos);
  EXPECT_EQ(server.metrics().shed, 1u);
}

}  // namespace
}  // namespace dsmt::supervise
