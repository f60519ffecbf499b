// Hostile-network suite for the socket front end (src/net): framing,
// protocol-error classification, pipelining, half-close, slow-loris
// eviction, admission control, graceful drain (programmatic and SIGTERM),
// deterministic I/O fault injection, and the 1-vs-8-thread byte-equality
// guarantee on reply streams.
//
// Tests drive a real net::Server over real Unix-domain sockets, and once
// over TCP on 127.0.0.1 (the event loop runs on a dedicated thread; raw
// client-side syscalls are fine here — lint rule R11 fences them out of
// src/, not tests/). Every client socket carries a receive timeout so a
// lost reply fails the test instead of wedging it.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/run_context.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "net/wire.h"
#include "numeric/fault_injection.h"
#include "parallel/thread_pool.h"
#include "report/json.h"
#include "service/request.h"
#include "service/server.h"
#include "supervise/pool.h"

namespace {

using namespace dsmt;

// ---- client-side plumbing (blocking sockets, 10 s receive timeout) ------

class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
    timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  /// A TCP client of 127.0.0.1:`port`.
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
    timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  bool send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const long n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                            MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  bool send_frame(const std::string& payload) {
    return send_raw(net::encode_frame(payload));
  }

  /// Reads one complete frame payload; false on EOF/timeout/corruption.
  bool recv_frame(std::string& payload) {
    char header[net::kFrameHeaderBytes];
    if (!recv_all(header, sizeof header)) return false;
    if (std::memcmp(header, net::kFrameMagic, sizeof net::kFrameMagic) != 0)
      return false;
    std::uint32_t len = 0;
    for (std::size_t i = 4; i < net::kFrameHeaderBytes; ++i)
      len = (len << 8) | static_cast<unsigned char>(header[i]);
    payload.resize(len);
    return len == 0 || recv_all(payload.data(), len);
  }

  /// Reads one frame and parses its JSON payload.
  bool recv_json(report::Json& doc) {
    std::string payload;
    if (!recv_frame(payload)) return false;
    doc = report::Json::parse(payload);
    return true;
  }

  /// True when the peer half-closed (recv returns 0).
  bool at_eof() {
    char byte;
    for (;;) {
      const long n = ::recv(fd_, &byte, 1, 0);
      if (n < 0 && errno == EINTR) continue;
      return n == 0;
    }
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }
  int fd() const { return fd_; }

 private:
  bool recv_all(char* data, std::size_t len) {
    std::size_t got = 0;
    while (got < len) {
      const long n = ::recv(fd_, data + got, len - got, 0);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
};

std::string status_of(const report::Json& doc) {
  const report::Json* status = doc.find("status");
  return (status != nullptr && status->is_string()) ? status->as_string()
                                                    : std::string{};
}

std::string id_of(const report::Json& doc) {
  const report::Json* id = doc.find("id");
  return (id != nullptr && id->is_string()) ? id->as_string() : std::string{};
}

std::string request_payload(const std::string& id, double duty = 0.1) {
  service::Request req;
  req.id = id;
  req.duty_cycle = duty;
  return service::request_to_json(req).dump(-1);
}

// ---- server fixture ------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  /// Test timing, and the backend dsmt_serve wires in-process: every solve
  /// request is answered by this fixture's service::Server.
  net::NetConfig fast_config() {
    net::NetConfig config;
    config.tick_ms = 5;
    config.idle_timeout_ticks = 400;   // 2 s — far beyond any healthy test
    config.drain_timeout_ticks = 400;
    config.handler = [this](const service::Request& request, std::uint64_t) {
      return net::response_frame(service_.handle(request));
    };
    return config;
  }

  static service::ServerConfig unpublished() {
    service::ServerConfig config;
    config.publish_signoff = false;
    return config;
  }

  void start() { start(fast_config()); }

  void start(net::NetConfig config) {
    path_ = "/tmp/dsmt_net_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(instance_counter_++) + ".sock";
    config.endpoint.kind = net::Endpoint::Kind::kUnix;
    config.endpoint.path = path_;
    server_ = std::make_unique<net::Server>(std::move(config));
    server_->open();  // bind before run so clients never race the listener
    thread_ = std::thread([this] { stats_ = server_->run(); });
  }

  net::NetStats stop() {
    if (server_) server_->request_drain();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    return stats_;
  }

  void TearDown() override { stop(); }

  const std::string& path() const { return path_; }
  net::Server& server() { return *server_; }

  static int instance_counter_;
  std::string path_;
  service::Server service_{unpublished()};
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
  net::NetStats stats_;
};

int NetServerTest::instance_counter_ = 0;

// ---- wire-format unit tests ---------------------------------------------

TEST(NetWire, RoundTripsFramesFedOneByteAtATime) {
  const std::string payload = "{\"id\":\"x\"}";
  const std::string frame = net::encode_frame(payload);
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + payload.size());

  net::FrameDecoder decoder;
  std::string out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.append(frame.data() + i, 1);
    EXPECT_EQ(decoder.next(out), net::FrameStatus::kNeedMore);
    EXPECT_TRUE(decoder.mid_frame());
  }
  decoder.append(frame.data() + frame.size() - 1, 1);
  ASSERT_EQ(decoder.next(out), net::FrameStatus::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_EQ(decoder.next(out), net::FrameStatus::kNeedMore);
}

TEST(NetWire, ExtractsPipelinedFramesInOrder) {
  net::FrameDecoder decoder;
  std::string stream;
  for (int i = 0; i < 5; ++i)
    stream += net::encode_frame("payload-" + std::to_string(i));
  decoder.append(stream.data(), stream.size());
  std::string out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(decoder.next(out), net::FrameStatus::kFrame);
    EXPECT_EQ(out, "payload-" + std::to_string(i));
  }
  EXPECT_EQ(decoder.next(out), net::FrameStatus::kNeedMore);
}

TEST(NetWire, PoisonsOnBadMagicAndStaysPoisoned) {
  net::FrameDecoder decoder;
  const std::string junk = "GET / HTTP/1.1\r\n";
  decoder.append(junk.data(), junk.size());
  std::string out;
  EXPECT_EQ(decoder.next(out), net::FrameStatus::kBadMagic);
  decoder.append(junk.data(), junk.size());
  EXPECT_EQ(decoder.next(out), net::FrameStatus::kBadMagic);
}

TEST(NetWire, RefusesOversizedDeclaredLengthBeforeBuffering) {
  net::FrameDecoder decoder(/*max_frame_bytes=*/64);
  std::string header(net::kFrameMagic, sizeof net::kFrameMagic);
  header += '\x00';
  header += '\x00';
  header += '\x01';
  header += '\x00';  // declares 256 bytes > 64-byte cap
  decoder.append(header.data(), header.size());
  std::string out;
  EXPECT_EQ(decoder.next(out), net::FrameStatus::kOversized);
}

// ---- end-to-end behaviour -----------------------------------------------

TEST_F(NetServerTest, RoundTripsOneSolveRequest) {
  start();
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(request_payload("rt-1")));
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "rt-1");
  EXPECT_EQ(status_of(doc), "ok");
  const report::Json* solution = doc.find("solution");
  ASSERT_NE(solution, nullptr);
  const report::Json* t_metal = solution->find("t_metal_c");
  ASSERT_NE(t_metal, nullptr);
  EXPECT_GT(t_metal->as_number(), 0.0);
}

TEST_F(NetServerTest, AnswersPipelinedRequestsInRequestOrder) {
  start();
  Client client(path());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < 8; ++i)
    burst += net::encode_frame(
        request_payload("pipe-" + std::to_string(i), 0.05 + 0.03 * i));
  ASSERT_TRUE(client.send_raw(burst));
  for (int i = 0; i < 8; ++i) {
    report::Json doc;
    ASSERT_TRUE(client.recv_json(doc)) << "reply " << i;
    EXPECT_EQ(id_of(doc), "pipe-" + std::to_string(i));
    EXPECT_EQ(status_of(doc), "ok");
  }
}

TEST_F(NetServerTest, ClassifiesTruncatedFrameAsInvalidInput) {
  start();
  Client client(path());
  ASSERT_TRUE(client.connected());
  const std::string frame = net::encode_frame(request_payload("trunc"));
  ASSERT_TRUE(client.send_raw(frame.substr(0, frame.size() / 2)));
  client.half_close();
  std::string payload;
  ASSERT_TRUE(client.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"\",\"kind\":\"self-consistent\",\"status\":\"invalid-inp"
            "ut\",\"degraded\":false,\"degradation_level\":0,\"conservative\":f"
            "alse,\"attempts\":0,\"backoff_ns\":[],\"error\":\"truncated frame:"
            " connection half-closed mid-frame\",\"diag\":{\"kernel\":\"net/ser"
            "ver\",\"status\":\"invalid-input\",\"iterations\":0,\"residual\":0"
            ",\"recovered\":false,\"chain\":[{\"kernel\":\"net/server\",\"statu"
            "s\":\"invalid-input\",\"iterations\":0,\"residual\":0,\"note\":\"t"
            "runcated frame: connection half-closed mid-frame\"}]}}");
  const report::Json doc = report::Json::parse(payload);
  EXPECT_EQ(status_of(doc), "invalid-input");
  const report::Json* error = doc.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->as_string().find("truncated"), std::string::npos);
  EXPECT_TRUE(client.at_eof());
  const net::NetStats stats = stop();
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST_F(NetServerTest, ClassifiesOversizedFrameAsInvalidInput) {
  net::NetConfig config = fast_config();
  config.max_frame_bytes = 128;
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(std::string(256, 'x')));
  std::string payload;
  ASSERT_TRUE(client.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"\",\"kind\":\"self-consistent\",\"status\":\"invalid-inp"
            "ut\",\"degraded\":false,\"degradation_level\":0,\"conservative\":f"
            "alse,\"attempts\":0,\"backoff_ns\":[],\"error\":\"oversized frame:"
            " declared length exceeds 128 bytes\",\"diag\":{\"kernel\":\"net/se"
            "rver\",\"status\":\"invalid-input\",\"iterations\":0,\"residual\":"
            "0,\"recovered\":false,\"chain\":[{\"kernel\":\"net/server\",\"stat"
            "us\":\"invalid-input\",\"iterations\":0,\"residual\":0,\"note\":\""
            "oversized frame: declared length exceeds 128 bytes\"}]}}");
  const report::Json doc = report::Json::parse(payload);
  EXPECT_EQ(status_of(doc), "invalid-input");
  const report::Json* error = doc.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->as_string().find("oversized"), std::string::npos);
  EXPECT_TRUE(client.at_eof());
  const net::NetStats stats = stop();
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST_F(NetServerTest, RejectsGarbageBeforeAnyFrameAndCloses) {
  start();
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("this is not a DSM1 stream at all"));
  std::string payload;
  ASSERT_TRUE(client.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"\",\"kind\":\"self-consistent\",\"status\":\"invalid-inp"
            "ut\",\"degraded\":false,\"degradation_level\":0,\"conservative\":f"
            "alse,\"attempts\":0,\"backoff_ns\":[],\"error\":\"bad frame magic:"
            " stream is not DSM1-framed\",\"diag\":{\"kernel\":\"net/server\","
            "\"status\":\"invalid-input\",\"iterations\":0,\"residual\":0,\"rec"
            "overed\":false,\"chain\":[{\"kernel\":\"net/server\",\"status\":\""
            "invalid-input\",\"iterations\":0,\"residual\":0,\"note\":\"bad fra"
            "me magic: stream is not DSM1-framed\"}]}}");
  EXPECT_TRUE(client.at_eof());
  const net::NetStats stats = stop();
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST_F(NetServerTest, AnswersGarbageJsonInsideAFrameAndKeepsConnection) {
  start();
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame("{not json at all"));
  std::string payload;
  ASSERT_TRUE(client.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"\",\"kind\":\"self-consistent\",\"status\":\"invalid-inp"
            "ut\",\"degraded\":false,\"degradation_level\":0,\"conservative\":f"
            "alse,\"attempts\":0,\"backoff_ns\":[],\"error\":\"malformed reques"
            "t payload: report/json: parse error at offset 1: expected member k"
            "ey string\\nreport/json/parse: invalid-input after 0 iteration(s),"
            " residual 0\\n  - report/json/parse: invalid-input, 0 it, residual"
            " 0 [parse error at offset 1: expected member key string]\",\"diag"
            "\":{\"kernel\":\"net/server\",\"status\":\"invalid-input\",\"itera"
            "tions\":0,\"residual\":0,\"recovered\":false,\"chain\":[{\"kernel"
            "\":\"net/server\",\"status\":\"invalid-input\",\"iterations\":0,\""
            "residual\":0,\"note\":\"malformed request payload: report/json: pa"
            "rse error at offset 1: expected member key string\\nreport/json/pa"
            "rse: invalid-input after 0 iteration(s), residual 0\\n  - report/j"
            "son/parse: invalid-input, 0 it, residual 0 [parse error at offset "
            "1: expected member key string]\"}]}}");
  // Well-formed JSON that names a field no request has: typed, id echoed.
  ASSERT_TRUE(client.send_frame(
      "{\"id\":\"typo\",\"kind\":\"table-cell\",\"dutycycle\":0.2}"));
  ASSERT_TRUE(client.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"typo\",\"kind\":\"self-consistent\",\"status\":\"invalid"
            "-input\",\"degraded\":false,\"degradation_level\":0,\"conservative"
            "\":false,\"attempts\":0,\"backoff_ns\":[],\"error\":\"service/requ"
            "est: unknown request field 'dutycycle'\\nservice/request: invalid-"
            "input after 0 iteration(s), residual 0\\n  - service/request: inva"
            "lid-input, 0 it, residual 0 [unknown request field 'dutycycle']\","
            "\"diag\":{\"kernel\":\"net/server\",\"status\":\"invalid-input\","
            "\"iterations\":0,\"residual\":0,\"recovered\":false,\"chain\":[{\""
            "kernel\":\"net/server\",\"status\":\"invalid-input\",\"iterations"
            "\":0,\"residual\":0,\"note\":\"service/request: unknown request fi"
            "eld 'dutycycle'\\nservice/request: invalid-input after 0 iteration"
            "(s), residual 0\\n  - service/request: invalid-input, 0 it, residu"
            "al 0 [unknown request field 'dutycycle']\"}]}}");
  // Framing stayed intact, so the connection survives and still serves.
  ASSERT_TRUE(client.send_frame(request_payload("after-garbage")));
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "after-garbage");
  EXPECT_EQ(status_of(doc), "ok");
  const net::NetStats stats = stop();
  EXPECT_EQ(stats.invalid_requests, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(NetServerTest, DeliversReplyAfterClientHalfClosesMidReply) {
  start();
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(request_payload("half-close")));
  client.half_close();  // FIN before the reply exists
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "half-close");
  EXPECT_EQ(status_of(doc), "ok");
  EXPECT_TRUE(client.at_eof());
}

TEST_F(NetServerTest, EvictsSlowLorisTricklingInsideOneFrame) {
  net::NetConfig config = fast_config();
  config.idle_timeout_ticks = 4;  // 20 ms frame budget at 5 ms ticks
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  const std::string frame = net::encode_frame(request_payload("loris"));
  // Trickle single bytes with pauses: activity never stops, but the frame
  // never completes — exactly the attack the frame budget exists for.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(8);
  std::size_t offset = 0;
  report::Json doc;
  bool evicted = false;
  while (std::chrono::steady_clock::now() < deadline &&
         offset + 1 < frame.size()) {
    if (!client.send_raw(frame.substr(offset, 1))) {
      evicted = true;  // server already closed on us mid-send
      break;
    }
    ++offset;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!evicted) {
    ASSERT_TRUE(client.recv_json(doc));
    EXPECT_EQ(status_of(doc), "deadline-exceeded");
    EXPECT_TRUE(client.at_eof());
  }
  const net::NetStats stats = stop();
  EXPECT_GE(stats.evicted_midframe, 1u);
}

TEST_F(NetServerTest, EvictsFullyIdleConnections) {
  net::NetConfig config = fast_config();
  config.idle_timeout_ticks = 4;
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));  // blocks until the eviction notice
  EXPECT_EQ(status_of(doc), "deadline-exceeded");
  EXPECT_TRUE(client.at_eof());
  const net::NetStats stats = stop();
  EXPECT_GE(stats.evicted_idle, 1u);
}

TEST_F(NetServerTest, RejectsConnectionsBeyondAdmissionLimit) {
  net::NetConfig config = fast_config();
  config.max_connections = 1;
  start(std::move(config));
  Client first(path());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.send_frame(request_payload("keeper")));
  report::Json doc;
  ASSERT_TRUE(first.recv_json(doc));  // slot is provably occupied

  Client second(path());
  ASSERT_TRUE(second.connected());  // accept() succeeds, admission refuses
  std::string payload;
  ASSERT_TRUE(second.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"\",\"kind\":\"self-consistent\",\"status\":\"rejected-ov"
            "erload\",\"degraded\":false,\"degradation_level\":0,\"conservative"
            "\":false,\"attempts\":0,\"backoff_ns\":[],\"error\":\"connection r"
            "ejected: connection limit reached\",\"diag\":{\"kernel\":\"net/ser"
            "ver\",\"status\":\"rejected-overload\",\"iterations\":0,\"residual"
            "\":0,\"recovered\":false,\"chain\":[{\"kernel\":\"net/server\",\"s"
            "tatus\":\"rejected-overload\",\"iterations\":0,\"residual\":0,\"no"
            "te\":\"connection rejected: connection limit reached\"}]}}");
  EXPECT_TRUE(second.at_eof());

  // The admitted connection is unharmed.
  ASSERT_TRUE(first.send_frame(request_payload("keeper-2")));
  ASSERT_TRUE(first.recv_json(doc));
  EXPECT_EQ(status_of(doc), "ok");
  const net::NetStats stats = stop();
  EXPECT_EQ(stats.rejected_connections, 1u);
}

TEST_F(NetServerTest, RejectsRequestsBeyondInflightCapWithWellFormedFrame) {
  net::NetConfig config = fast_config();
  config.max_inflight_per_connection = 0;  // every solve request over cap
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(request_payload("over-cap")));
  std::string payload;
  ASSERT_TRUE(client.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"over-cap\",\"kind\":\"self-consistent\",\"status\":\"rej"
            "ected-overload\",\"degraded\":false,\"degradation_level\":0,\"cons"
            "ervative\":false,\"attempts\":0,\"backoff_ns\":[],\"error\":\"requ"
            "est rejected: per-connection in-flight cap\",\"diag\":{\"kernel\":"
            "\"net/server\",\"status\":\"rejected-overload\",\"iterations\":0,"
            "\"residual\":0,\"recovered\":false,\"chain\":[{\"kernel\":\"net/se"
            "rver\",\"status\":\"rejected-overload\",\"iterations\":0,\"residua"
            "l\":0,\"note\":\"request rejected: per-connection in-flight cap\"}"
            "]}}");
  // The rejection of a decoded request echoes its kind, like every reply.
  service::Request cell;
  cell.id = "over-cap-cell";
  cell.kind = service::RequestKind::kTableCell;
  cell.technology = "NTRS-250nm-Cu";
  ASSERT_TRUE(client.send_frame(service::request_to_json(cell).dump(-1)));
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "over-cap-cell");
  EXPECT_EQ(status_of(doc), "rejected-overload");
  ASSERT_NE(doc.find("kind"), nullptr);
  EXPECT_EQ(doc.find("kind")->as_string(), "table-cell");
  // Ping still answers: the cap rejects solves, not the connection.
  ASSERT_TRUE(client.send_frame("{\"kind\":\"ping\",\"id\":\"p\"}"));
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(status_of(doc), "ok");
  const net::NetStats stats = stop();
  EXPECT_EQ(stats.rejected_inflight, 2u);
}

TEST_F(NetServerTest, PingReportsHealthAndDegradationState) {
  start();
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame("{\"kind\":\"ping\",\"id\":\"health-1\"}"));
  std::string payload;
  ASSERT_TRUE(client.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"health-1\",\"kind\":\"ping\",\"status\":\"ok\",\"dr"
            "aining\":false,\"connections\":1,\"inflight\":0,\"degradation\""
            ":{\"analytic_bound\":true}}");
  const report::Json doc = report::Json::parse(payload);
  EXPECT_EQ(id_of(doc), "health-1");
  EXPECT_EQ(status_of(doc), "ok");
  const report::Json* kind = doc.find("kind");
  ASSERT_NE(kind, nullptr);
  EXPECT_EQ(kind->as_string(), "ping");
  const report::Json* draining = doc.find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_FALSE(draining->as_bool());
  const report::Json* connections = doc.find("connections");
  ASSERT_NE(connections, nullptr);
  EXPECT_EQ(connections->as_integer(), 1);
  EXPECT_NE(doc.find("inflight"), nullptr);
  EXPECT_EQ(doc.find("breaker"), nullptr);
  const report::Json* degradation = doc.find("degradation");
  ASSERT_NE(degradation, nullptr);
  const report::Json* analytic = degradation->find("analytic_bound");
  ASSERT_NE(analytic, nullptr);
  EXPECT_TRUE(analytic->as_bool());
  EXPECT_EQ(degradation->find("interpolation"), nullptr);
}

TEST_F(NetServerTest, PingAppendsTheHealthSourceMembersAfterItsOwn) {
  net::NetConfig config = fast_config();
  config.health_source = [] {
    return report::Json::object()
        .set("cache", report::Json::object())
        .set("supervise", report::Json::integer(2));
  };
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame("{\"kind\":\"ping\",\"id\":\"hook\"}"));
  std::string payload;
  ASSERT_TRUE(client.recv_frame(payload));
  EXPECT_EQ(payload,
            "{\"id\":\"hook\",\"kind\":\"ping\",\"status\":\"ok\",\"draini"
            "ng\":false,\"connections\":1,\"inflight\":0,\"degradation\":{\"a"
            "nalytic_bound\":true},\"cache\":{},\"supervise\":2}");
}

TEST_F(NetServerTest, AnswersAThrowingHandlerWithATypedReplyOfItsKind) {
  net::NetConfig config = fast_config();
  config.handler = [](const service::Request& request,
                      std::uint64_t) -> std::string {
    if (request.id == "oom") throw std::bad_alloc();
    if (request.id == "boom") throw std::runtime_error("boom");
    throw 7;
  };
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  service::Request cell;
  cell.kind = service::RequestKind::kTableCell;
  cell.technology = "NTRS-250nm-Cu";
  const struct {
    const char* id;
    const char* status;
    const char* error;
  } cases[] = {
      {"oom", "rejected-overload", "allocation failure: request shed"},
      {"boom", "invalid-input", "internal error: boom"},
      {"odd", "invalid-input", "internal error: unknown exception"},
  };
  for (const auto& c : cases) {
    cell.id = c.id;
    ASSERT_TRUE(client.send_frame(service::request_to_json(cell).dump(-1)));
    report::Json doc;
    ASSERT_TRUE(client.recv_json(doc)) << c.id;
    EXPECT_EQ(id_of(doc), c.id);
    EXPECT_EQ(status_of(doc), c.status) << c.id;
    EXPECT_EQ(doc.find("error")->as_string(), c.error) << c.id;
    EXPECT_EQ(doc.find("kind")->as_string(), "table-cell") << c.id;
  }
}

TEST(NetServer, RefusesAConfigWithoutAHandler) {
  EXPECT_THROW(net::Server{net::NetConfig{}}, std::invalid_argument);
}

TEST(NetServer, RefusesATickShorterThanOneMillisecond) {
  for (const int tick_ms : {0, -5}) {
    net::NetConfig config;
    config.handler = [](const service::Request&, std::uint64_t) {
      return std::string{};
    };
    config.tick_ms = tick_ms;
    EXPECT_THROW(net::Server{config}, std::invalid_argument) << tick_ms;
  }
}

TEST_F(NetServerTest, CountsTheReplyOfAPeerThatResetWithWorkInFlight) {
  // The handler holds "held" until the peer's reset has closed its
  // connection, so the finished reply has no socket left to go to.
  std::atomic<bool> release{false};
  net::NetConfig config = fast_config();
  config.handler = [this, &release](const service::Request& request,
                                    std::uint64_t) {
    while (request.id == "held" && !release.load() &&
           core::run_check() == core::StatusCode::kOk)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return net::response_frame(service_.handle(request));
  };
  start(std::move(config));
  {
    Client victim(path());
    ASSERT_TRUE(victim.connected());
    // Leave a reply unread: closing over unread data resets the peer.
    ASSERT_TRUE(victim.send_frame(request_payload("unread")));
    pollfd pfd{victim.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10000), 1);
    ASSERT_TRUE(victim.send_frame(request_payload("held")));
    Client watcher(path());
    report::Json doc;
    do {  // until "held" is in flight on the pool
      ASSERT_TRUE(watcher.send_frame("{\"kind\":\"ping\"}"));
      ASSERT_TRUE(watcher.recv_json(doc));
    } while (doc.find("inflight")->as_integer() == 0);
  }
  Client watcher(path());
  report::Json doc;
  do {  // until the server has closed the reset connection
    ASSERT_TRUE(watcher.send_frame("{\"kind\":\"ping\"}"));
    ASSERT_TRUE(watcher.recv_json(doc));
  } while (doc.find("connections")->as_integer() > 1);
  release = true;
  const net::NetStats stats = stop();
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_EQ(stats.replies_sent, 1u);
  EXPECT_EQ(stats.replies_dropped, 1u);
}

TEST_F(NetServerTest, DrainFinishesInflightWorkBeforeClosing) {
  start();
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(request_payload("inflight-drain")));
  // Wait until the request is provably in flight (the service has seen it),
  // then drain: the reply must still arrive before the connection closes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (service_.metrics().received == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(service_.metrics().received, 1u);
  server().request_drain();
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "inflight-drain");
  EXPECT_EQ(status_of(doc), "ok");
  EXPECT_TRUE(client.at_eof());
  const net::NetStats stats = stop();
  EXPECT_TRUE(stats.drained_clean);
  EXPECT_EQ(stats.replies_sent, 1u);
}

TEST_F(NetServerTest, ServesARequestAndAPingOverTcp) {
  net::NetConfig config = fast_config();
  config.endpoint.kind = net::Endpoint::Kind::kTcp;
  config.endpoint.port = 0;  // kernel-assigned, on 127.0.0.1
  server_ = std::make_unique<net::Server>(std::move(config));
  server_->open();
  const std::uint16_t port = server_->bound_port();
  ASSERT_NE(port, 0u);
  thread_ = std::thread([this] { stats_ = server_->run(); });
  {
    Client client(port);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_frame(request_payload("tcp-1")));
    report::Json doc;
    ASSERT_TRUE(client.recv_json(doc));
    EXPECT_EQ(id_of(doc), "tcp-1");
    EXPECT_EQ(status_of(doc), "ok");
    ASSERT_TRUE(client.send_frame("{\"kind\":\"ping\",\"id\":\"tcp-ping\"}"));
    ASSERT_TRUE(client.recv_json(doc));
    EXPECT_EQ(id_of(doc), "tcp-ping");
    EXPECT_EQ(status_of(doc), "ok");
    client.half_close();
    EXPECT_TRUE(client.at_eof());
  }
  const net::NetStats stats = stop();
  EXPECT_TRUE(stats.drained_clean);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.replies_sent, 1u);
  EXPECT_EQ(stats.pings, 1u);
}

TEST_F(NetServerTest, SigtermDrainsGracefully) {
  start();
  server().install_signal_drain();
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(request_payload("sigterm-drain")));
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));  // served before the signal
  EXPECT_EQ(status_of(doc), "ok");
  ::kill(::getpid(), SIGTERM);
  EXPECT_TRUE(client.at_eof());  // drain closes the connection cleanly
  const net::NetStats stats = stop();
  EXPECT_TRUE(stats.drained_clean);
}

// ---- the largest budgets the options accept ------------------------------
// A budget at the top of its range means "never", not "at once": tick
// arithmetic compares elapsed ticks, and the nanosecond products saturate.

TEST_F(NetServerTest, KeepsAnIdleConnectionUnderTheLargestIdleBudget) {
  net::NetConfig config = fast_config();
  config.idle_timeout_ticks = UINT64_MAX;
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // ~10 ticks
  ASSERT_TRUE(client.send_frame(request_payload("idle-max")));
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "idle-max");
  EXPECT_EQ(status_of(doc), "ok");
  const net::NetStats stats = stop();
  EXPECT_EQ(stats.evicted_idle, 0u);
}

TEST_F(NetServerTest, AnswersUnderAnIdleBudgetWhoseNanosecondsOverflow) {
  // 101057535928765985 ticks x 50 ms is 128 ns modulo 2^64.
  net::NetConfig config = fast_config();
  config.tick_ms = 50;
  config.idle_timeout_ticks = 101057535928765985ull;
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(request_payload("wide-budget")));
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "wide-budget");
  EXPECT_EQ(status_of(doc), "ok");
}

TEST_F(NetServerTest, DrainsCleanUnderTheLargestDrainBudget) {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  net::NetConfig config = fast_config();
  config.drain_timeout_ticks = UINT64_MAX;
  config.handler = [this, &entered, &release](const service::Request& request,
                                              std::uint64_t) {
    entered = true;
    while (!release.load() && core::run_check() == core::StatusCode::kOk)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return net::response_frame(service_.handle(request));
  };
  start(std::move(config));
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(request_payload("held")));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (!entered.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(entered.load());
  // Past tick 1, so the drain starts at a tick a wrapped budget would
  // already have run out at; then hold the request for several more ticks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server().request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release = true;
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "held");
  EXPECT_EQ(status_of(doc), "ok");
  const net::NetStats stats = stop();
  EXPECT_TRUE(stats.drained_clean);
}

// ---- chaos: deterministic I/O faults ------------------------------------

TEST_F(NetServerTest, ServesCorrectlyUnderShortIoEintrAndEagainFaults) {
  start();
  net::testing::SocketFaultPlan plan;
  plan.short_io = true;     // clamp every server-side read/write to 1..7 B
  plan.eintr_period = 3;    // every 3rd data op fails once with EINTR
  plan.eagain_period = 7;   // every 7th read lies EAGAIN
  net::testing::ScopedSocketFault armed(plan);

  Client client(path());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.send_frame(
        request_payload("chaos-" + std::to_string(i), 0.05 + 0.05 * i)));
    report::Json doc;
    ASSERT_TRUE(client.recv_json(doc)) << "request " << i;
    EXPECT_EQ(id_of(doc), "chaos-" + std::to_string(i));
    EXPECT_EQ(status_of(doc), "ok");
  }
  EXPECT_GT(net::testing::op_count(), 0);
}

TEST_F(NetServerTest, SurvivesInjectedMidStreamResets) {
  start();
  {
    net::testing::SocketFaultPlan plan;
    plan.reset_after = 4;  // server-side I/O starts failing ECONNRESET/EPIPE
    net::testing::ScopedSocketFault armed(plan);
    Client victim(path());
    ASSERT_TRUE(victim.connected());
    for (int i = 0; i < 4; ++i)
      victim.send_frame(request_payload("reset-" + std::to_string(i)));
    // Give the event loop a chance to hit the injected reset.
    std::string payload;
    Client second(path());
    ASSERT_TRUE(second.connected());
    second.send_frame(request_payload("reset-second"));
    second.recv_frame(payload);  // outcome irrelevant: faults are armed
  }
  // Faults disarmed: the server must still be fully functional.
  Client after(path());
  ASSERT_TRUE(after.connected());
  ASSERT_TRUE(after.send_frame(request_payload("after-reset")));
  report::Json doc;
  ASSERT_TRUE(after.recv_json(doc));
  EXPECT_EQ(id_of(doc), "after-reset");
  EXPECT_EQ(status_of(doc), "ok");
}

// ---- determinism: the reply stream is a pure function of the request
// stream, at any thread count ---------------------------------------------

class NetDeterminismTest : public NetServerTest {
 protected:
  /// Serves the canonical pipelined burst and returns the connection's
  /// full reply byte stream.
  std::string reply_stream() {
    Client client(path());
    EXPECT_TRUE(client.connected());
    std::string burst;
    for (int i = 0; i < 6; ++i)
      burst += net::encode_frame(
          request_payload("det-" + std::to_string(i), 0.05 + 0.04 * i));
    burst += net::encode_frame("{broken json");       // inline error reply
    burst += net::encode_frame(request_payload("det-final", 0.42));
    EXPECT_TRUE(client.send_raw(burst));
    client.half_close();
    std::string stream;
    std::string payload;
    while (client.recv_frame(payload))
      stream += net::encode_frame(payload);  // re-framed == raw bytes read
    return stream;
  }
};

TEST_F(NetDeterminismTest, ReplyBytesIdenticalAtOneAndEightThreads) {
  const std::size_t restore = parallel::thread_count();

  parallel::set_thread_count(1);
  start();
  const std::string serial = reply_stream();
  stop();

  parallel::set_thread_count(8);
  start();
  const std::string threaded = reply_stream();
  stop();

  parallel::set_thread_count(restore);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
}

// ---- process isolation: the supervised worker-pool back end --------------

/// NetServerTest with the handler and health_source hooks wired to a real
/// supervise::WorkerPool — the exact dsmt_serve --isolate topology, with
/// crash chaos armed in the forked children only.
class NetIsolateTest : public NetServerTest {
 protected:
  /// Starts the server over a fresh two-worker fleet; requests whose id
  /// contains "poison" die in the child by SIGABRT.
  void start_isolated() {
    supervise::SuperviseConfig sup;
    sup.workers = 2;
    sup.service.publish_signoff = false;
    sup.sleep_on_restart_backoff = false;
    sup.publish_signoff = false;
    sup.poll_interval_ms = 5;
    sup.limits.child_fault = {numeric::fault::FaultKind::kCrashAbort,
                              "supervise/worker", 1, 10.0, "poison"};
    // Fork the fleet before the server's pool threads can exist.
    pool_ = std::make_unique<supervise::WorkerPool>(sup);
    ASSERT_GT(pool_->live_workers(), 0u);

    net::NetConfig config = fast_config();
    config.handler = [p = pool_.get()](const service::Request& request,
                                       std::uint64_t seq) {
      return p->execute(request, seq).frame;
    };
    config.health_source = [p = pool_.get()] {
      return report::Json::object().set("supervise", p->supervise_json());
    };
    start(std::move(config));
  }

  void TearDown() override {
    stop();
    if (pool_) pool_->shutdown();
  }

  std::unique_ptr<supervise::WorkerPool> pool_;
};

TEST_F(NetIsolateTest, WorkerDeathMidBurstYieldsOneTypedFrameEachInOrder) {
  start_isolated();
  Client client(path());
  ASSERT_TRUE(client.connected());

  // One pipelined burst: the middle request kills its worker child. The
  // connection must receive exactly one terminal frame per request, in
  // request order, and remain usable afterwards.
  std::string burst;
  burst += net::encode_frame(request_payload("iso-clean-0"));
  burst += net::encode_frame(request_payload("iso-poison"));
  burst += net::encode_frame(request_payload("iso-clean-1"));
  ASSERT_TRUE(client.send_raw(burst));

  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "iso-clean-0");
  EXPECT_EQ(status_of(doc), "ok");
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "iso-poison");
  EXPECT_EQ(status_of(doc), "worker-crashed");
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "iso-clean-1");
  EXPECT_EQ(status_of(doc), "ok");

  // Same connection, after the crash: still serving.
  ASSERT_TRUE(client.send_frame(request_payload("iso-after")));
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(id_of(doc), "iso-after");
  EXPECT_EQ(status_of(doc), "ok");

  const supervise::SuperviseStats stats = pool_->stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.replies, 3u);
}

TEST_F(NetIsolateTest, PingCarriesWorkerFleetHealthAndQuarantineTable) {
  start_isolated();
  Client client(path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(request_payload("iso-poison-ping")));
  report::Json doc;
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(status_of(doc), "worker-crashed");

  ASSERT_TRUE(client.send_frame("{\"kind\":\"ping\",\"id\":\"iso-health\"}"));
  ASSERT_TRUE(client.recv_json(doc));
  EXPECT_EQ(status_of(doc), "ok");
  const report::Json* supervise = doc.find("supervise");
  ASSERT_NE(supervise, nullptr);
  const report::Json* stats = supervise->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("crashes")->as_integer(), 1);
  ASSERT_NE(supervise->find("quarantine"), nullptr);
  EXPECT_EQ(supervise->find("quarantine")->size(), 1u);
}

/// Clean-lane determinism through the process boundary: the reply byte
/// stream of an isolate-mode server is identical at 1 and 8 pool threads —
/// the supervised path must not cost the wire-level guarantee.
TEST_F(NetIsolateTest, CleanReplyBytesIdenticalAtOneAndEightThreads) {
  const std::size_t restore = parallel::thread_count();
  auto reply_stream = [this] {
    Client client(path());
    EXPECT_TRUE(client.connected());
    std::string burst;
    for (int i = 0; i < 6; ++i)
      burst += net::encode_frame(
          request_payload("iso-det-" + std::to_string(i), 0.05 + 0.04 * i));
    EXPECT_TRUE(client.send_raw(burst));
    client.half_close();
    std::string stream;
    std::string payload;
    while (client.recv_frame(payload)) stream += net::encode_frame(payload);
    return stream;
  };

  parallel::set_thread_count(1);
  start_isolated();
  const std::string serial = reply_stream();
  stop();
  pool_->shutdown();

  parallel::set_thread_count(8);
  start_isolated();
  const std::string threaded = reply_stream();
  stop();

  parallel::set_thread_count(restore);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
}

}  // namespace
