// Result-cache integrity suite (ctest label `cache`): the durable
// content-addressed solve cache of src/cache/. Proves the contract the
// cache exists to keep: a hit's reply bytes are identical to the cold
// solve's at every thread count, including for requests that differ only
// past the 10th significant digit; concurrent misses on one key each answer
// the cold bytes and store the entry once; a flipped bit ANYWHERE in a
// segment file is quarantined, never served; torn tails are truncated and
// the file stays appendable; and a foreign schema stamp refuses the whole
// file. Mutates the global thread count, so it gets its own executable like
// the other chaos suites.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/entry.h"
#include "cache/segment.h"
#include "cache/solve_cache.h"
#include "parallel/parallel_for.h"
#include "service/request.h"
#include "service/server.h"

namespace dsmt::cache {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

/// A fresh cache directory under the test temp root; any segment left by a
/// previous run of the same test is removed so replay starts clean.
std::string cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dsmt_cache_" + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/solve.dsc").c_str());
  std::remove((dir + "/solve.dsc.refused").c_str());
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

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

CachedSolve sample_value(int i) {
  CachedSolve v;
  v.t_metal_k = 373.15 + i;
  v.delta_t_k = 4.25 + 0.5 * i;
  v.j_peak_A_m2 = 1.0e10 + 1.0e7 * i;
  v.j_rms_A_m2 = 3.0e9 + 1.0e6 * i;
  v.j_avg_A_m2 = 1.0e9 + 1.0e5 * i;
  v.residual = 1.0e-13 / (1 + i);
  v.iterations = 7 + i;
  return v;
}

bool bitwise_equal(const CachedSolve& a, const CachedSolve& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

service::ServerConfig quiet_config() {
  service::ServerConfig c;
  c.publish_signoff = false;
  return c;
}

// --- codec ------------------------------------------------------------------

TEST(Codec, PayloadRoundTripsBitwise) {
  const CachedSolve value = sample_value(3);
  const std::string key = "{\"duty_cycle\":0.25}";
  const std::string payload = encode_payload(key, value);
  std::string decoded_key;
  CachedSolve decoded;
  ASSERT_TRUE(decode_payload(payload, decoded_key, decoded));
  EXPECT_EQ(decoded_key, key);
  EXPECT_TRUE(bitwise_equal(decoded, value));
}

TEST(Codec, PayloadRejectsTruncationAndPadding) {
  const std::string payload = encode_payload("k", sample_value(0));
  std::string key;
  CachedSolve value;
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_FALSE(decode_payload(payload.substr(0, cut), key, value)) << cut;
  EXPECT_FALSE(decode_payload(payload + "x", key, value));
}

TEST(Codec, CanonicalKeyIgnoresRequestId) {
  service::Request a = wire_request("first");
  service::Request b = wire_request("second");
  EXPECT_EQ(canonical_key(a), canonical_key(b));
  b.duty_cycle = 0.11;
  EXPECT_NE(canonical_key(a), canonical_key(b));
}

// --- segment recovery -------------------------------------------------------

TEST(Segment, PersistsAcrossReconstruction) {
  SolveCacheConfig cfg;
  cfg.dir = cache_dir("persist");
  std::vector<std::string> keys;
  {
    SolveCache cache(cfg);
    for (int i = 0; i < 5; ++i) {
      keys.push_back("key-" + std::to_string(i));
      cache.publish(keys.back(), sample_value(i));
    }
    EXPECT_EQ(cache.stats().inserts, 5u);
  }
  SolveCache reloaded(cfg);
  const CacheStats s = reloaded.stats();
  EXPECT_EQ(s.loaded, 5u);
  EXPECT_EQ(s.entries, 5u);
  EXPECT_EQ(s.inserts, 0u);  // replayed entries are "loaded", not inserts
  for (int i = 0; i < 5; ++i) {
    CachedSolve hit;
    ASSERT_TRUE(reloaded.lookup(keys[static_cast<std::size_t>(i)], hit));
    EXPECT_TRUE(bitwise_equal(hit, sample_value(i)));
  }
}

TEST(Segment, EveryPossibleBitFlipIsQuarantinedNeverServed) {
  SolveCacheConfig cfg;
  cfg.dir = cache_dir("bitflip");
  std::vector<std::string> keys;
  {
    SolveCache cache(cfg);
    for (int i = 0; i < 4; ++i) {
      keys.push_back("bf-key-" + std::to_string(i));
      cache.publish(keys.back(), sample_value(i));
    }
  }
  const std::string path = cfg.dir + "/solve.dsc";
  const std::string pristine = read_file(path);
  ASSERT_GT(pristine.size(), 4u * kRecordHeaderBytes);

  // Flip one bit at EVERY byte position in turn. Whatever the flip hits —
  // magic, version, stamp, length, checksum, key, value — a lookup must
  // either miss (the caller then solves for real) or hit with the exact
  // original value. A served-but-wrong value is the one forbidden outcome.
  std::size_t served = 0, quarantined_files = 0;
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    write_file(path, corrupt);
    SolveCache cache(cfg);
    const CacheStats s = cache.stats();
    if (s.corrupt_quarantined > 0 || s.refused_stamp ||
        s.torn_truncated > 0)
      ++quarantined_files;
    for (int i = 0; i < 4; ++i) {
      CachedSolve hit;
      if (cache.lookup(keys[static_cast<std::size_t>(i)], hit)) {
        ASSERT_TRUE(bitwise_equal(hit, sample_value(i)))
            << "corrupted value served: flipped byte " << pos;
        ++served;
      }
    }
    // The cache must stay usable after any corruption: a fresh publish
    // and verified read-back must work.
    cache.publish("fresh", sample_value(9));
    CachedSolve fresh;
    ASSERT_TRUE(cache.lookup("fresh", fresh)) << "flipped byte " << pos;
    ASSERT_TRUE(bitwise_equal(fresh, sample_value(9)));
  }
  // Sanity: the sweep really did both things — served verified survivors
  // and detected damage (every flip lands in some record's span).
  EXPECT_GT(served, 0u);
  EXPECT_EQ(quarantined_files, pristine.size());
  write_file(path, pristine);
}

TEST(Segment, TornTailIsTruncatedAndFileStaysAppendable) {
  SolveCacheConfig cfg;
  cfg.dir = cache_dir("torn");
  {
    SolveCache cache(cfg);
    for (int i = 0; i < 3; ++i)
      cache.publish("torn-" + std::to_string(i), sample_value(i));
  }
  const std::string path = cfg.dir + "/solve.dsc";
  const std::string pristine = read_file(path);
  // Tear the last record mid-payload, as a crash between write and fsync
  // would.
  write_file(path, pristine.substr(0, pristine.size() - 10));
  {
    SolveCache cache(cfg);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.loaded, 2u);
    EXPECT_EQ(s.torn_truncated, 1u);
    EXPECT_GT(s.bytes_truncated, 0u);
    // The repaired file accepts appends at the truncated end.
    cache.publish("torn-replacement", sample_value(5));
  }
  SolveCache reloaded(cfg);
  EXPECT_EQ(reloaded.stats().loaded, 3u);
  EXPECT_EQ(reloaded.stats().torn_truncated, 0u);
  CachedSolve hit;
  EXPECT_TRUE(reloaded.lookup("torn-replacement", hit));
  EXPECT_TRUE(bitwise_equal(hit, sample_value(5)));
}

TEST(Segment, ForeignSchemaStampRefusesWholeFile) {
  SolveCacheConfig cfg;
  cfg.dir = cache_dir("stamp");
  cfg.schema_stamp = 0x1111;
  {
    SolveCache cache(cfg);
    cache.publish("stamped", sample_value(1));
  }
  SolveCacheConfig other = cfg;
  other.schema_stamp = 0x2222;
  SolveCache refused(other);
  const CacheStats s = refused.stats();
  EXPECT_TRUE(s.refused_stamp);
  EXPECT_EQ(s.loaded, 0u);
  CachedSolve hit;
  EXPECT_FALSE(refused.lookup("stamped", hit));
  // The foreign file was set aside, not deleted, and the new-stamp cache
  // starts its own segment in its place.
  struct stat st;
  EXPECT_EQ(::stat((cfg.dir + "/solve.dsc.refused").c_str(), &st), 0);
  refused.publish("restamped", sample_value(2));
  SolveCache reloaded(other);
  EXPECT_EQ(reloaded.stats().loaded, 1u);
  EXPECT_FALSE(reloaded.stats().refused_stamp);
}

// --- eviction ---------------------------------------------------------------

TEST(Eviction, FifoBoundsResidencyPerShard) {
  SolveCacheConfig cfg;
  cfg.shards = 1;
  cfg.max_entries = 4;
  SolveCache cache(cfg);
  for (int i = 0; i < 10; ++i)
    cache.publish("evict-" + std::to_string(i), sample_value(i));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 4u);
  EXPECT_EQ(s.evictions, 6u);
  // Oldest gone, newest resident.
  CachedSolve hit;
  EXPECT_FALSE(cache.lookup("evict-0", hit));
  EXPECT_TRUE(cache.lookup("evict-9", hit));
}

// --- end-to-end byte identity ----------------------------------------------

std::vector<service::Request> identity_requests() {
  std::vector<service::Request> batch;
  for (int i = 0; i < 8; ++i)
    batch.push_back(wire_request("ident-" + std::to_string(i),
                                 0.05 + 0.01 * i));
  service::Request cell;
  cell.id = "ident-cell";
  cell.kind = service::RequestKind::kTableCell;
  cell.technology = "NTRS-250nm-Cu";
  cell.level = 2;
  cell.duty_cycle = 1.0;
  batch.push_back(cell);
  // A full-precision client's 0.1 + 0.2 (0.30000000000000004) and a
  // literal 0.3 agree to 16 digits but not bit for bit: they must not
  // share a cache entry.
  batch.push_back(wire_request("ident-sum", 0.1 + 0.2));
  batch.push_back(wire_request("ident-literal", 0.3));
  return batch;
}

std::vector<std::string> serve_bytes(service::Server& server,
                                     const std::vector<service::Request>& rs) {
  std::vector<std::string> bytes;
  bytes.reserve(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i)
    bytes.push_back(service::response_to_json(server.handle(rs[i], i))
                        .dump(-1));
  return bytes;
}

TEST(ByteIdentity, WarmHitEqualsColdSolveAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::vector<service::Request> requests = identity_requests();
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    parallel::set_thread_count(threads);
    // Cold reference: no cache attached at all.
    service::Server bare(quiet_config());
    const std::vector<std::string> cold = serve_bytes(bare, requests);

    service::ServerConfig cfg = quiet_config();
    cfg.solve_cache = std::make_shared<SolveCache>(SolveCacheConfig{});
    service::Server cached(cfg);
    // First pass misses (and publishes); second pass hits.
    const std::vector<std::string> miss_pass = serve_bytes(cached, requests);
    const std::vector<std::string> hit_pass = serve_bytes(cached, requests);
    EXPECT_EQ(cold, miss_pass) << "threads=" << threads;
    EXPECT_EQ(cold, hit_pass) << "threads=" << threads;
    const CacheStats s = cfg.solve_cache->stats();
    EXPECT_GT(s.hits, 0u) << "threads=" << threads;
    EXPECT_EQ(s.corrupt_quarantined, 0u);
  }
}

TEST(ByteIdentity, ConcurrentColdMissesMatchUncachedBytesAndStoreOnce) {
  // Eight threads miss on one key at once and each one solves. Every reply
  // must still be the uncached bytes, and the entry is stored once: the
  // later publishes find it resident and append nothing.
  const service::Request request = wire_request("concurrent", 0.17);
  service::Server bare(quiet_config());
  const std::string cold =
      service::response_to_json(bare.handle(request)).dump(-1);

  SolveCacheConfig cache_config;
  cache_config.dir = cache_dir("concurrent");
  service::ServerConfig cfg = quiet_config();
  cfg.solve_cache = std::make_shared<SolveCache>(cache_config);
  constexpr int kThreads = 8;
  std::vector<std::string> replies(kThreads);
  {
    service::Server cached(cfg);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        replies[static_cast<std::size_t>(t)] =
            service::response_to_json(cached.handle(request)).dump(-1);
      });
    go.store(true);
    for (std::thread& t : threads) t.join();
  }
  for (const std::string& reply : replies) EXPECT_EQ(reply, cold);
  EXPECT_EQ(cfg.solve_cache->stats().inserts, 1u);

  cfg.solve_cache.reset();  // close the segment before replaying it
  SolveCache reopened(cache_config);
  EXPECT_EQ(reopened.stats().loaded, 1u);
}

// --- observability ----------------------------------------------------------

TEST(Observability, ServiceJsonReportsSolveCacheSection) {
  service::ServerConfig cfg = quiet_config();
  cfg.solve_cache = std::make_shared<SolveCache>(SolveCacheConfig{});
  service::Server server(cfg);
  for (const service::Request& request : identity_requests())
    (void)server.handle(request);

  const report::Json doc = server.service_json();
  const report::Json* cache_node = doc.find("cache");
  ASSERT_NE(cache_node, nullptr);
  const report::Json* solve = cache_node->find("solve");
  ASSERT_NE(solve, nullptr);
  for (const char* field :
       {"hits", "misses", "inserts", "evictions", "corrupt_quarantined",
        "entries", "bytes", "loaded", "torn_truncated", "refused_stamp",
        "durable"})
    EXPECT_NE(solve->find(field), nullptr) << field;

  // Without an attached solve cache there is no cache to report.
  service::Server bare(quiet_config());
  EXPECT_EQ(bare.service_json().find("cache"), nullptr);
}

}  // namespace
}  // namespace dsmt::cache
