// Content-addressed solve cache: sharded and durable.
//
// The map is deterministically sharded — shard = fnv1a(key) % shards, a
// pure function of the canonical request — so which lock a request takes
// never depends on thread count or arrival order, and replies stay
// byte-identical at every DSMT_THREADS (a hit and a miss produce the same
// bytes by construction).
//
// The cache never waits on a solve: lookup() answers from what is resident
// and publish() installs a finished one. Two concurrent misses on one key
// both solve; their values are identical, the first install wins, and the
// second publish appends nothing.
//
// Integrity: entries are stored as encoded payload bytes plus their FNV-1a
// digest, and EVERY hit re-verifies the digest and re-decodes before
// serving — a flipped bit in resident memory or a corrupt entry slipped
// into the segment is quarantined (counted, evicted) and the request falls
// back to a full solve. The durable form is an append-only segment file
// (cache/segment.h) replayed at construction under the recovery policy
// documented there.
//
// Lock hierarchy (DESIGN.md §7): shard mutexes are LEVEL 0 leaf locks —
// never held across a wait, I/O or a callback; the segment append mutex is
// LEVEL 1 — held across the fsync'd append, never while holding a shard
// lock (publish releases the shard before appending).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/entry.h"
#include "cache/segment.h"
#include "core/atomic_file.h"
#include "core/thread_annotations.h"
#include "report/json.h"

namespace dsmt::cache {

struct SolveCacheConfig {
  /// Directory for the segment file; empty = memory-only cache.
  std::string dir;
  std::size_t shards = 8;
  /// Total resident entries across shards; per-shard FIFO eviction.
  std::size_t max_entries = 65536;
  /// Physics-schema stamp for segment records; 0 = default_schema_stamp().
  std::uint64_t schema_stamp = 0;
};

/// Monotonic counters since construction (snapshot).
struct CacheStats {
  std::uint64_t hits = 0;        ///< verified entries served
  std::uint64_t misses = 0;      ///< lookups that found no verified entry
  std::uint64_t inserts = 0;     ///< entries published
  std::uint64_t evictions = 0;   ///< FIFO capacity evictions
  /// Entries never served because their checksum or structure failed —
  /// resident verify failures plus segment-load quarantines.
  std::uint64_t corrupt_quarantined = 0;
  std::uint64_t entries = 0;  ///< resident now
  std::uint64_t bytes = 0;    ///< resident payload bytes now
  // Segment recovery outcome (set once at construction).
  std::uint64_t loaded = 0;           ///< entries replayed from disk
  std::uint64_t torn_truncated = 0;   ///< tail truncation events
  std::uint64_t bytes_truncated = 0;
  bool refused_stamp = false;         ///< segment refused: schema mismatch
};

class SolveCache {
 public:
  explicit SolveCache(SolveCacheConfig config);
  ~SolveCache();
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Verified lookup: true with `out` set on a hit. A resident entry that
  /// fails verification is quarantined and reads as a miss.
  bool lookup(const std::string& key, CachedSolve& out);

  /// Installs (key, value) and appends it to the segment. A key already
  /// resident keeps its entry and appends nothing.
  void publish(const std::string& key, const CachedSolve& value);

  CacheStats stats() const;
  /// The "cache.solve" observability section (ping + sign-off).
  report::Json cache_json() const;
  const SolveCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string payload;     ///< encode_payload(key, value) bytes
    std::uint64_t checksum;  ///< fnv1a(payload), re-verified on every hit
  };
  struct Shard {
    mutable Mutex mu;
    std::map<std::string, Entry> entries DSMT_GUARDED_BY(mu);
    /// FIFO eviction order: keys in insert order, head index advances on
    /// eviction, compacted periodically.
    std::vector<std::string> order DSMT_GUARDED_BY(mu);
    std::size_t evict_head DSMT_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const std::string& key);
  /// Installs the entry into `shard` (caller holds its lock) and evicts
  /// FIFO over capacity. Returns true when the key was newly inserted.
  bool install(Shard& shard, const std::string& key, Entry entry)
      DSMT_REQUIRES(shard.mu);
  /// Verifies + decodes a resident entry; quarantines it on mismatch.
  bool verified_get(Shard& shard, const std::string& key, CachedSolve& out)
      DSMT_REQUIRES(shard.mu);

  const SolveCacheConfig config_;
  const std::uint64_t schema_stamp_;
  const std::size_t per_shard_cap_;
  // R10-ok: sized once in the constructor and never resized; all mutable
  // state lives inside each Shard under its own mutex.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Counters are atomics: bumped under shard locks or none at all, read
  // lock-free by stats().
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> corrupt_quarantined_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> bytes_{0};

  // R10-ok: segment recovery outcome, written once in the constructor's
  // single-threaded window and read-only afterwards.
  SegmentLoadStats load_;

  /// LEVEL 1: held across the fsync'd segment append; never acquired while
  /// holding a shard lock.
  Mutex segment_mu_;
  std::unique_ptr<core::AppendLog> log_ DSMT_GUARDED_BY(segment_mu_);
};

}  // namespace dsmt::cache
