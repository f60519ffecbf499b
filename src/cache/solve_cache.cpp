#include "cache/solve_cache.h"

#include <algorithm>
#include <utility>

#include "cache/fnv.h"

namespace dsmt::cache {

SolveCache::SolveCache(SolveCacheConfig config)
    : config_(std::move(config)),
      schema_stamp_(config_.schema_stamp != 0 ? config_.schema_stamp
                                              : default_schema_stamp()),
      per_shard_cap_(
          std::max<std::size_t>(1, config_.max_entries /
                                       std::max<std::size_t>(
                                           1, config_.shards))) {
  const std::size_t shard_count = std::max<std::size_t>(1, config_.shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());

  if (config_.dir.empty()) return;
  const std::string path = config_.dir + "/solve.dsc";
  // Constructor runs in a single-threaded window (like WorkerPool's): the
  // replay and the stats snapshot need no locks, but install() is reused,
  // so take each shard's lock anyway to keep the annotations honest.
  load_ = load_segment(path, schema_stamp_,
                       [this](std::string key, const CachedSolve& value) {
                         Entry entry;
                         entry.payload = encode_payload(key, value);
                         entry.checksum = fnv1a(entry.payload);
                         Shard& shard = shard_for(key);
                         MutexLock lock(shard.mu);
                         install(shard, key, std::move(entry));
                       });
  corrupt_quarantined_.fetch_add(load_.corrupt_quarantined,
                                 std::memory_order_relaxed);
  // Replay reuses install(), which counts inserts; "inserts" means entries
  // PUBLISHED this process ("loaded" owns the replayed ones), so reset.
  inserts_.store(0, std::memory_order_relaxed);
  // Open for appending AFTER recovery truncated any torn tail, so new
  // records land at the repaired end.
  MutexLock lock(segment_mu_);
  log_ = std::make_unique<core::AppendLog>(path);
}

SolveCache::~SolveCache() = default;

SolveCache::Shard& SolveCache::shard_for(const std::string& key) {
  return *shards_[fnv1a(key) % shards_.size()];
}

bool SolveCache::install(Shard& shard, const std::string& key, Entry entry) {
  const std::size_t entry_bytes = entry.payload.size();
  auto [at, inserted] = shard.entries.try_emplace(key, std::move(entry));
  if (!inserted) return false;  // first writer wins; values are identical
  shard.order.push_back(key);
  entries_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  while (shard.entries.size() > per_shard_cap_ &&
         shard.evict_head < shard.order.size()) {
    const std::string victim = shard.order[shard.evict_head++];
    const auto victim_it = shard.entries.find(victim);
    if (victim_it == shard.entries.end()) continue;  // already quarantined
    bytes_.fetch_sub(victim_it->second.payload.size(),
                     std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.entries.erase(victim_it);
  }
  // Compact the FIFO ring once the dead prefix dominates it.
  if (shard.evict_head > 64 && shard.evict_head * 2 > shard.order.size()) {
    shard.order.erase(shard.order.begin(),
                      shard.order.begin() +
                          static_cast<std::ptrdiff_t>(shard.evict_head));
    shard.evict_head = 0;
  }
  return true;
}

bool SolveCache::verified_get(Shard& shard, const std::string& key,
                              CachedSolve& out) {
  const auto at = shard.entries.find(key);
  if (at == shard.entries.end()) return false;
  const Entry& entry = at->second;
  std::string decoded_key;
  CachedSolve value;
  if (fnv1a(entry.payload) == entry.checksum &&
      decode_payload(entry.payload, decoded_key, value) &&
      decoded_key == key) {
    out = value;
    return true;
  }
  // The entry lied — resident corruption or a decode the segment loader
  // missed. Quarantine: count, evict, and let the caller solve for real.
  bytes_.fetch_sub(entry.payload.size(), std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  corrupt_quarantined_.fetch_add(1, std::memory_order_relaxed);
  shard.entries.erase(at);
  return false;
}

bool SolveCache::lookup(const std::string& key, CachedSolve& out) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  if (verified_get(shard, key, out)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SolveCache::publish(const std::string& key, const CachedSolve& value) {
  const std::string payload = encode_payload(key, value);
  Entry entry;
  entry.payload = payload;
  entry.checksum = fnv1a(payload);
  bool newly_inserted = false;
  {
    Shard& shard = shard_for(key);
    MutexLock lock(shard.mu);
    newly_inserted = install(shard, key, std::move(entry));
  }
  if (!newly_inserted) return;  // already durable (or a duplicate racer)
  // Shard lock released before the level-1 segment lock: the fsync'd
  // append must never stall readers of the shard.
  MutexLock lock(segment_mu_);
  if (log_ != nullptr) log_->append(encode_record(payload, schema_stamp_));
}

CacheStats SolveCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.corrupt_quarantined =
      corrupt_quarantined_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.loaded = load_.entries_loaded;
  s.torn_truncated = load_.torn_truncated;
  s.bytes_truncated = load_.bytes_truncated;
  s.refused_stamp = load_.refused_stamp;
  return s;
}

report::Json SolveCache::cache_json() const {
  using report::Json;
  const CacheStats s = stats();
  Json out = Json::object();
  out.set("hits", Json::integer(static_cast<long long>(s.hits)))
      .set("misses", Json::integer(static_cast<long long>(s.misses)))
      .set("inserts", Json::integer(static_cast<long long>(s.inserts)))
      .set("evictions", Json::integer(static_cast<long long>(s.evictions)))
      .set("corrupt_quarantined",
           Json::integer(static_cast<long long>(s.corrupt_quarantined)))
      .set("entries", Json::integer(static_cast<long long>(s.entries)))
      .set("bytes", Json::integer(static_cast<long long>(s.bytes)))
      .set("loaded", Json::integer(static_cast<long long>(s.loaded)))
      .set("torn_truncated",
           Json::integer(static_cast<long long>(s.torn_truncated)))
      .set("refused_stamp", Json::boolean(s.refused_stamp))
      .set("durable", Json::boolean(!config_.dir.empty()));
  return out;
}

}  // namespace dsmt::cache
