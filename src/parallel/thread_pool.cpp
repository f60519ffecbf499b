#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace dsmt::parallel {

namespace {

thread_local bool t_on_worker = false;
thread_local int t_region_depth = 0;

// Queue bound and its observability counters. The bound is read per
// submission (no pool rebuild needed); the counters are monotonic across
// rebuilds so callers can watch bursts drain through a bounded window.
std::atomic<std::size_t> g_queue_high_water{kDefaultQueueHighWater};
std::atomic<std::uint64_t> g_tasks_drained{0};
std::atomic<std::size_t> g_queue_peak_depth{0};

void note_queue_depth(std::size_t depth) {
  std::size_t peak = g_queue_peak_depth.load(std::memory_order_relaxed);
  while (depth > peak &&
         !g_queue_peak_depth.compare_exchange_weak(
             peak, depth, std::memory_order_relaxed)) {
  }
}

std::size_t env_thread_count() {
  // getenv is listed by concurrency-mt-unsafe because it races with
  // setenv/putenv; the library never writes the environment, and POSIX
  // guarantees concurrent reads are safe.
  const char* env = std::getenv("DSMT_THREADS");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1)
      return std::min<std::size_t>(static_cast<std::size_t>(v), 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

class Pool {
 public:
  explicit Pool(std::size_t n) {
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~Pool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    not_full_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> task) DSMT_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      // Blocking producer: wait for the queue to dip below the high-water
      // mark. Workers only ever shrink the queue, so this cannot deadlock;
      // on shutdown the wait is released and the task is still accepted
      // (the destructor drains whatever remains). Predicate loop, not a
      // lambda: the analysis then sees the guarded reads under the lock.
      while (!stop_ &&
             queue_.size() >=
                 g_queue_high_water.load(std::memory_order_relaxed))
        not_full_cv_.wait(mu_);
      queue_.push_back(std::move(task));
      note_queue_depth(queue_.size());
    }
    cv_.notify_one();
  }

 private:
  void worker_loop() DSMT_EXCLUDES(mu_) {
    t_on_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!stop_ && queue_.empty()) cv_.wait(mu_);
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
        g_tasks_drained.fetch_add(1, std::memory_order_relaxed);
      }
      not_full_cv_.notify_one();
      task();
    }
  }

  Mutex mu_;
  CondVar cv_;
  CondVar not_full_cv_;
  std::deque<std::function<void()>> queue_ DSMT_GUARDED_BY(mu_);
  bool stop_ DSMT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // R10-ok: filled in the constructor,
                                      // joined in the destructor; workers
                                      // never touch the vector itself
};

// The global pool and its configuration. The pool pointer is guarded by
// g_config_mu and only changes while no parallel region is active
// (set_thread_count's contract), so tasks never observe a pool being torn
// down under them. The thread count is resolved once — at first use, or
// by set_thread_count — and read lock-free after that: resolving costs a
// getenv and, without DSMT_THREADS, a CPU count that glibc reads from
// /sys, several microseconds that every pool submission and every solve
// would otherwise pay.
Mutex g_config_mu;  // NOLINT(cert-err58-cpp)
Pool* g_pool DSMT_GUARDED_BY(g_config_mu) = nullptr;
std::atomic<std::size_t> g_count{0};  // 0 = not resolved yet

/// The configured count, resolving the default on first use.
std::size_t resolved_count() {
  const std::size_t n = g_count.load();
  if (n != 0) return n;
  MutexLock lock(g_config_mu);
  if (g_count.load() == 0) g_count.store(env_thread_count());
  return g_count.load();
}

Pool& pool() DSMT_EXCLUDES(g_config_mu) {
  const std::size_t want = resolved_count();
  MutexLock lock(g_config_mu);
  if (g_pool == nullptr || g_pool->size() != want) {
    delete g_pool;
    g_pool = nullptr;  // keep the pointer sane if Pool's ctor throws
    g_pool = new Pool(want);
  }
  return *g_pool;
}

}  // namespace

std::size_t thread_count() { return resolved_count(); }

void set_thread_count(std::size_t n) {
  MutexLock lock(g_config_mu);
  g_count.store(n > 0 ? n : env_thread_count());
  // The pool is rebuilt lazily on next use; deleting here while idle keeps
  // stale workers from outliving a test that shrank the count.
  delete g_pool;
  g_pool = nullptr;
}

bool on_worker_thread() { return t_on_worker; }

bool in_parallel_region() { return t_region_depth > 0; }

namespace detail {

RegionGuard::RegionGuard() { ++t_region_depth; }
RegionGuard::~RegionGuard() { --t_region_depth; }

std::vector<int> block_cpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2)
    return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  const auto here = std::find(cpus.begin(), cpus.end(), ::sched_getcpu());
  if (here != cpus.end()) std::rotate(cpus.begin(), here, cpus.end());
  return cpus;
}

namespace {

/// Saves the calling thread's mask into `saved` and runs the thread on
/// `cpu` alone; false (nothing to restore) when cpu < 0 or a call fails.
bool pin_to(int cpu, cpu_set_t& saved) {
  CPU_ZERO(&saved);
  if (cpu < 0 || ::sched_getaffinity(0, sizeof saved, &saved) != 0)
    return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(0, sizeof one, &one) == 0;
}

}  // namespace

ScopedPin::ScopedPin(int cpu) : saved_(), pinned_(pin_to(cpu, saved_)) {}

ScopedPin::~ScopedPin() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

}  // namespace detail

std::size_t queue_high_water() {
  return g_queue_high_water.load(std::memory_order_relaxed);
}

void set_queue_high_water(std::size_t n) {
  g_queue_high_water.store(std::max<std::size_t>(n, 1),
                           std::memory_order_relaxed);
}

std::uint64_t tasks_drained() {
  return g_tasks_drained.load(std::memory_order_relaxed);
}

std::size_t queue_peak_depth() {
  return g_queue_peak_depth.load(std::memory_order_relaxed);
}

void pool_submit(std::function<void()> task) { pool().submit(std::move(task)); }

}  // namespace dsmt::parallel
