// Child processes of the benchmark: the server under test.
//
// A Child owns one spawned process until it has been reaped. The destructor
// SIGKILLs and reaps a child still running, so no error path of the
// benchmark can leave a server behind.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perf {

struct Exit {
  bool exited = false;   ///< reaped at all
  int code = -1;         ///< exit code, or -1 when killed by a signal
  int signal = 0;        ///< terminating signal, 0 when it exited
  double rss_mb = 0.0;   ///< peak resident set [MiB] (wait4 ru_maxrss)
  std::int64_t end_ns = 0;  ///< monotonic time the reap returned
  bool timed_out = false;   ///< killed because it outlived the deadline
};

class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Spawns argv[0] (a path) with DSMT_THREADS set to `threads`, stdin
  /// from /dev/null, stdout written and stderr appended to the given files,
  /// on the placement's server CPUs. Returns false when the spawn failed.
  bool spawn(const std::vector<std::string>& argv, int threads,
             const std::string& stdout_path, const std::string& stderr_path);

  bool running() const { return pid_ > 0; }
  /// Monotonic time of the last spawn's fork: set-up is timed from here.
  std::int64_t start_ns() const { return start_ns_; }

  /// Sends SIGTERM (the server's graceful drain).
  void terminate();

  /// Blocks until the child exits, SIGKILLs it at `deadline_ns` (monotonic)
  /// if it has not, and reaps it.
  Exit wait(std::int64_t deadline_ns);

 private:
  pid_t pid_ = -1;
  std::int64_t start_ns_ = 0;
};

/// CPU placement of a run: the server (and every process it forks) on all
/// allowed CPUs but the last, the load generator's threads on the last one.
/// The generator then never takes a CPU from the server, and each thread
/// wakes on the same CPUs run after run instead of wherever the scheduler
/// last left it. With fewer than three CPUs nothing is pinned.
struct Placement {
  bool pinned = false;
  std::vector<int> server;
  std::vector<int> client;
};
const Placement& placement();
/// Pins the calling thread to the generator's CPU (no-op when unpinned).
void pin_to_client();
/// "0,1,2|3" (server CPUs | generator CPU) or "unpinned", for the
/// provenance.
std::string describe(const Placement& p);

/// Runs work(begin, end) over contiguous slices of [0, n) on up to four
/// threads and waits for them. For set-up and verification, never while a
/// window is measured.
void split_work(std::size_t n,
                const std::function<void(std::size_t, std::size_t)>& work);

/// Reads a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string& out);
/// Writes a whole file; false on any error.
bool write_file(const std::string& path, const std::string& text);
/// mkdir -p.
bool make_dirs(const std::string& path);
/// rm -rf; a missing path is not an error.
void remove_tree(const std::string& path);

}  // namespace perf
