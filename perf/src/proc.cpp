#include "proc.h"

#include <errno.h>
#include <fcntl.h>
#include <ftw.h>
#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "metrics.h"

extern char** environ;

namespace perf {

Child::~Child() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

bool Child::spawn(const std::vector<std::string>& argv, int threads,
                  const std::string& stdout_path,
                  const std::string& stderr_path) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "DSMT_THREADS=", 13) != 0) env.emplace_back(*e);
  env.push_back("DSMT_THREADS=" + std::to_string(threads));
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argp;
  for (std::string& a : args) argp.push_back(a.data());
  argp.push_back(nullptr);

  const int in = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const int out = ::open(stdout_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int err = ::open(stderr_path.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const Placement& where = placement();
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  for (const int cpu : where.server) CPU_SET(cpu, &cpus);
  const pid_t parent = ::getpid();
  // The peak RSS wait4 reports counts the pages the child shares with this
  // process until it execs. Freed heap goes back to the kernel first, so
  // that share stays below any server's own peak.
  ::malloc_trim(0);
  pid_t pid = -1;
  start_ns_ = now_ns();
  if (in >= 0 && out >= 0 && err >= 0) pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. A benchmark that
    // dies must not leave a server listening: the kernel kills the child
    // with its parent.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (where.pinned) ::sched_setaffinity(0, sizeof cpus, &cpus);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execve(argp[0], argp.data(), envp.data());
    ::_exit(127);
  }
  for (const int fd : {in, out, err})
    if (fd >= 0) ::close(fd);
  if (pid < 0) return false;
  pid_ = pid;
  return true;
}

void Child::terminate() {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
}

Exit Child::wait(std::int64_t deadline_ns) {
  Exit out;
  if (pid_ <= 0) return out;
  // Waits on a pidfd until the deadline, so a wedged or stopped child cannot
  // hang the benchmark; past it the child is killed.
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
  if (pidfd >= 0) {
    pollfd pfd{pidfd, POLLIN, 0};
    for (;;) {
      const std::int64_t left_ms = (deadline_ns - now_ns()) / 1'000'000;
      if (left_ms <= 0) {
        out.timed_out = true;
        break;
      }
      const int r = ::poll(&pfd, 1, static_cast<int>(left_ms));
      if (r > 0 || (r < 0 && errno != EINTR)) break;
    }
    ::close(pidfd);
  }
  if (out.timed_out) ::kill(pid_, SIGKILL);
  int status = 0;
  rusage usage;
  std::memset(&usage, 0, sizeof usage);
  pid_t got = -1;
  while ((got = ::wait4(pid_, &status, 0, &usage)) < 0 && errno == EINTR) {
  }
  out.end_ns = now_ns();
  pid_ = -1;
  if (got < 0) return out;
  out.exited = true;
  if (WIFEXITED(status)) out.code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) out.signal = WTERMSIG(status);
  out.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

const Placement& placement() {
  static const Placement p = [] {
    Placement out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return out;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    if (cpus.size() < 3) return out;
    out.pinned = true;
    out.client.push_back(cpus.back());
    cpus.pop_back();
    out.server = cpus;
    return out;
  }();
  return p;
}

void pin_to_client() {
  const Placement& where = placement();
  if (!where.pinned) return;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  for (const int cpu : where.client) CPU_SET(cpu, &cpus);
  ::sched_setaffinity(0, sizeof cpus, &cpus);
}

std::string describe(const Placement& p) {
  if (!p.pinned) return "unpinned";
  std::string out;
  for (const int cpu : p.server) {
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  out += '|';
  for (const int cpu : p.client) out += std::to_string(cpu);
  return out;
}

void split_work(std::size_t n,
                const std::function<void(std::size_t, std::size_t)>& work) {
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  const std::size_t chunk = (n + threads - 1) / threads;
  std::vector<std::thread> pool;
  for (std::size_t begin = 0; begin < n; begin += chunk)
    pool.emplace_back(work, begin, std::min(n, begin + chunk));
  for (std::thread& t : pool) t.join();
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

bool make_dirs(const std::string& path) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    prefix = path.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

void remove_tree(const std::string& path) {
  ::nftw(
      path.c_str(),
      [](const char* entry, const struct stat*, int, FTW*) {
        ::remove(entry);
        return 0;
      },
      16, FTW_DEPTH | FTW_PHYS);
}

}  // namespace perf
