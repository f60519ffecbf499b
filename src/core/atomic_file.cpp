#include "core/atomic_file.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace dsmt::core {

namespace {

/// Unique-within-process temp name next to the target, so rename(2) stays on
/// one filesystem and concurrent writers (threads emitting different files)
/// cannot collide.
std::string temp_name_for(const std::string& path) {
  static std::atomic<unsigned> seq{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("atomic_write_file: " + what + " for " + path);
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = temp_name_for(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create temp file", tmp);

  std::size_t off = 0;
  while (off < content.size()) {
    const ::ssize_t n =
        ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      fail("write failed", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  // Data must be durable before the rename makes it reachable — otherwise a
  // crash could leave the *new* name pointing at missing blocks.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("fsync failed", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("close failed", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("rename failed", path);
  }
  // Make the rename itself durable: without a directory fsync the new name
  // lives only in the in-memory dentry cache, and a power cut after "success"
  // can roll the file back to its previous content — exactly the window a
  // reader of a finished emit trusts to be closed. Failures here are real
  // failures (the caller was promised durability), except EINVAL/ENOTSUP
  // from filesystems that cannot fsync directories, where the content fsync
  // above is the best the platform offers.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  int dfd = -1;
  do {
    dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (dfd < 0 && errno == EINTR);
  // Some filesystems refuse to open (or fsync) directories at all. The
  // rename has already landed and the content fsync ran, so a refused
  // directory handle downgrades the rename's durability to the platform's
  // best effort — it must not turn a write that succeeded into a
  // caller-visible failure.
  if (dfd < 0) return;
  int rc = 0;
  do {
    rc = ::fsync(dfd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINVAL && errno != ENOTSUP) {
    ::close(dfd);
    fail("parent directory fsync failed", dir);
  }
  ::close(dfd);
}

AppendLog::AppendLog(std::string path) : path_(std::move(path)) {
  do {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  } while (fd_ < 0 && errno == EINTR);
}

AppendLog::~AppendLog() { disable(); }

void AppendLog::disable() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool AppendLog::append(const std::string& record) {
  if (fd_ < 0) return false;
  // One write(2) call per record when the kernel cooperates; O_APPEND makes
  // each write land atomically at the current end even with concurrent
  // appenders. A short write (disk full, signal after partial progress) is
  // continued — the reader's checksums own torn-record detection, the
  // writer's job is only to never interleave two records.
  std::size_t off = 0;
  while (off < record.size()) {
    const ::ssize_t n =
        ::write(fd_, record.data() + off, record.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      disable();
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  int rc = 0;
  do {
    rc = ::fsync(fd_);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINVAL && errno != ENOTSUP) {
    disable();
    return false;
  }
  return true;
}

bool truncate_file_to(const std::string& path, std::uint64_t size) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  int rc = 0;
  do {
    rc = ::ftruncate(fd, static_cast<::off_t>(size));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return false;
  }
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  ::close(fd);
  return rc == 0 || errno == EINVAL || errno == ENOTSUP;
}

void AtomicFile::commit() {
  if (committed_)
    throw std::logic_error("AtomicFile: commit() called twice for " + path_);
  atomic_write_file(path_, buffer_.str());
  committed_ = true;
}

}  // namespace dsmt::core
