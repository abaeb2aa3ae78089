#include "hwstar/dur/file_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "hwstar/common/random.h"

namespace hwstar::dur {

const char* SyncModeName(SyncMode mode) {
  switch (mode) {
    case SyncMode::kNone:
      return "none";
    case SyncMode::kFdatasync:
      return "fdatasync";
    case SyncMode::kFsync:
      return "fsync";
  }
  return "unknown";
}

namespace {

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::IoError(std::string(op) + " failed for '" + path +
                         "': " + std::strerror(errno));
}

/// fsyncs the directory containing `path_in_dir`. Creating, renaming, or
/// unlinking a file only mutates the directory entry in memory; until the
/// directory itself is synced, a crash can lose or reorder those entries
/// even though the file *contents* were fdatasync'd — the standard WAL
/// discipline (LevelDB/RocksDB/SQLite all do this).
Status SyncDir(const std::string& path_in_dir) {
  namespace fs = std::filesystem;
  const fs::path p(path_in_dir);
  const std::string dir =
      p.has_parent_path() ? p.parent_path().string() : std::string(".");
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open(dir)", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync(dir)", dir);
  return Status::OK();
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t len) override {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    size_t remaining = len;
    while (remaining > 0) {
      const ssize_t n = ::write(fd_, p, remaining);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path_);
      }
      p += n;
      remaining -= static_cast<size_t>(n);
    }
    size_ += len;
    return Status::OK();
  }

  Status Sync(SyncMode mode) override {
    switch (mode) {
      case SyncMode::kNone:
        return Status::OK();
      case SyncMode::kFdatasync:
        if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync", path_);
        return Status::OK();
      case SyncMode::kFsync:
        if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
        return Status::OK();
    }
    return Status::Internal("bad sync mode");
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return ErrnoStatus("close", path_);
    }
    fd_ = -1;
    return Status::OK();
  }

  uint64_t size() const override { return size_; }

 private:
  int fd_;
  std::string path_;
  uint64_t size_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> PosixFileBackend::OpenForAppend(
    const std::string& path) {
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return ErrnoStatus("lseek", path);
  }
  if (!existed) {
    // A new segment's directory entry must be durable before any record
    // in it can be acked, or the whole file vanishes on crash.
    const Status st = SyncDir(path);
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
  }
  return std::unique_ptr<WritableFile>(
      new PosixWritableFile(fd, path, static_cast<uint64_t>(size)));
}

Result<std::string> PosixFileBackend::ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("open", path);
  }
  std::string out;
  // Size the buffer once: growing it by appends would hold up to twice a
  // segment's bytes, and recovery reads segments whole.
  struct stat st;
  if (::fstat(fd, &st) == 0) out.reserve(static_cast<size_t>(st.st_size));
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("read", path);
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status PosixFileBackend::Rename(const std::string& from,
                                const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename", from);
  }
  // The checkpoint-install rename is only atomic-on-crash once the
  // directory is synced; otherwise old segments could be durably gone
  // while the new checkpoint's entry is not.
  return SyncDir(to);
}

Status PosixFileBackend::Remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    if (errno == ENOENT) return Status::OK();
    return ErrnoStatus("unlink", path);
  }
  return SyncDir(path);
}

bool PosixFileBackend::Exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Result<std::vector<std::string>> PosixFileBackend::List(
    const std::string& prefix) {
  namespace fs = std::filesystem;
  const fs::path p(prefix);
  const fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
  const std::string name_prefix = p.filename().string();
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(name_prefix, 0) == 0) {
      out.push_back((dir / name).string());
    }
  }
  // A missing directory is the legitimate fresh-start case; any other
  // error (permissions, I/O) must not masquerade as an empty store —
  // Recover() would silently treat it as "no WAL".
  if (ec && ec != std::errc::no_such_file_or_directory) {
    return Status::IoError("directory iteration failed for '" + dir.string() +
                           "': " + ec.message());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Handle into InMemoryFileBackend; re-resolves the path per operation so
/// renames/removals by other actors behave like POSIX (the open handle
/// keeps writing into a fresh file if the name was recycled — close
/// enough for the WAL's single-writer-per-file discipline).
class InMemoryWritableFile : public WritableFile {
 public:
  InMemoryWritableFile(InMemoryFileBackend* backend, std::string path)
      : backend_(backend), path_(std::move(path)) {}

  Status Append(const void* data, size_t len) override {
    std::lock_guard<std::mutex> lock(backend_->mutex_);
    auto& file = backend_->files_[path_];
    file.data.append(static_cast<const char*>(data), len);
    return Status::OK();
  }

  Status Sync(SyncMode mode) override {
    if (mode == SyncMode::kNone) return Status::OK();
    std::lock_guard<std::mutex> lock(backend_->mutex_);
    auto& file = backend_->files_[path_];
    file.durable_size = file.data.size();
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

  uint64_t size() const override {
    std::lock_guard<std::mutex> lock(backend_->mutex_);
    auto it = backend_->files_.find(path_);
    return it == backend_->files_.end() ? 0 : it->second.data.size();
  }

 private:
  InMemoryFileBackend* backend_;
  std::string path_;
};

Result<std::unique_ptr<WritableFile>> InMemoryFileBackend::OpenForAppend(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    files_[path];  // create if absent
  }
  return std::unique_ptr<WritableFile>(new InMemoryWritableFile(this, path));
}

Result<std::string> InMemoryFileBackend::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second.data;
}

Status InMemoryFileBackend::Rename(const std::string& from,
                                   const std::string& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::IoError("rename: no such file: " + from);
  // Rename is modeled as immediately durable (a journaling filesystem's
  // rename is atomic; crash-ordering of the rename itself is not part of
  // what these tests probe).
  FileState moved = std::move(it->second);
  moved.durable_size = moved.data.size();
  files_.erase(it);
  files_[to] = std::move(moved);
  return Status::OK();
}

Status InMemoryFileBackend::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  files_.erase(path);
  return Status::OK();
}

bool InMemoryFileBackend::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(path) != 0;
}

Result<std::vector<std::string>> InMemoryFileBackend::List(
    const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [path, file] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;  // map iteration is already sorted
}

void InMemoryFileBackend::SimulateCrash(uint64_t seed, bool flip_bit) {
  std::lock_guard<std::mutex> lock(mutex_);
  Xoshiro256 rng(seed);
  std::string* flip_candidate = nullptr;
  uint64_t flip_lo = 0;
  for (auto& [path, file] : files_) {
    if (file.data.size() <= file.durable_size) continue;
    const uint64_t unsynced = file.data.size() - file.durable_size;
    const uint64_t keep = rng.NextBounded(unsynced + 1);
    file.data.resize(file.durable_size + keep);
    if (keep > 0) {
      flip_candidate = &file.data;
      flip_lo = file.durable_size;
    }
  }
  if (flip_bit && flip_candidate != nullptr) {
    const uint64_t span = flip_candidate->size() - flip_lo;
    const uint64_t pos = flip_lo + rng.NextBounded(span);
    (*flip_candidate)[pos] =
        static_cast<char>((*flip_candidate)[pos] ^ (1u << rng.NextBounded(8)));
  }
}

uint64_t InMemoryFileBackend::TotalBytes() {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [path, file] : files_) total += file.data.size();
  return total;
}

}  // namespace hwstar::dur
