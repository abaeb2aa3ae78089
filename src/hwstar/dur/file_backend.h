#ifndef HWSTAR_DUR_FILE_BACKEND_H_
#define HWSTAR_DUR_FILE_BACKEND_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hwstar/common/status.h"

namespace hwstar::dur {

/// How hard a commit pushes bytes toward the storage device. The three
/// levels are exactly the hardware trade the keynote prices: kNone trusts
/// the OS page cache (fast, volatile), kFdatasync forces data to the
/// device but may skip metadata, kFsync forces both. bench_e15 measures
/// the cost of each level against the device.
enum class SyncMode : uint8_t {
  kNone = 0,
  kFdatasync = 1,
  kFsync = 2,
};

const char* SyncModeName(SyncMode mode);

/// An append-only file handle. Implementations are not thread-safe; the
/// owner (LogWriter's I/O turn, the checkpointer) serializes access.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `len` bytes; on failure the file's durable state is unknown.
  virtual Status Append(const void* data, size_t len) = 0;

  /// Pushes appended bytes to stable storage per `mode` (kNone: no-op).
  virtual Status Sync(SyncMode mode) = 0;

  virtual Status Close() = 0;

  /// Bytes appended so far through this handle plus pre-existing content.
  virtual uint64_t size() const = 0;
};

/// The durability layer's view of a filesystem. Pluggable so the same
/// WAL / checkpoint / recovery code runs against real files (production,
/// benchmarks), an in-memory filesystem with an explicit volatile/durable
/// boundary (fast tests), or the fault-injecting wrapper
/// (crash-recovery property tests). All paths are backend-relative
/// strings; implementations must be thread-safe at this level (distinct
/// WritableFiles may be driven from distinct threads).
class FileBackend {
 public:
  virtual ~FileBackend() = default;

  /// Opens (creating if absent) `path` for appending.
  virtual Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) = 0;

  /// Reads the whole file; NotFound when absent.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (the checkpoint install step).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Removes the file; OK even when absent (idempotent truncation).
  virtual Status Remove(const std::string& path) = 0;

  virtual bool Exists(const std::string& path) = 0;

  /// Paths of all files whose name starts with `prefix`, sorted.
  virtual Result<std::vector<std::string>> List(const std::string& prefix) = 0;
};

/// Real files through POSIX fds: open(O_APPEND) / write / fdatasync /
/// fsync / rename / unlink. Paths are used verbatim, so callers pass a
/// directory prefix they own (benchmarks use a temp dir).
class PosixFileBackend : public FileBackend {
 public:
  Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;
};

/// An in-memory filesystem that models the volatile/durable boundary real
/// disks have: every file tracks how much of its content has been synced
/// (`durable_size`). SimulateCrash() throws away a random amount of the
/// unsynced suffix of every file — exactly what power loss does to a page
/// cache — which is what makes the crash-recovery property tests honest:
/// data the WAL acked at kFdatasync/kFsync must survive, unsynced data
/// may not.
class InMemoryFileBackend : public FileBackend {
 public:
  Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  /// Truncates every file to durable_size plus a random prefix of its
  /// unsynced suffix (seeded; deterministic per seed). When `flip_bit` is
  /// true, additionally flips one random bit inside some surviving
  /// unsynced region — modeling a torn sector — so recovery's CRC path is
  /// exercised, not just its length checks.
  void SimulateCrash(uint64_t seed, bool flip_bit);

  /// Total bytes across all files (diagnostics / truncation tests).
  uint64_t TotalBytes();

 private:
  friend class InMemoryWritableFile;

  struct FileState {
    std::string data;
    uint64_t durable_size = 0;  ///< prefix guaranteed to survive a crash
  };

  std::mutex mutex_;
  std::map<std::string, FileState> files_;
};

}  // namespace hwstar::dur

#endif  // HWSTAR_DUR_FILE_BACKEND_H_
