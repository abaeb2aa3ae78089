#ifndef HWSTAR_DUR_LOG_WRITER_H_
#define HWSTAR_DUR_LOG_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hwstar/common/status.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/dur/wal_format.h"
#include "hwstar/mem/aligned.h"
#include "hwstar/obs/histogram.h"

namespace hwstar::dur {

/// Tuning for one log. There is no linger knob: an fsync costs the same
/// whether it covers 1 record or 500, and every writer that stages while
/// one sync is in flight rides the next one, so the backlog, not a timer,
/// sets the group size.
struct LogWriterOptions {
  SyncMode sync = SyncMode::kFdatasync;
  /// Group commit on: the first waiter to find no I/O in progress writes
  /// and syncs everything staged for itself and every other waiter. Off:
  /// every commit performs its own write+sync — the per-op baseline
  /// bench_e15 measures the group-commit win against.
  bool group_commit = true;
  /// Staging buffer capacity; 4 KiB-aligned via mem/aligned so the
  /// write-path source buffer respects device block granularity. Two of
  /// these exist (active / in I/O) so staging continues during a write.
  size_t buffer_bytes = 64 * 1024;
};

/// Monotonic counters describing the log's I/O behaviour. `groups` counts
/// write+sync rounds; records / groups is the achieved commit batch size
/// — the number the group-commit knee is made of.
struct LogWriterStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t groups = 0;
  uint64_t rotations = 0;
  uint64_t truncated_segments = 0;

  double mean_group() const {
    return groups == 0
               ? 0.0
               : static_cast<double>(records) / static_cast<double>(groups);
  }
};

/// A per-shard append-only write-ahead log with leader/follower group
/// commit.
///
/// Concurrent writers call Append (cheap: assign a dense LSN and memcpy
/// the framed record into the active staging buffer) and then
/// WaitDurable(lsn). The first waiter that finds no I/O in progress
/// becomes the leader: it swaps the staging buffers and turns every
/// staged record into ONE backend write + sync, then wakes everyone.
/// Waiters that arrive during that I/O are followers; the next of them
/// to wake leads the next group. No thread is handed the work and nobody
/// lingers — the McKenney move of amortizing the expensive serialization
/// point (the sync) rather than queueing in front of it.
///
/// The log is a sequence of segment files `<prefix>-<nnnnnn>.wal`;
/// Rotate() seals the current segment (checkpointing rotates so
/// TruncateThrough can later delete sealed segments wholesale, the unit
/// of truncation a device actually likes).
///
/// I/O failures never abort: the first failed write/sync poisons the log,
/// WaitDurable and subsequent Appends return that kIoError, and the owner
/// decides what dies.
class LogWriter {
 public:
  /// Opens segment `next_segment` for appending; LSNs continue at
  /// `next_lsn` (both come from recovery; a fresh log passes 1 and 0).
  static Result<std::unique_ptr<LogWriter>> Open(FileBackend* backend,
                                                 std::string prefix,
                                                 LogWriterOptions options,
                                                 uint64_t next_lsn,
                                                 uint32_t next_segment);

  /// Makes staged records durable (best effort) and closes the segment.
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Stages the record (the writer fills in the LSN) and returns the
  /// assigned LSN. An appender that finds the staging buffer full writes
  /// it to the segment itself, unsynced (the next leader's sync covers
  /// it); it blocks only while another write is in flight (the device is
  /// the bottleneck — backpressure, not unbounded memory).
  Result<uint64_t> Append(WalRecord record);

  /// Blocks until everything up to `lsn` is durable at the configured
  /// sync level, or the log is poisoned (returns the poisoning error).
  /// When no I/O is in progress the caller performs the write + sync.
  Status WaitDurable(uint64_t lsn);

  /// Append + WaitDurable.
  Result<uint64_t> AppendDurable(WalRecord record);

  /// Seals the current segment (writing and syncing everything staged)
  /// and starts the next one.
  Status Rotate();

  /// Deletes sealed segments whose last LSN is <= `lsn`. The active
  /// segment is never deleted.
  Status TruncateThrough(uint64_t lsn);

  /// Last assigned LSN (0 before the first append).
  uint64_t last_lsn() const { return next_lsn_.load() - 1; }

  /// Highest LSN known durable at the configured sync level.
  uint64_t durable_lsn() const { return durable_lsn_.load(); }

  const std::string& prefix() const { return prefix_; }
  const LogWriterOptions& options() const { return options_; }
  LogWriterStats stats() const;

  /// Distribution of records per write+sync round — the group-commit
  /// batch sizes behind LogWriterStats::mean_group().
  obs::HistogramSnapshot sync_batch_snapshot() const {
    return sync_batch_hist_.Snapshot();
  }
  /// Distribution of write+sync wall time per round, nanoseconds.
  obs::HistogramSnapshot sync_latency_snapshot() const {
    return sync_latency_hist_.Snapshot();
  }
  /// The underlying histograms, for registry registration.
  const obs::Histogram& sync_batch_histogram() const {
    return sync_batch_hist_;
  }
  const obs::Histogram& sync_latency_histogram() const {
    return sync_latency_hist_;
  }

  /// `<prefix>-<nnnnnn>.wal`, recovery parses the index back out.
  static std::string SegmentName(const std::string& prefix, uint32_t index);
  /// Parses the segment index from a SegmentName path; false if malformed.
  static bool ParseSegmentIndex(const std::string& path, uint32_t* index);

 private:
  LogWriter(FileBackend* backend, std::string prefix, LogWriterOptions options,
            uint64_t next_lsn, uint32_t next_segment,
            std::unique_ptr<WritableFile> segment);

  struct Buffer {
    mem::AlignedBuffer data;
    size_t used = 0;
  };

  /// One I/O turn, called with `lock` held and no turn in progress: swaps
  /// the staging buffers, writes what was staged and, when `sync`, syncs
  /// the segment (with mutex_ released under group commit), then
  /// publishes the durable LSN (or poisons the log) and wakes every
  /// waiter.
  Status RunIoTurn(std::unique_lock<std::mutex>& lock, bool sync);

  FileBackend* backend_;
  const std::string prefix_;
  const LogWriterOptions options_;

  std::mutex mutex_;  ///< guards staging state and the I/O turn
  /// Signalled at the end of every I/O turn. Threads sleep on it only
  /// while a turn is in progress, so every sleeper gets a wake-up.
  std::condition_variable turn_cv_;
  Buffer active_;   ///< records staged since the last turn began
  Buffer writing_;  ///< owned by the current turn's thread
  bool io_in_progress_ = false;
  Status poisoned_;  ///< first I/O error; OK while healthy

  std::unique_ptr<WritableFile> segment_;
  uint32_t segment_index_;
  /// Sealed segments: (index, last lsn they contain), oldest first.
  std::vector<std::pair<uint32_t, uint64_t>> sealed_;

  std::atomic<uint64_t> next_lsn_;
  std::atomic<uint64_t> durable_lsn_;

  // Stats (relaxed; read by stats()).
  obs::Histogram sync_batch_hist_;    ///< records per flush group
  obs::Histogram sync_latency_hist_;  ///< nanos per write+sync round
  std::atomic<uint64_t> stat_records_{0};
  std::atomic<uint64_t> stat_bytes_{0};
  std::atomic<uint64_t> stat_groups_{0};
  std::atomic<uint64_t> stat_rotations_{0};
  std::atomic<uint64_t> stat_truncated_{0};
};

}  // namespace hwstar::dur

#endif  // HWSTAR_DUR_LOG_WRITER_H_
