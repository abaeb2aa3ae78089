#include "hwstar/dur/log_writer.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "hwstar/common/macros.h"

namespace hwstar::dur {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

std::string LogWriter::SegmentName(const std::string& prefix, uint32_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "-%06u.wal", index);
  return prefix + buf;
}

bool LogWriter::ParseSegmentIndex(const std::string& path, uint32_t* index) {
  // ...<prefix>-NNNNNN.wal
  constexpr size_t kSuffix = 4;   // ".wal"
  constexpr size_t kDigits = 6;
  if (path.size() < kSuffix + kDigits + 1) return false;
  if (path.compare(path.size() - kSuffix, kSuffix, ".wal") != 0) return false;
  const size_t digits_at = path.size() - kSuffix - kDigits;
  if (path[digits_at - 1] != '-') return false;
  uint32_t v = 0;
  for (size_t i = 0; i < kDigits; ++i) {
    const char c = path[digits_at + i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  *index = v;
  return true;
}

Result<std::unique_ptr<LogWriter>> LogWriter::Open(FileBackend* backend,
                                                   std::string prefix,
                                                   LogWriterOptions options,
                                                   uint64_t next_lsn,
                                                   uint32_t next_segment) {
  HWSTAR_CHECK(options.buffer_bytes >= 4096);
  auto file = backend->OpenForAppend(SegmentName(prefix, next_segment));
  if (!file.ok()) return file.status();
  return std::unique_ptr<LogWriter>(
      new LogWriter(backend, std::move(prefix), options,
                    next_lsn == 0 ? 1 : next_lsn, next_segment,
                    std::move(file.value())));
}

LogWriter::LogWriter(FileBackend* backend, std::string prefix,
                     LogWriterOptions options, uint64_t next_lsn,
                     uint32_t next_segment,
                     std::unique_ptr<WritableFile> segment)
    : backend_(backend),
      prefix_(std::move(prefix)),
      options_(options),
      segment_(std::move(segment)),
      segment_index_(next_segment),
      next_lsn_(next_lsn),
      durable_lsn_(next_lsn - 1) {
  // 4 KiB alignment: the staging buffers are the write-path source and
  // should respect device block granularity.
  active_.data = mem::MakeAlignedBuffer(options_.buffer_bytes, 4096);
  writing_.data = mem::MakeAlignedBuffer(options_.buffer_bytes, 4096);
  HWSTAR_CHECK(active_.data != nullptr && writing_.data != nullptr);
}

LogWriter::~LogWriter() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (poisoned_.ok() && durable_lsn_.load() < last_lsn()) {
      (void)RunIoTurn(lock, /*sync=*/true);
    }
  }
  if (segment_ != nullptr) (void)segment_->Close();
}

Result<uint64_t> LogWriter::Append(WalRecord record) {
  thread_local std::string scratch;
  scratch.clear();

  std::unique_lock<std::mutex> lock(mutex_);
  // Make room before taking the LSN, so records stage in LSN order. The
  // appender that finds the buffer full writes it out unsynced — the next
  // leader's sync covers those bytes — so a bulk load keeps staging while
  // the device works.
  for (;;) {
    if (!poisoned_.ok()) return poisoned_;
    if (active_.used + kWalFrameHeaderBytes + kWalMaxPayloadBytes <=
        options_.buffer_bytes) {
      break;
    }
    if (io_in_progress_) {
      turn_cv_.wait(lock);
    } else {
      (void)RunIoTurn(lock, /*sync=*/false);
    }
  }

  const uint64_t lsn = next_lsn_.fetch_add(1, kRelaxed);
  record.lsn = lsn;
  EncodeWalRecord(record, &scratch);
  std::memcpy(active_.data.get() + active_.used, scratch.data(),
              scratch.size());
  active_.used += scratch.size();
  stat_records_.fetch_add(1, kRelaxed);
  if (!options_.group_commit) {
    HWSTAR_RETURN_IF_ERROR(RunIoTurn(lock, /*sync=*/true));
  }
  return lsn;
}

Status LogWriter::WaitDurable(uint64_t lsn) {
  if (durable_lsn_.load() >= lsn) return Status::OK();
  std::unique_lock<std::mutex> lock(mutex_);
  while (durable_lsn_.load() < lsn) {
    if (!poisoned_.ok()) return poisoned_;
    if (io_in_progress_) {
      // Follower: the running turn may not cover `lsn`; its end wakes us
      // to re-check, and the first waiter to get the lock leads next.
      turn_cv_.wait(lock);
    } else {
      // Leader: nothing is in flight, so one write + sync covers this
      // record and every record staged with it.
      (void)RunIoTurn(lock, /*sync=*/true);
    }
  }
  return Status::OK();
}

Result<uint64_t> LogWriter::AppendDurable(WalRecord record) {
  auto lsn = Append(record);
  if (!lsn.ok()) return lsn;
  HWSTAR_RETURN_IF_ERROR(WaitDurable(lsn.value()));
  return lsn;
}

Status LogWriter::RunIoTurn(std::unique_lock<std::mutex>& lock, bool sync) {
  // Every assigned LSN is staged in active_ or already in the segment
  // (LSNs are taken and staged under one hold of mutex_), so once
  // active_ is written the segment holds everything through `written`.
  const uint64_t written = last_lsn();
  std::swap(active_, writing_);
  io_in_progress_ = true;
  // The per-op baseline keeps mutex_ through its I/O: appenders queue on
  // the mutex, one record per write + sync, like a plain serial log.
  const bool release = options_.group_commit;
  if (release) lock.unlock();

  const uint64_t io_start = NowNanos();
  Status st = Status::OK();
  if (writing_.used > 0) {
    st = segment_->Append(writing_.data.get(), writing_.used);
  }
  if (st.ok() && sync) st = segment_->Sync(options_.sync);
  const uint64_t io_nanos = NowNanos() - io_start;

  if (release) lock.lock();
  io_in_progress_ = false;
  stat_bytes_.fetch_add(writing_.used, kRelaxed);
  writing_.used = 0;
  if (!st.ok()) {
    poisoned_ = st;
  } else if (sync) {
    sync_batch_hist_.Record(written - durable_lsn_.load(kRelaxed));
    sync_latency_hist_.Record(io_nanos);
    stat_groups_.fetch_add(1, kRelaxed);
    durable_lsn_.store(written);
  }
  turn_cv_.notify_all();
  return st;
}

Status LogWriter::Rotate() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Take the I/O turn, write and sync everything staged at this cut, then
  // seal without releasing mutex_ again. Records staged while the sync ran
  // land in the next segment, so rotation makes progress under sustained
  // appends instead of waiting for the buffer to drain.
  turn_cv_.wait(lock, [&] { return !io_in_progress_; });
  if (!poisoned_.ok()) return poisoned_;
  if (durable_lsn_.load() < last_lsn()) {
    HWSTAR_RETURN_IF_ERROR(RunIoTurn(lock, /*sync=*/true));
  }
  // I/O under mutex_ keeps appenders and leaders off segment_ while it is
  // swapped; rotation is rare (checkpoints), so the stall is the honest
  // trade.
  Status st = segment_->Close();
  if (st.ok()) {
    sealed_.emplace_back(segment_index_, durable_lsn_.load());
    ++segment_index_;
    auto file =
        backend_->OpenForAppend(SegmentName(prefix_, segment_index_));
    if (file.ok()) {
      segment_ = std::move(file.value());
    } else {
      st = file.status();
    }
  }
  if (!st.ok()) {
    poisoned_ = st;
    return st;
  }
  stat_rotations_.fetch_add(1, kRelaxed);
  return Status::OK();
}

Status LogWriter::TruncateThrough(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!sealed_.empty() && sealed_.front().second <= lsn) {
    const uint32_t index = sealed_.front().first;
    HWSTAR_RETURN_IF_ERROR(backend_->Remove(SegmentName(prefix_, index)));
    sealed_.erase(sealed_.begin());
    stat_truncated_.fetch_add(1, kRelaxed);
  }
  return Status::OK();
}

LogWriterStats LogWriter::stats() const {
  LogWriterStats s;
  s.records = stat_records_.load(kRelaxed);
  s.bytes = stat_bytes_.load(kRelaxed);
  s.groups = stat_groups_.load(kRelaxed);
  s.rotations = stat_rotations_.load(kRelaxed);
  s.truncated_segments = stat_truncated_.load(kRelaxed);
  return s;
}

}  // namespace hwstar::dur
