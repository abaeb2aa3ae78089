// E15 -- group commit: amortizing the fsync. A sync costs the same
// whether it covers 1 record or 500, so the WAL turns every writer that
// staged while the previous sync ran into ONE write+sync. This bench
// measures that directly on a real filesystem (PosixFileBackend in a
// temp dir):
//   per-op    group_commit=off -- every commit does its own write+fdatasync
//   group     group_commit=on  -- writers stage; the first waiter to find
//                                 the device idle writes + syncs for all
// Expected shape: per-op throughput is flat in the writer count (the sync
// is the serial bottleneck and everyone queues behind it), while group
// commit scales with writers because N concurrent commits share one sync.
// The second table sweeps the sync level at 8 writers: kNone bounds what
// the staging path alone can do, kFdatasync vs kFsync shows the price of
// also syncing file metadata per group.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "hwstar/common/timer.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/dur/log_writer.h"
#include "hwstar/perf/report.h"

namespace {

using hwstar::dur::LogWriter;
using hwstar::dur::LogWriterOptions;
using hwstar::dur::PosixFileBackend;
using hwstar::dur::SyncMode;
using hwstar::dur::SyncModeName;
using hwstar::dur::WalRecord;
using hwstar::dur::WalRecordType;

constexpr double kTrialSeconds = 0.6;

struct TrialResult {
  double commits_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double mean_group = 0;
};

double PercentileUs(std::vector<uint64_t>* nanos, double pct) {
  if (nanos->empty()) return 0;
  const size_t idx = std::min(
      nanos->size() - 1,
      static_cast<size_t>(pct * static_cast<double>(nanos->size())));
  std::nth_element(nanos->begin(), nanos->begin() + idx, nanos->end());
  return static_cast<double>((*nanos)[idx]) * 1e-3;
}

/// `writers` threads AppendDurable as fast as they can for kTrialSeconds
/// against a fresh log; each trial gets its own prefix so segment files
/// never collide.
TrialResult RunTrial(PosixFileBackend* fs, const std::string& dir,
                     int trial_id, int writers, const LogWriterOptions& opts) {
  TrialResult out;
  const std::string prefix = dir + "/t" + std::to_string(trial_id);
  auto opened = LogWriter::Open(fs, prefix, opts, /*next_lsn=*/1,
                                /*next_segment=*/0);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().message().c_str());
    return out;
  }
  LogWriter* log = opened.value().get();

  std::atomic<uint64_t> commits{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<uint64_t>> latencies(
      static_cast<size_t>(writers));
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto& mine = latencies[static_cast<size_t>(w)];
      mine.reserve(1 << 16);
      WalRecord record;
      record.key = static_cast<uint64_t>(w) << 32;
      while (!stop.load(std::memory_order_relaxed)) {
        ++record.key;
        record.value = record.key * 3;
        hwstar::WallTimer op;
        if (!log->AppendDurable(record).ok()) break;
        mine.push_back(op.ElapsedNanos());
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  hwstar::WallTimer timer;
  while (timer.ElapsedSeconds() < kTrialSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = timer.ElapsedSeconds();

  std::vector<uint64_t> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  out.commits_per_sec = static_cast<double>(commits.load()) / elapsed;
  out.p50_us = PercentileUs(&all, 0.50);
  out.p99_us = PercentileUs(&all, 0.99);
  out.mean_group = log->stats().mean_group();
  return out;
}

}  // namespace

int main() {
  std::error_code ec;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hwstar_e15").string();
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }
  PosixFileBackend fs;
  int trial_id = 0;

  hwstar::perf::ReportTable writers_table(
      "E15: WAL commit throughput, per-op fdatasync vs group commit",
      {"writers", "mode", "commits_s", "p50_us", "p99_us", "mean_group",
       "speedup"});
  for (const int writers : {1, 2, 4, 8, 16}) {
    LogWriterOptions per_op;
    per_op.group_commit = false;
    const TrialResult base = RunTrial(&fs, dir, trial_id++, writers, per_op);

    const TrialResult group =
        RunTrial(&fs, dir, trial_id++, writers, LogWriterOptions());

    writers_table.AddRow({std::to_string(writers), "per-op",
                          hwstar::perf::ReportTable::Num(base.commits_per_sec),
                          hwstar::perf::ReportTable::Num(base.p50_us),
                          hwstar::perf::ReportTable::Num(base.p99_us),
                          hwstar::perf::ReportTable::Num(base.mean_group),
                          "1.00"});
    writers_table.AddRow(
        {std::to_string(writers), "group",
         hwstar::perf::ReportTable::Num(group.commits_per_sec),
         hwstar::perf::ReportTable::Num(group.p50_us),
         hwstar::perf::ReportTable::Num(group.p99_us),
         hwstar::perf::ReportTable::Num(group.mean_group),
         hwstar::perf::ReportTable::Num(group.commits_per_sec /
                                        std::max(base.commits_per_sec, 1.0))});
  }
  writers_table.Print();
  std::printf("\n");

  hwstar::perf::ReportTable sync_table(
      "E15b: sync level at 8 writers, group commit on",
      {"sync", "commits_s", "p50_us", "p99_us", "mean_group"});
  for (const SyncMode mode :
       {SyncMode::kNone, SyncMode::kFdatasync, SyncMode::kFsync}) {
    LogWriterOptions opts;
    opts.sync = mode;
    const TrialResult r = RunTrial(&fs, dir, trial_id++, /*writers=*/8, opts);
    sync_table.AddRow({SyncModeName(mode),
                       hwstar::perf::ReportTable::Num(r.commits_per_sec),
                       hwstar::perf::ReportTable::Num(r.p50_us),
                       hwstar::perf::ReportTable::Num(r.p99_us),
                       hwstar::perf::ReportTable::Num(r.mean_group)});
  }
  sync_table.Print();

  std::filesystem::remove_all(dir, ec);
  return 0;
}
