// E21 -- TPC-C-shaped transactions through the whole stack: optimistic
// multi-key transactions (hwstar::txn) driven end-to-end through the
// service front end (svc kTxn requests), installed through the durable
// store's atomic commit framing, on a real filesystem WAL.
//
// Each driver thread runs a closed loop over its own TpccStream slice
// (order ids are actor-strided so streams never collide): new-order /
// payment / delivery in roughly the classic 45/43/12 mix, with Zipf skew
// concentrating payments on a few warehouse/district YTD keys. A commit
// that loses its optimistic validation race aborts back to the client,
// which counts it and moves on (aborted deliveries re-queue their order).
//
// Two tables:
//   E21  threads x {latched, latch-free} reads under the txn Get path --
//        committed txns/s, abort rate, and the latch-free speedup. OCC
//        validation work is identical in both; the delta is what the
//        read path costs under concurrent writers.
//   E21b skew sweep at fixed threads: abort rate vs zipf theta -- the
//        contention dial. More skew = more payments colliding on the same
//        stripe versions = more validation aborts.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "hwstar/common/timer.h"
#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/perf/report.h"
#include "hwstar/svc/service.h"
#include "hwstar/workload/tpcc_like.h"

namespace {

using hwstar::dur::DurableKvOptions;
using hwstar::dur::DurableKvStore;
using hwstar::dur::PosixFileBackend;
using hwstar::svc::Request;
using hwstar::svc::Response;
using hwstar::svc::Service;
using hwstar::svc::ServiceOptions;
using hwstar::svc::TxnOp;
using hwstar::workload::TpccConfig;
using hwstar::workload::TpccOp;
using hwstar::workload::TpccStream;
using hwstar::workload::TpccTxn;

constexpr double kTrialSeconds = 0.6;

struct TrialResult {
  double committed_per_sec = 0;
  double abort_rate = 0;
  double mean_ops = 0;  ///< write+read ops per committed txn
};

std::vector<TxnOp> ToSvcOps(const TpccTxn& txn) {
  std::vector<TxnOp> ops(txn.ops.size());
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    // TpccOpKind mirrors TxnOp::Kind one-to-one.
    ops[i].kind = static_cast<TxnOp::Kind>(txn.ops[i].kind);
    ops[i].key = txn.ops[i].key;
    ops[i].value = txn.ops[i].value;
  }
  return ops;
}

TrialResult RunTrial(PosixFileBackend* fs, const std::string& dir,
                     int trial_id, uint32_t threads, bool latch_free,
                     double theta) {
  TrialResult out;
  DurableKvOptions dopts;
  dopts.kv.shards = 8;
  dopts.kv.latch_free_reads = latch_free;
  dopts.log_shards = 4;
  const std::string prefix = dir + "/t" + std::to_string(trial_id) + "/db";
  std::error_code ec;
  std::filesystem::create_directories(dir + "/t" + std::to_string(trial_id),
                                      ec);
  auto db = DurableKvStore::Open(fs, prefix, dopts);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db.status().message().c_str());
    return out;
  }

  TpccConfig base;
  // Enough warehouses that uniform traffic rarely collides; the skew knob
  // (not the schema size) then controls the conflict rate.
  base.warehouses = 32;
  base.zipf_theta = theta;
  base.actors = threads;

  // Populate warehouse/district/customer rows before the mix starts.
  const auto rows = hwstar::workload::MakeTpccLoad(base);
  std::vector<uint64_t> keys(rows.size()), values(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    keys[i] = rows[i].first;
    values[i] = rows[i].second;
  }
  if (!db.value()->PutBatch(keys.data(), values.data(), keys.size()).ok()) {
    std::fprintf(stderr, "load failed\n");
    return out;
  }

  ServiceOptions sopts;
  sopts.policy = std::make_shared<hwstar::svc::OverloadPolicy>();
  sopts.worker_threads = threads;
  Service service(sopts, db.value().get());

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<uint64_t> total_ops{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> drivers;
  for (uint32_t t = 0; t < threads; ++t) {
    drivers.emplace_back([&, t] {
      TpccConfig cfg = base;
      cfg.actor = t;
      cfg.seed = base.seed + 100 * t;
      TpccStream stream(cfg);
      while (!stop.load(std::memory_order_relaxed)) {
        TpccTxn txn = stream.Next();
        Response r = service.Call(Request::Txn(ToSvcOps(txn)));
        if (r.status.ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
          total_ops.fetch_add(txn.ops.size(), std::memory_order_relaxed);
        } else {
          aborted.fetch_add(1, std::memory_order_relaxed);
          // Put the popped order back so a later delivery can retry it.
          stream.RequeueDelivery(txn);
        }
      }
    });
  }
  hwstar::WallTimer timer;
  while (timer.ElapsedSeconds() < kTrialSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& d : drivers) d.join();
  const double elapsed = timer.ElapsedSeconds();

  const double c = static_cast<double>(committed.load());
  const double a = static_cast<double>(aborted.load());
  out.committed_per_sec = c / elapsed;
  out.abort_rate = (c + a) == 0 ? 0 : a / (c + a);
  out.mean_ops = c == 0 ? 0 : static_cast<double>(total_ops.load()) / c;
  return out;
}

}  // namespace

int main() {
  std::error_code ec;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hwstar_e21").string();
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }
  PosixFileBackend fs;
  int trial_id = 0;

  hwstar::perf::ReportTable threads_table(
      "E21: TPC-C-shaped txns through svc, latched vs latch-free reads",
      {"threads", "reads", "committed_s", "abort_pct", "mean_ops",
       "speedup"});
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    const TrialResult latched = RunTrial(&fs, dir, trial_id++, threads,
                                         /*latch_free=*/false,
                                         /*theta=*/0.4);
    const TrialResult lf = RunTrial(&fs, dir, trial_id++, threads,
                                    /*latch_free=*/true, /*theta=*/0.4);
    threads_table.AddRow(
        {std::to_string(threads), "latched",
         hwstar::perf::ReportTable::Num(latched.committed_per_sec),
         hwstar::perf::ReportTable::Num(100.0 * latched.abort_rate),
         hwstar::perf::ReportTable::Num(latched.mean_ops), "1.00"});
    threads_table.AddRow(
        {std::to_string(threads), "latch-free",
         hwstar::perf::ReportTable::Num(lf.committed_per_sec),
         hwstar::perf::ReportTable::Num(100.0 * lf.abort_rate),
         hwstar::perf::ReportTable::Num(lf.mean_ops),
         hwstar::perf::ReportTable::Num(
             lf.committed_per_sec /
             (latched.committed_per_sec > 0 ? latched.committed_per_sec
                                            : 1.0))});
  }
  threads_table.Print();
  std::printf("\n");

  hwstar::perf::ReportTable skew_table(
      "E21b: abort rate vs warehouse/customer skew, 8 threads, latch-free",
      {"zipf_theta", "committed_s", "abort_pct"});
  for (const double theta : {0.0, 0.4, 0.8, 0.99}) {
    const TrialResult r = RunTrial(&fs, dir, trial_id++, /*threads=*/8,
                                   /*latch_free=*/true, theta);
    skew_table.AddRow({hwstar::perf::ReportTable::Num(theta),
                       hwstar::perf::ReportTable::Num(r.committed_per_sec),
                       hwstar::perf::ReportTable::Num(100.0 * r.abort_rate)});
  }
  skew_table.Print();

  std::filesystem::remove_all(dir, ec);
  return 0;
}
