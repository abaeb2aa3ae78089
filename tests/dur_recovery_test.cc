#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "hwstar/common/random.h"
#include "hwstar/dur/checkpoint.h"
#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/dur/fault_injection.h"
#include "hwstar/dur/log_writer.h"
#include "hwstar/dur/recovery.h"
#include "hwstar/dur/wal_format.h"
#include "hwstar/txn/transaction.h"

namespace hwstar::dur {
namespace {

// ---------------------------------------------------------------------------
// Crash-recovery property test. Each trace:
//
//   1. opens a DurableKvStore over a FaultyFileBackend whose plan kills the
//      backend after a random number of writes (drop / torn / bit-flip),
//   2. runs a random op sequence (puts, deletes, occasional checkpoints)
//      until the injected crash surfaces as kIoError,
//   3. drops the unsynced page-cache suffix (SimulateCrash), recovers into
//      a fresh store, and
//   4. checks PREFIX CONSISTENCY against a reference model: per log shard,
//      the recovered state must equal the reference after applying some
//      prefix of that shard's op subsequence, and that prefix must include
//      every op the store acked before the crash (durability: an OK return
//      means the op survives; atomicity: no torn record is ever applied).
//
// Per-shard (rather than global) prefixes are the honest contract: each
// log shard orders and syncs independently, so an op on shard 1 may
// survive while an earlier op on shard 0 does not — but within a shard,
// and therefore for any single key, order is never violated.
// ---------------------------------------------------------------------------

struct TraceOp {
  bool is_put = true;
  uint64_t key = 0;
  uint64_t value = 0;
};

void ApplyToModel(std::map<uint64_t, uint64_t>* model, const TraceOp& op) {
  if (op.is_put) {
    (*model)[op.key] = op.value;
  } else {
    model->erase(op.key);
  }
}

// The same high-bit range mapping DurableKvStore uses for its logs.
uint32_t LogShardOfKey(uint64_t key, uint32_t log_shards) {
  if (log_shards == 1) return 0;
  uint32_t log2 = 0;
  while ((1u << log2) < log_shards) ++log2;
  return static_cast<uint32_t>(key >> (64 - log2));
}

std::map<uint64_t, uint64_t> RecoveredShardContents(kv::KvStore* store,
                                                    uint32_t shard,
                                                    uint32_t log_shards) {
  std::vector<std::pair<uint64_t, uint64_t>> all;
  store->RangeScanEntries(0, ~uint64_t{0}, &all);
  std::map<uint64_t, uint64_t> out;
  for (const auto& [key, value] : all) {
    if (LogShardOfKey(key, log_shards) == shard) out.emplace(key, value);
  }
  return out;
}

/// Runs one randomized trace; returns a failure description or "".
std::string RunTrace(uint64_t seed) {
  Xoshiro256 rng(seed);

  FaultPlan plan;
  plan.fail_after_writes = 1 + rng.NextBounded(300);
  plan.mode = static_cast<FaultMode>(rng.NextBounded(3));
  plan.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  FaultyFileBackend fs(plan);

  DurableKvOptions options;
  options.log_shards = 1u << rng.NextBounded(3);  // 1, 2 or 4
  options.kv.index = rng.NextBounded(2) == 0 ? kv::IndexKind::kArt
                                             : kv::IndexKind::kBTree;
  options.kv.shards = 1u << rng.NextBounded(2);

  auto opened = DurableKvStore::Open(&fs, "db", options);
  if (!opened.ok()) return "open failed: " + opened.status().ToString();
  DurableKvStore* db = opened.value().get();

  // Keys from a small space so overwrites and real deletes are common, but
  // spread over the high bits so every shard sees traffic.
  auto random_key = [&rng]() {
    const uint64_t k = rng.NextBounded(16);
    return k << 60 | k;
  };

  std::vector<TraceOp> ops;          // every op attempted, in order
  std::vector<bool> acked;           // ops[i] returned OK
  constexpr size_t kMaxOps = 400;
  bool crashed = false;
  for (size_t i = 0; i < kMaxOps && !crashed; ++i) {
    if (i > 0 && i % 120 == 0) {
      // Occasional checkpoint; mid-checkpoint crashes are part of the
      // tested surface (install is atomic, so either outcome is legal).
      (void)db->Checkpoint();
    }
    TraceOp op;
    op.is_put = rng.NextBounded(10) < 8;
    op.key = random_key();
    op.value = rng.Next();
    Status st = op.is_put ? db->Put(op.key, op.value) : db->Delete(op.key);
    ops.push_back(op);
    acked.push_back(st.ok());
    if (!st.ok()) {
      if (st.code() != StatusCode::kIoError) {
        return "unexpected op status: " + st.ToString();
      }
      crashed = true;
    }
  }
  opened.value().reset();  // the dying process's destructors still run

  // Power loss: unsynced bytes (partially) vanish; maybe a torn-sector
  // bit flip in what survives.
  fs.disk()->SimulateCrash(seed * 31 + 7, rng.NextBounded(2) == 1);

  kv::KvStore recovered(options.kv);
  auto info = Recover(fs.disk(), "db", options.log_shards, &recovered);
  if (!info.ok()) return "recover failed: " + info.status().ToString();

  // Per-shard prefix consistency.
  for (uint32_t shard = 0; shard < options.log_shards; ++shard) {
    std::vector<TraceOp> shard_ops;
    size_t shard_acked = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (LogShardOfKey(ops[i].key, options.log_shards) != shard) continue;
      shard_ops.push_back(ops[i]);
      if (acked[i]) shard_acked = shard_ops.size();
    }

    const std::map<uint64_t, uint64_t> got =
        RecoveredShardContents(&recovered, shard, options.log_shards);

    // State after the minimum legal prefix (every acked op), then extend
    // one unacked op at a time looking for a match.
    std::map<uint64_t, uint64_t> model;
    for (size_t i = 0; i < shard_acked; ++i) ApplyToModel(&model, shard_ops[i]);
    size_t prefix = shard_acked;
    bool matched = model == got;
    while (!matched && prefix < shard_ops.size()) {
      ApplyToModel(&model, shard_ops[prefix]);
      ++prefix;
      matched = model == got;
    }
    if (!matched) {
      std::ostringstream msg;
      msg << "shard " << shard << ": recovered state (" << got.size()
          << " keys) matches no prefix in [" << shard_acked << ", "
          << shard_ops.size() << "] of " << shard_ops.size() << " shard ops"
          << " (crashed=" << crashed << ")";
      return msg.str();
    }
  }
  return "";
}

TEST(CrashRecoveryPropertyTest, RandomTracesArePrefixConsistent) {
  // >= 100 independent traces (the acceptance bar); each covers a random
  // combination of fault mode, trigger point, index kind, shard counts
  // and group-commit tuning.
  constexpr uint64_t kTraces = 128;
  for (uint64_t seed = 1; seed <= kTraces; ++seed) {
    const std::string failure = RunTrace(seed);
    ASSERT_EQ(failure, "") << "trace seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Transactional crash-recovery property test. Same machinery (fault-
// injected backend, random crash point, SimulateCrash, recover), but the
// trace is a serial sequence of multi-key TRANSACTIONS whose write-sets
// span log shards. The contract under test is commit atomicity: after a
// crash — including one mid-commit, with fragments durable in one shard
// and the commit record lost in another — recovery installs each
// transaction's whole write-set or none of it, and every transaction whose
// Commit() acked OK is fully installed.
//
// Each transaction puts 1..3 FRESH keys (the first is its marker, never
// deleted, so "did txn t apply?" is a single lookup) and sometimes deletes
// one non-marker key of an earlier transaction. Expected presence of any
// key is then a pure function of which txns applied — which is exactly
// what all-or-nothing makes decidable.
// ---------------------------------------------------------------------------

struct TxnTracePut {
  uint64_t key = 0;
  uint64_t value = 0;
  size_t deleted_by = 0;  ///< txn index that deletes this key; 0 = none
};

struct TxnTraceRecord {
  std::vector<TxnTracePut> puts;
  bool acked = false;
};

std::string RunTxnTrace(uint64_t seed) {
  Xoshiro256 rng(seed);

  FaultPlan plan;
  plan.fail_after_writes = 1 + rng.NextBounded(250);
  plan.mode = static_cast<FaultMode>(rng.NextBounded(3));
  plan.seed = seed ^ 0x2545f4914f6cdd1dULL;
  FaultyFileBackend fs(plan);

  DurableKvOptions options;
  options.log_shards = 1u << rng.NextBounded(3);  // 1, 2 or 4
  options.kv.index = rng.NextBounded(2) == 0 ? kv::IndexKind::kArt
                                             : kv::IndexKind::kBTree;
  options.kv.shards = 1u << rng.NextBounded(2);

  auto opened = DurableKvStore::Open(&fs, "db", options);
  if (!opened.ok()) return "open failed: " + opened.status().ToString();
  txn::TxnManager mgr(opened.value().get());

  // Txn t's slot s key: top 2 bits spread the write-set across log
  // shards, the rest identify (t, s) uniquely — fresh keys every txn.
  auto txn_key = [&rng](size_t t, uint64_t slot) {
    return (rng.NextBounded(4) << 62) | (static_cast<uint64_t>(t) << 8) |
           slot;
  };

  std::vector<TxnTraceRecord> trace(1);  // index 0 unused (= "no deleter")
  std::vector<size_t> delete_candidates;  // txns with an undeleted slot 1
  constexpr size_t kMaxTxns = 120;
  bool crashed = false;
  for (size_t t = 1; t <= kMaxTxns && !crashed; ++t) {
    if (t % 40 == 0) (void)opened.value()->Checkpoint();

    TxnTraceRecord rec;
    txn::Transaction tx = mgr.Begin();
    const uint64_t puts = 1 + rng.NextBounded(3);
    for (uint64_t s = 0; s < puts; ++s) {
      TxnTracePut put;
      put.key = txn_key(t, s);
      put.value = t * 1000 + s;
      tx.Put(put.key, put.value);
      rec.puts.push_back(put);
    }
    if (!delete_candidates.empty() && rng.NextBounded(10) < 3) {
      const size_t pick = rng.NextBounded(delete_candidates.size());
      const size_t victim = delete_candidates[pick];
      delete_candidates.erase(delete_candidates.begin() +
                              static_cast<ptrdiff_t>(pick));
      trace[victim].puts[1].deleted_by = t;
      tx.Delete(trace[victim].puts[1].key);
    }
    const Status st = tx.Commit();
    rec.acked = st.ok();
    trace.push_back(rec);
    if (rec.puts.size() >= 2 && rec.puts[1].deleted_by == 0) {
      delete_candidates.push_back(t);
    }
    if (!st.ok()) {
      if (st.code() != StatusCode::kIoError) {
        return "unexpected commit status: " + st.ToString();
      }
      crashed = true;
    }
  }
  opened.value().reset();

  fs.disk()->SimulateCrash(seed * 17 + 3, rng.NextBounded(2) == 1);

  kv::KvStore recovered(options.kv);
  auto info = Recover(fs.disk(), "db", options.log_shards, &recovered);
  if (!info.ok()) return "recover failed: " + info.status().ToString();

  // Which txns applied? Marker key (slot 0, never deleted) decides.
  std::vector<bool> applied(trace.size(), false);
  for (size_t t = 1; t < trace.size(); ++t) {
    applied[t] = recovered.Get(trace[t].puts[0].key).ok();
    if (trace[t].acked && !applied[t]) {
      std::ostringstream msg;
      msg << "txn " << t << " acked but not recovered";
      return msg.str();
    }
  }

  // All-or-nothing: every key's presence/value must follow from the
  // applied set alone. A partial install shows up here as a put present
  // while its sibling marker is absent (or vice versa), or as a delete
  // that happened without the rest of its transaction.
  for (size_t t = 1; t < trace.size(); ++t) {
    for (const TxnTracePut& put : trace[t].puts) {
      const bool deleted =
          put.deleted_by != 0 && applied[put.deleted_by];
      const bool expect_present = applied[t] && !deleted;
      auto got = recovered.Get(put.key);
      if (expect_present != got.ok()) {
        std::ostringstream msg;
        msg << "txn " << t << " key " << put.key << ": expected "
            << (expect_present ? "present" : "absent") << ", got the"
            << " opposite (applied=" << applied[t]
            << " deleted_by=" << put.deleted_by << ")";
        return msg.str();
      }
      if (got.ok() && got.value() != put.value) {
        std::ostringstream msg;
        msg << "txn " << t << " key " << put.key << ": value "
            << got.value() << " != " << put.value;
        return msg.str();
      }
    }
  }
  return "";
}

TEST(CrashRecoveryPropertyTest, TransactionalTracesAreAtomic) {
  constexpr uint64_t kTraces = 128;
  for (uint64_t seed = 1; seed <= kTraces; ++seed) {
    const std::string failure = RunTxnTrace(seed);
    ASSERT_EQ(failure, "") << "txn trace seed " << seed;
  }
}

void WriteSegment(InMemoryFileBackend* fs, const std::string& shard_prefix,
                  uint32_t index, const std::vector<WalRecord>& records) {
  std::string buf;
  for (const WalRecord& r : records) EncodeWalRecord(r, &buf);
  auto f = fs->OpenForAppend(LogWriter::SegmentName(shard_prefix, index));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append(buf.data(), buf.size()).ok());
  ASSERT_TRUE(f.value()->Sync(SyncMode::kFsync).ok());
  ASSERT_TRUE(f.value()->Close().ok());
}

WalRecord Put(uint64_t lsn, uint64_t key, uint64_t value) {
  WalRecord r;
  r.lsn = lsn;
  r.key = key;
  r.value = value;
  return r;
}

// Regression (double-crash): a sealed segment with a mid-segment LSN gap
// (a write the device lost) must not hide a later segment in which a
// prior recovery re-issued the lost LSNs. Recovery #1 stops at the gap
// and resumes the dense sequence in a fresh higher-index segment; if a
// second crash follows, recovery #2 must replay that resumption or every
// op acked since recovery #1 is silently dropped.
TEST(RecoveryTest, ResumesPastGapInFreshSegment) {
  InMemoryFileBackend fs;
  const std::string shard_prefix = ShardLogPrefix("db", 0);

  // Segment 0: LSNs 1..5 survive, 6 was lost, stale 7..8 follow the gap.
  WriteSegment(&fs, shard_prefix, 0,
               {Put(1, 1, 10), Put(2, 2, 20), Put(3, 3, 30), Put(4, 4, 40),
                Put(5, 5, 50), Put(7, 7, 70), Put(8, 8, 80)});

  // Recovery #1 applies 1..5 and stops at the gap.
  kv::KvOptions kopts;
  {
    kv::KvStore store(kopts);
    auto info = Recover(&fs, "db", 1, &store);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(info.value().records_applied, 5u);
    EXPECT_EQ(info.value().next_lsn[0], 6u);
    EXPECT_EQ(info.value().next_segment[0], 1u);
  }

  // The reopened writer re-issues LSNs 6..8 (fresh acked ops) in segment 1.
  WriteSegment(&fs, shard_prefix, 1,
               {Put(6, 106, 6), Put(7, 107, 7), Put(8, 108, 8)});

  // Recovery #2: replay must resume at LSN 6 in segment 1. The stale
  // post-gap records in segment 0 (keys 7, 8) must still not apply.
  kv::KvStore store(kopts);
  auto info = Recover(&fs, "db", 1, &store);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info.value().records_applied, 8u);
  EXPECT_EQ(info.value().next_lsn[0], 9u);
  for (uint64_t lsn = 6; lsn <= 8; ++lsn) {
    auto got = store.Get(100 + lsn);
    ASSERT_TRUE(got.ok()) << "re-issued lsn " << lsn << " lost";
    EXPECT_EQ(got.value(), lsn);
  }
  EXPECT_FALSE(store.Get(7).ok());
  EXPECT_FALSE(store.Get(8).ok());
}

WalRecord TxnRecord(WalRecordType type, uint64_t lsn, uint64_t tid,
                    uint64_t key, uint64_t value) {
  WalRecord r;
  r.type = type;
  r.lsn = lsn;
  r.txn = tid;
  r.key = key;
  r.value = value;
  return r;
}

// Every RecoveryInfo counter on a hand-built two-shard log: records at or
// below the checkpoint marks, a torn tail, one committed and one dropped
// cross-shard transaction, and where each reopened writer continues.
TEST(RecoveryTest, CountsEveryOutcomeOnTwoShardLog) {
  InMemoryFileBackend fs;
  constexpr uint64_t kHigh = uint64_t{1} << 63;  // shard 1's key range

  CheckpointData ckpt;
  ckpt.marks = {2, 1};
  ckpt.entries = {{1, 10}, {2, 20}, {kHigh | 1, 11}};
  ASSERT_TRUE(WriteCheckpoint(&fs, "db", ckpt).ok());

  // Shard 0: two records under the mark; txn 7 commits (one fragment
  // here, one in shard 1); txn 9 stages a fragment here and in shard 1,
  // but its commit record is torn off the tail.
  const std::string shard0 = ShardLogPrefix("db", 0);
  WriteSegment(&fs, shard0, 0,
               {Put(1, 1, 10), Put(2, 2, 20),
                TxnRecord(WalRecordType::kTxnBegin, 3, 7, 0, 1),
                TxnRecord(WalRecordType::kTxnPut, 4, 7, 3, 30),
                TxnRecord(WalRecordType::kTxnCommit, 5, 7, 0, 2),
                TxnRecord(WalRecordType::kTxnBegin, 6, 9, 0, 1),
                TxnRecord(WalRecordType::kTxnPut, 7, 9, 5, 50),
                Put(8, 4, 40)});
  std::string torn;
  EncodeWalRecord(TxnRecord(WalRecordType::kTxnCommit, 9, 9, 0, 2), &torn);
  auto tail = fs.OpenForAppend(LogWriter::SegmentName(shard0, 0));
  ASSERT_TRUE(tail.ok());
  ASSERT_TRUE(tail.value()->Append(torn.data(), torn.size() / 2).ok());

  // Shard 1: one record under the mark in a sealed segment; the rest in
  // the next segment, ending with a plain delete.
  const std::string shard1 = ShardLogPrefix("db", 1);
  WriteSegment(&fs, shard1, 0, {Put(1, kHigh | 1, 11)});
  WalRecord del;
  del.type = WalRecordType::kDelete;
  del.lsn = 6;
  del.key = kHigh | 1;
  WriteSegment(&fs, shard1, 1,
               {TxnRecord(WalRecordType::kTxnBegin, 2, 7, 0, 1),
                TxnRecord(WalRecordType::kTxnPut, 3, 7, kHigh | 3, 33),
                TxnRecord(WalRecordType::kTxnBegin, 4, 9, 0, 1),
                TxnRecord(WalRecordType::kTxnPut, 5, 9, kHigh | 5, 55), del});

  kv::KvStore store;
  auto recovered = Recover(&fs, "db", /*log_shards=*/2, &store);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const RecoveryInfo& info = recovered.value();
  EXPECT_TRUE(info.checkpoint_loaded);
  EXPECT_EQ(info.checkpoint_entries, 3u);
  EXPECT_EQ(info.records_skipped, 3u);
  EXPECT_EQ(info.records_applied, 4u);  // txn 7 x2, put 4, delete
  EXPECT_EQ(info.records_total(), 7u);
  EXPECT_EQ(info.torn_shards, 1u);
  EXPECT_EQ(info.txns_applied, 1u);
  EXPECT_EQ(info.txns_dropped, 1u);
  EXPECT_EQ(info.txn_fragments_dropped, 2u);
  EXPECT_EQ(info.max_txn_id, 9u);
  EXPECT_EQ(info.next_lsn, (std::vector<uint64_t>{9, 7}));
  EXPECT_EQ(info.next_segment, (std::vector<uint32_t>{1, 2}));

  std::vector<std::pair<uint64_t, uint64_t>> contents;
  store.RangeScanEntries(0, ~uint64_t{0}, &contents);
  EXPECT_EQ(contents, (std::vector<std::pair<uint64_t, uint64_t>>{
                          {1, 10}, {2, 20}, {3, 30}, {4, 40}, {kHigh | 3, 33}}));
}

// Concurrent writers racing the injected crash: every put whose future
// resolved OK before the crash must be present after recovery (keys are
// writer-private, so presence with the exact value is the full contract).
TEST(CrashRecoveryPropertyTest, ConcurrentAckedPutsSurvive) {
  for (uint64_t round = 0; round < 6; ++round) {
    FaultPlan plan;
    plan.fail_after_writes = 20 + round * 37;
    plan.mode = static_cast<FaultMode>(round % 3);
    plan.seed = round + 1;
    FaultyFileBackend fs(plan);

    DurableKvOptions options;
    options.log_shards = 2;
    options.kv.shards = 2;
    auto opened = DurableKvStore::Open(&fs, "db", options);
    ASSERT_TRUE(opened.ok());
    DurableKvStore* db = opened.value().get();

    constexpr uint32_t kThreads = 4;
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> acked(kThreads);
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Xoshiro256 rng(round * 101 + t);
        for (uint64_t i = 0; i < 400; ++i) {
          const uint64_t key = (static_cast<uint64_t>(t) << 56) | i;
          const uint64_t value = rng.Next();
          if (!db->Put(key, value).ok()) break;  // crashed: stop writing
          acked[t].emplace_back(key, value);
        }
      });
    }
    for (auto& th : threads) th.join();
    opened.value().reset();

    fs.disk()->SimulateCrash(round * 13 + 5, /*flip_bit=*/true);
    kv::KvStore recovered(options.kv);
    auto info = Recover(fs.disk(), "db", options.log_shards, &recovered);
    ASSERT_TRUE(info.ok()) << info.status();

    for (uint32_t t = 0; t < kThreads; ++t) {
      for (const auto& [key, value] : acked[t]) {
        auto got = recovered.Get(key);
        ASSERT_TRUE(got.ok())
            << "round " << round << ": acked key " << key << " lost";
        ASSERT_EQ(got.value(), value)
            << "round " << round << ": acked key " << key << " corrupted";
      }
    }
  }
}

}  // namespace
}  // namespace hwstar::dur
