#include "hwstar/txn/transaction.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/dur/file_backend.h"

namespace hwstar::txn {
namespace {

using dur::DurableKvOptions;
using dur::DurableKvStore;
using dur::InMemoryFileBackend;

DurableKvOptions FastOptions(uint32_t log_shards = 1) {
  DurableKvOptions o;
  o.log_shards = log_shards;
  return o;
}

TEST(TxnTest, ReadModifyWriteCommits) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", FastOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(1, 100).ok());

  TxnManager mgr(db.value().get());
  Transaction tx = mgr.Begin();
  uint64_t v = 0;
  bool found = false;
  ASSERT_TRUE(tx.Get(1, &v, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(v, 100u);
  tx.Put(1, v + 1);
  tx.Put(2, 200);
  ASSERT_TRUE(tx.Commit().ok());

  EXPECT_EQ(db.value()->kv()->Get(1).value(), 101u);
  EXPECT_EQ(db.value()->kv()->Get(2).value(), 200u);
  const TxnStats stats = mgr.stats();
  EXPECT_EQ(stats.begun, 1u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.aborted(), 0u);
}

TEST(TxnTest, ReadYourOwnWritesAndDeletes) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", FastOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(7, 70).ok());

  TxnManager mgr(db.value().get());
  Transaction tx = mgr.Begin();
  tx.Put(7, 71);
  uint64_t v = 0;
  bool found = false;
  ASSERT_TRUE(tx.Get(7, &v, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(v, 71u);  // buffered write, not the store's 70

  tx.Delete(7);
  ASSERT_TRUE(tx.Get(7, &v, &found).ok());
  EXPECT_FALSE(found);  // buffered delete wins

  ASSERT_TRUE(tx.Commit().ok());
  EXPECT_FALSE(db.value()->kv()->Get(7).ok());
}

TEST(TxnTest, AbortInstallsNothing) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", FastOptions());
  ASSERT_TRUE(db.ok());

  TxnManager mgr(db.value().get());
  Transaction tx = mgr.Begin();
  tx.Put(1, 10);
  tx.Put(2, 20);
  tx.Abort();
  EXPECT_EQ(db.value()->kv()->size(), 0u);
  EXPECT_EQ(mgr.stats().committed, 0u);
}

TEST(TxnTest, WriteWriteConflictAborts) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", FastOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(1, 0).ok());

  TxnManager mgr(db.value().get());
  // tx reads key 1, then a rival commits a write to it.
  Transaction tx = mgr.Begin();
  uint64_t v = 0;
  bool found = false;
  ASSERT_TRUE(tx.Get(1, &v, &found).ok());
  tx.Put(1, v + 1);

  Transaction rival = mgr.Begin();
  ASSERT_TRUE(rival.Get(1, &v, &found).ok());
  rival.Put(1, v + 100);
  ASSERT_TRUE(rival.Commit().ok());

  // tx's read of key 1 is stale: validation must fail, nothing installed.
  const Status st = tx.Commit();
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_EQ(db.value()->kv()->Get(1).value(), 100u);
  const TxnStats stats = mgr.stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.aborted_validation, 1u);
}

TEST(TxnTest, ReadOnlyValidationCatchesConcurrentWrite) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", FastOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(1, 1).ok());
  ASSERT_TRUE(db.value()->Put(2, 2).ok());

  TxnManager mgr(db.value().get());

  // Clean read-only snapshot commits without touching the WAL.
  const uint64_t wal_records_before = db.value()->log_stats().records;
  Transaction clean = mgr.Begin();
  uint64_t v = 0;
  bool found = false;
  ASSERT_TRUE(clean.Get(1, &v, &found).ok());
  ASSERT_TRUE(clean.Commit().ok());
  EXPECT_EQ(db.value()->log_stats().records, wal_records_before);

  // A read-only txn whose snapshot was invalidated must abort.
  Transaction stale = mgr.Begin();
  ASSERT_TRUE(stale.Get(2, &v, &found).ok());
  Transaction writer = mgr.Begin();
  writer.Put(2, 22);
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(stale.Commit().code(), StatusCode::kAborted);
}

TEST(TxnTest, RereadOfInvalidatedKeyDoomsTransaction) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", FastOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(5, 50).ok());

  TxnManager mgr(db.value().get());
  Transaction tx = mgr.Begin();
  uint64_t v = 0;
  bool found = false;
  ASSERT_TRUE(tx.Get(5, &v, &found).ok());

  Transaction writer = mgr.Begin();
  writer.Put(5, 51);
  ASSERT_TRUE(writer.Commit().ok());

  // The stripe version moved between the two reads of the same key: the
  // snapshot is inconsistent and the transaction dooms itself.
  EXPECT_EQ(tx.Get(5, &v, &found).code(), StatusCode::kAborted);
  EXPECT_TRUE(tx.doomed());
  EXPECT_EQ(tx.Commit().code(), StatusCode::kAborted);
  EXPECT_EQ(mgr.stats().aborted_doomed, 1u);
}

TEST(TxnTest, ResetRearmsAfterAbort) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", FastOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(1, 0).ok());

  TxnManager mgr(db.value().get());
  Transaction tx = mgr.Begin();
  uint64_t v = 0;
  bool found = false;
  ASSERT_TRUE(tx.Get(1, &v, &found).ok());
  tx.Put(1, v + 1);

  Transaction rival = mgr.Begin();
  rival.Put(1, 100);
  ASSERT_TRUE(rival.Commit().ok());

  ASSERT_EQ(tx.Commit().code(), StatusCode::kAborted);
  tx.Reset();
  ASSERT_TRUE(tx.Get(1, &v, &found).ok());
  EXPECT_EQ(v, 100u);
  tx.Put(1, v + 1);
  ASSERT_TRUE(tx.Commit().ok());
  EXPECT_EQ(db.value()->kv()->Get(1).value(), 101u);
}

TEST(TxnTest, CommittedTxnSurvivesReopen) {
  InMemoryFileBackend fs;
  DurableKvOptions opts = FastOptions(/*log_shards=*/2);
  {
    auto db = DurableKvStore::Open(&fs, "db", opts);
    ASSERT_TRUE(db.ok());
    TxnManager mgr(db.value().get());
    Transaction tx = mgr.Begin();
    // Keys in both halves of the keyspace: fragments span log shards,
    // the commit record lives in only one.
    tx.Put(1, 10);
    tx.Put(~uint64_t{0} - 1, 20);
    ASSERT_TRUE(tx.Commit().ok());
  }
  dur::RecoveryInfo info;
  auto db = DurableKvStore::Open(&fs, "db", opts, &info);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(info.txns_applied, 1u);
  EXPECT_EQ(info.txns_dropped, 0u);
  EXPECT_EQ(db.value()->kv()->Get(1).value(), 10u);
  EXPECT_EQ(db.value()->kv()->Get(~uint64_t{0} - 1).value(), 20u);

  // Txn ids never rewind across restarts.
  EXPECT_GT(db.value()->AllocateTxnId(), info.max_txn_id);
}

// N threads, each looping optimistic increments of a small hot key set
// with retry-on-abort: every committed increment must be present in the
// final sums (lost updates are exactly what OCC validation exists to
// prevent). Run under TSan via the sanitize label.
TEST(TxnTest, ConcurrentIncrementsNeverLoseUpdates) {
  InMemoryFileBackend fs;
  DurableKvOptions opts = FastOptions(/*log_shards=*/2);
  opts.kv.latch_free_reads = true;
  auto db = DurableKvStore::Open(&fs, "db", opts);
  ASSERT_TRUE(db.ok());

  constexpr uint64_t kKeys = 4;
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 200;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.value()->Put(k, 0).ok());
  }

  TxnManager mgr(db.value().get());
  std::atomic<uint64_t> committed_increments{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ULL + 1;
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t key = x % kKeys;
        for (;;) {
          Transaction tx = mgr.Begin();
          uint64_t v = 0;
          bool found = false;
          if (!tx.Get(key, &v, &found).ok()) {
            tx.Abort();
            continue;
          }
          tx.Put(key, v + 1);
          const Status st = tx.Commit();
          if (st.ok()) {
            committed_increments.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          ASSERT_EQ(st.code(), StatusCode::kAborted);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t sum = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    sum += db.value()->kv()->Get(k).value();
  }
  EXPECT_EQ(sum, committed_increments.load());
  EXPECT_EQ(sum,
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
  const TxnStats stats = mgr.stats();
  EXPECT_EQ(stats.committed, sum);
  // Explicit Abort() (after a doomed Get) is not a commit-time outcome,
  // so begun can exceed committed + aborted; never the other way.
  EXPECT_GE(stats.begun, stats.committed + stats.aborted());
}

}  // namespace
}  // namespace hwstar::txn
