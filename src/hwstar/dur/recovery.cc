#include "hwstar/dur/recovery.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "hwstar/dur/checkpoint.h"
#include "hwstar/dur/log_writer.h"
#include "hwstar/dur/wal_format.h"

namespace hwstar::dur {

std::string ShardLogPrefix(const std::string& prefix, uint32_t shard) {
  return prefix + "-wal" + std::to_string(shard);
}

namespace {

/// Feeds one shard's usable records to `visit`, in LSN order.
/// `next_apply` starts at mark+1; every decoded record below it is a skip,
/// the record equal to it is usable, and any gap (or a record that fails
/// to decode with more segments claiming later data) ends the shard's
/// usable log. Only one segment's raw bytes are in memory at a time, and
/// records are decoded one by one as they are visited. Recovery scans
/// every shard twice — once to judge transactions, once to apply — so
/// the per-pass bookkeeping (skips, torn segments, where the reopened
/// writer continues) goes into `info` only when it is non-null.
template <typename Visit>
Status ScanShard(FileBackend* backend, const std::string& prefix,
                 uint32_t shard, uint64_t mark, RecoveryInfo* info,
                 const Visit& visit) {
  const std::string shard_prefix = ShardLogPrefix(prefix, shard);
  auto listed = backend->List(shard_prefix);
  if (!listed.ok()) return listed.status();

  // (segment index, path), replayed in index order. The exact-size check
  // keeps shard 1's listing from swallowing shard 11's segments — List()
  // matches by name prefix only.
  std::vector<std::pair<uint32_t, std::string>> segments;
  const size_t expect_size = shard_prefix.size() + 11;  // "-NNNNNN.wal"
  for (const std::string& path : listed.value()) {
    uint32_t index = 0;
    if (path.size() == expect_size && LogWriter::ParseSegmentIndex(path, &index)) {
      segments.emplace_back(index, path);
    }
  }
  std::sort(segments.begin(), segments.end());

  uint64_t next_apply = mark + 1;
  uint32_t next_segment = 0;
  for (const auto& [index, path] : segments) {
    next_segment = index + 1;
    auto raw = backend->ReadFile(path);
    if (!raw.ok()) return raw.status();
    // A gap means the dense sequence broke — records within one segment
    // are LSN-ordered, so nothing further in THIS segment is usable. Later
    // segments are still scanned (not skipped): a prior recovery that
    // stopped at this same gap re-issued the lost LSNs in a fresh
    // higher-index segment, which resumes exactly at next_apply — the
    // same resumption rule used after torn tails. Stale same-timeline
    // segments past the gap only hold larger LSNs, so this check rejects
    // them record-by-record.
    bool gap = false;
    const WalDecodeResult scanned = ScanWalBuffer(
        raw.value().data(), raw.value().size(), [&](const WalRecord& record) {
          if (gap) return;
          if (record.lsn < next_apply) {
            if (info != nullptr) ++info->records_skipped;
          } else if (record.lsn != next_apply) {
            gap = true;
          } else {
            visit(record);
            ++next_apply;
          }
        });
    if (info != nullptr && !scanned.clean) ++info->torn_shards;
    // A torn tail inside this segment does not end replay either: the
    // next segment may resume the dense sequence (a prior crash+recovery
    // reuses the lost LSNs in a fresh segment). If it does not, the
    // density check above rejects its records.
  }
  if (info != nullptr) {
    info->next_lsn[shard] = next_apply;
    info->next_segment[shard] = next_segment;
  }
  return Status::OK();
}

}  // namespace

Result<RecoveryInfo> Recover(FileBackend* backend, const std::string& prefix,
                             uint32_t log_shards, kv::KvStore* store) {
  RecoveryInfo info;
  info.next_lsn.assign(log_shards, 1);
  info.next_segment.assign(log_shards, 0);

  std::vector<uint64_t> marks(log_shards, 0);
  {
    // Scoped so the snapshot's entries are freed before the log replays.
    auto ckpt = ReadCheckpoint(backend, prefix);
    if (ckpt.ok()) {
      if (ckpt.value().marks.size() != log_shards) {
        return Status::IoError("checkpoint shard count mismatch");
      }
      marks = ckpt.value().marks;
      info.checkpoint_loaded = true;
      info.checkpoint_entries = ckpt.value().entries.size();
      for (const auto& [key, value] : ckpt.value().entries) {
        store->Put(key, value);
      }
    } else if (ckpt.status().code() != StatusCode::kNotFound) {
      return ckpt.status();
    }
  }

  // Pass 1: decide transaction fates globally. A transaction's effects
  // are installed only when its commit record survived AND every fragment
  // the commit promises decoded intact across all shards — a crash that
  // tore off any fragment (or the commit itself) drops the whole
  // write-set, never a piece of it. Uncommitted fragments stay in the
  // usable prefix: they consumed LSNs like any other append, so dropping
  // them from the sequence would break the density check for the
  // committed records logged after them.
  std::unordered_map<uint64_t, uint64_t> commit_total;  // tid -> promised
  std::unordered_map<uint64_t, uint64_t> frag_count;    // tid -> surviving
  for (uint32_t shard = 0; shard < log_shards; ++shard) {
    HWSTAR_RETURN_IF_ERROR(ScanShard(
        backend, prefix, shard, marks[shard], &info,
        [&](const WalRecord& record) {
          if (record.txn > info.max_txn_id) info.max_txn_id = record.txn;
          if (record.type == WalRecordType::kTxnCommit) {
            commit_total[record.txn] = record.value;
          } else if (IsTxnFragment(record.type)) {
            ++frag_count[record.txn];
          }
        }));
  }
  auto txn_committed = [&](uint64_t tid) {
    auto it = commit_total.find(tid);
    return it != commit_total.end() && frag_count[tid] == it->second;
  };

  // Pass 2: re-decode the same records and apply. Plain records always
  // apply; fragments apply only for committed transactions; framing
  // records are no-ops. Per-shard LSN order is preserved, so a committed
  // transaction's effect on a key and a later plain overwrite of the same
  // key land in log order.
  for (uint32_t shard = 0; shard < log_shards; ++shard) {
    HWSTAR_RETURN_IF_ERROR(ScanShard(
        backend, prefix, shard, marks[shard], /*info=*/nullptr,
        [&](const WalRecord& record) {
          switch (record.type) {
            case WalRecordType::kPut:
              store->Put(record.key, record.value);
              ++info.records_applied;
              break;
            case WalRecordType::kDelete:
              store->Delete(record.key);
              ++info.records_applied;
              break;
            case WalRecordType::kTxnPut:
              if (txn_committed(record.txn)) {
                store->Put(record.key, record.value);
                ++info.records_applied;
              } else {
                ++info.txn_fragments_dropped;
              }
              break;
            case WalRecordType::kTxnDelete:
              if (txn_committed(record.txn)) {
                store->Delete(record.key);
                ++info.records_applied;
              } else {
                ++info.txn_fragments_dropped;
              }
              break;
            case WalRecordType::kTxnBegin:
            case WalRecordType::kTxnCommit:
              break;
          }
        }));
  }
  for (const auto& [tid, total] : commit_total) {
    if (frag_count[tid] == total) {
      ++info.txns_applied;
    } else {
      ++info.txns_dropped;
    }
  }
  for (const auto& [tid, count] : frag_count) {
    if (commit_total.find(tid) == commit_total.end()) ++info.txns_dropped;
  }
  return info;
}

}  // namespace hwstar::dur
