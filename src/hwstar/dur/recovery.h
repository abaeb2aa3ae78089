#ifndef HWSTAR_DUR_RECOVERY_H_
#define HWSTAR_DUR_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hwstar/common/status.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/kv/kv_store.h"

namespace hwstar::dur {

/// What recovery found and did; also carries the per-shard continuation
/// state (next LSN / next segment index) the reopened LogWriters need.
struct RecoveryInfo {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_entries = 0;
  uint64_t records_applied = 0;
  uint64_t records_skipped = 0;  ///< lsn <= checkpoint mark (already applied)
  /// Shards whose replay stopped early at a torn or corrupt record — the
  /// expected signature of a crash mid-append; everything before the stop
  /// point is applied, everything after is discarded (prefix semantics).
  uint32_t torn_shards = 0;
  /// Transactions whose commit record AND full fragment set survived; all
  /// their effects were installed.
  uint64_t txns_applied = 0;
  /// Transactions seen in the log (fragments and/or commit) whose commit
  /// could not be proven complete; NONE of their effects were installed.
  uint64_t txns_dropped = 0;
  /// Intact fragments belonging to dropped transactions (they still count
  /// toward LSN density — only their effects are suppressed).
  uint64_t txn_fragments_dropped = 0;
  /// Largest transaction id seen anywhere in the usable log; the reopened
  /// store seeds its id allocator above this so ids never collide across
  /// restarts.
  uint64_t max_txn_id = 0;
  std::vector<uint64_t> next_lsn;      ///< per shard
  std::vector<uint32_t> next_segment;  ///< per shard

  uint64_t records_total() const { return records_applied + records_skipped; }
};

/// Rebuilds `store` from `<prefix>-ckpt` and the per-shard WAL segments
/// `<prefix>-wal<shard>-NNNNNN.wal`.
///
/// Per shard, segments replay in index order and records must arrive with
/// dense, ascending LSNs: records at or below the checkpoint mark are
/// skipped (their effects are in the snapshot), the first record above
/// the mark must be mark+1, and any gap, CRC failure, or torn frame stops
/// that shard's replay cleanly — applied state is always an exact prefix
/// of what was logged. A torn record at the tail of one segment does NOT
/// stop replay if the following segment resumes the dense sequence (that
/// is the normal shape after a previous crash+recovery: the reopened
/// writer reuses the lost LSNs in a fresh segment).
///
/// Transactional records replay with whole-txn-or-nothing semantics: a
/// first pass over ALL shards' usable prefixes judges every transaction,
/// then a second pass re-decodes and applies, installing a transaction's
/// kTxnPut/kTxnDelete fragments only if its kTxnCommit record survived
/// and the surviving fragment count matches the total the commit
/// promises. Fragments of unproven transactions are suppressed (not
/// applied) but still advance the dense LSN sequence, so later committed
/// work in the same shard is unaffected. Only one segment is decoded at a
/// time, so recovery's memory is bounded by the largest segment, not by
/// the log.
///
/// `store` must be empty. Fails with kIoError only on malformed
/// checkpoint state (corrupt installed checkpoint, or checkpoint shard
/// count mismatching `log_shards`); WAL damage is never an error — it is
/// the thing being recovered from.
Result<RecoveryInfo> Recover(FileBackend* backend, const std::string& prefix,
                             uint32_t log_shards, kv::KvStore* store);

/// `<prefix>-wal<shard>` — the segment-name prefix for one shard's log.
std::string ShardLogPrefix(const std::string& prefix, uint32_t shard);

}  // namespace hwstar::dur

#endif  // HWSTAR_DUR_RECOVERY_H_
