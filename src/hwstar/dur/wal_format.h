#ifndef HWSTAR_DUR_WAL_FORMAT_H_
#define HWSTAR_DUR_WAL_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hwstar::dur {

/// Logical operations the WAL records. Deletes are first-class (tombstone
/// replay), not value sentinels.
///
/// The kTxn* types frame multi-key optimistic transactions (hwstar::txn):
/// a transaction's write-set is staged as kTxnPut/kTxnDelete fragments —
/// each in its key's home log shard, each carrying the transaction id —
/// bracketed per shard by a kTxnBegin, and sealed by ONE kTxnCommit in
/// the lowest participating shard naming the total fragment count.
/// Recovery applies a transaction's fragments only when the commit record
/// is present AND every fragment it promises decoded intact — whole
/// transactions or nothing, even when the write-set spans log shards.
enum class WalRecordType : uint8_t {
  kPut = 1,
  kDelete = 2,
  kTxnBegin = 3,   ///< txn = id, value = fragment count in this shard
  kTxnPut = 4,     ///< txn = id; key/value as kPut
  kTxnDelete = 5,  ///< txn = id; key as kDelete
  kTxnCommit = 6,  ///< txn = id, value = total fragments across shards
};

/// True for the fragment types staged inside a transaction's write-set.
inline constexpr bool IsTxnFragment(WalRecordType t) {
  return t == WalRecordType::kTxnPut || t == WalRecordType::kTxnDelete;
}

/// One logical WAL record. `lsn` is per-log (per shard) and dense: the
/// writer assigns 1, 2, 3, ... with no gaps, which is what lets recovery
/// distinguish "clean end of log" from "hole left by a lost write".
struct WalRecord {
  WalRecordType type = WalRecordType::kPut;
  uint64_t lsn = 0;
  uint64_t txn = 0;    ///< transaction id; 0 for the non-txn types
  uint64_t key = 0;    ///< unused for kTxnBegin/kTxnCommit
  uint64_t value = 0;  ///< unused for kDelete/kTxnDelete; count for begin/commit

  bool HasValue() const {
    return type != WalRecordType::kDelete && type != WalRecordType::kTxnDelete;
  }

  bool operator==(const WalRecord& other) const {
    return type == other.type && lsn == other.lsn && txn == other.txn &&
           key == other.key && (!HasValue() || value == other.value);
  }
};

/// On-disk framing (little-endian, the only byte order the library's
/// targets use):
///
///   [u32 crc][u32 payload_len][payload...]
///   payload = [u64 lsn][u8 type] then, by type:
///     kPut                  [u64 key][u64 value]        (25 B payload)
///     kDelete               [u64 key]                   (17 B)
///     kTxnBegin/kTxnCommit  [u64 txn][u64 count]        (25 B)
///     kTxnPut               [u64 txn][u64 key][u64 val] (33 B)
///     kTxnDelete            [u64 txn][u64 key]          (25 B)
///
/// `crc` is CRC32 over payload_len and the payload, so a torn header, a
/// torn payload, and a bit flip are all caught by the same check. Framing
/// is per record: the tail of a crashed log is detected record-by-record
/// and replay stops cleanly at the last intact one.
inline constexpr size_t kWalFrameHeaderBytes = 8;
inline constexpr size_t kWalMaxPayloadBytes = 64;

/// Appends the framed record to `out`.
void EncodeWalRecord(const WalRecord& record, std::string* out);

/// Result of scanning one log buffer.
struct WalDecodeResult {
  std::vector<WalRecord> records;  ///< intact prefix, in append order
  size_t valid_bytes = 0;          ///< bytes consumed by intact records
  /// True when the buffer ended exactly at a record boundary; false when
  /// a torn/corrupt frame stopped the scan early (the normal signature of
  /// a crash mid-append).
  bool clean = true;
};

/// Decodes records from the front of `data`, stopping at the first frame
/// whose length is implausible or whose CRC fails.
WalDecodeResult DecodeWalBuffer(const void* data, size_t len);

/// DecodeWalBuffer that hands each intact record to `visit`, in order,
/// instead of collecting it (`records` stays empty), so a replay holds
/// only the raw bytes, never a decoded copy of them.
WalDecodeResult ScanWalBuffer(
    const void* data, size_t len,
    const std::function<void(const WalRecord&)>& visit);

}  // namespace hwstar::dur

#endif  // HWSTAR_DUR_WAL_FORMAT_H_
