#include "hwstar/dur/wal_format.h"

#include <cstring>
#include <utility>

#include "hwstar/common/hash.h"

namespace hwstar::dur {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

void EncodeWalRecord(const WalRecord& record, std::string* out) {
  std::string payload;
  payload.reserve(33);
  PutU64(&payload, record.lsn);
  payload.push_back(static_cast<char>(record.type));
  switch (record.type) {
    case WalRecordType::kPut:
      PutU64(&payload, record.key);
      PutU64(&payload, record.value);
      break;
    case WalRecordType::kDelete:
      PutU64(&payload, record.key);
      break;
    case WalRecordType::kTxnBegin:
    case WalRecordType::kTxnCommit:
      PutU64(&payload, record.txn);
      PutU64(&payload, record.value);
      break;
    case WalRecordType::kTxnPut:
      PutU64(&payload, record.txn);
      PutU64(&payload, record.key);
      PutU64(&payload, record.value);
      break;
    case WalRecordType::kTxnDelete:
      PutU64(&payload, record.txn);
      PutU64(&payload, record.key);
      break;
  }

  std::string lenbuf;
  PutU32(&lenbuf, static_cast<uint32_t>(payload.size()));
  uint32_t crc = Crc32(lenbuf.data(), lenbuf.size());
  crc = Crc32(payload.data(), payload.size(), crc);

  PutU32(out, crc);
  out->append(lenbuf);
  out->append(payload);
}

WalDecodeResult DecodeWalBuffer(const void* data, size_t len) {
  std::vector<WalRecord> records;
  WalDecodeResult result = ScanWalBuffer(
      data, len, [&](const WalRecord& record) { records.push_back(record); });
  result.records = std::move(records);
  return result;
}

WalDecodeResult ScanWalBuffer(
    const void* data, size_t len,
    const std::function<void(const WalRecord&)>& visit) {
  WalDecodeResult result;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t off = 0;
  while (off + kWalFrameHeaderBytes <= len) {
    const uint32_t crc = GetU32(p + off);
    const uint32_t payload_len = GetU32(p + off + 4);
    if (payload_len < 17 || payload_len > kWalMaxPayloadBytes ||
        off + kWalFrameHeaderBytes + payload_len > len) {
      result.clean = false;
      break;
    }
    const uint8_t* payload = p + off + kWalFrameHeaderBytes;
    uint32_t actual = Crc32(p + off + 4, 4);
    actual = Crc32(payload, payload_len, actual);
    if (actual != crc) {
      result.clean = false;
      break;
    }
    WalRecord record;
    record.lsn = GetU64(payload);
    const uint8_t type = payload[8];
    if (type == static_cast<uint8_t>(WalRecordType::kPut) &&
        payload_len == 25) {
      record.type = WalRecordType::kPut;
      record.key = GetU64(payload + 9);
      record.value = GetU64(payload + 17);
    } else if (type == static_cast<uint8_t>(WalRecordType::kDelete) &&
               payload_len == 17) {
      record.type = WalRecordType::kDelete;
      record.key = GetU64(payload + 9);
    } else if ((type == static_cast<uint8_t>(WalRecordType::kTxnBegin) ||
                type == static_cast<uint8_t>(WalRecordType::kTxnCommit)) &&
               payload_len == 25) {
      record.type = static_cast<WalRecordType>(type);
      record.txn = GetU64(payload + 9);
      record.value = GetU64(payload + 17);
    } else if (type == static_cast<uint8_t>(WalRecordType::kTxnPut) &&
               payload_len == 33) {
      record.type = WalRecordType::kTxnPut;
      record.txn = GetU64(payload + 9);
      record.key = GetU64(payload + 17);
      record.value = GetU64(payload + 25);
    } else if (type == static_cast<uint8_t>(WalRecordType::kTxnDelete) &&
               payload_len == 25) {
      record.type = WalRecordType::kTxnDelete;
      record.txn = GetU64(payload + 9);
      record.key = GetU64(payload + 17);
    } else {
      result.clean = false;  // unknown type or wrong size for type
      break;
    }
    visit(record);
    off += kWalFrameHeaderBytes + payload_len;
    result.valid_bytes = off;
  }
  if (off != len && result.clean && off + kWalFrameHeaderBytes > len &&
      off < len) {
    // Trailing partial header: a torn append, not a clean boundary.
    result.clean = false;
  }
  return result;
}

}  // namespace hwstar::dur
