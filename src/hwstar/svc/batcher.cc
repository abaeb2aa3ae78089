#include "hwstar/svc/batcher.h"

#include <algorithm>
#include <map>

#include "hwstar/common/bits.h"
#include "hwstar/common/macros.h"

namespace hwstar::svc {

Batcher::Batcher(BatcherOptions options) : options_(options) {
  HWSTAR_CHECK(bits::IsPowerOfTwo(options_.kv_shards));
  shard_shift_ = 64 - bits::Log2Floor(options_.kv_shards);
}

namespace {

/// The key a write-type ticket (kPut or kDelete) operates on.
uint64_t WriteKey(const TicketPtr& t) {
  return t->request.type == RequestType::kPut ? t->request.put.key
                                              : t->request.del.key;
}

}  // namespace

std::vector<Batch> Batcher::Group(std::vector<TicketPtr> tickets) const {
  std::vector<Batch> batches;
  // Point-gets and writes (puts + deletes) keyed by shard; aggregates
  // keyed by target store.
  std::map<uint32_t, std::vector<TicketPtr>> gets_by_shard;
  std::map<uint32_t, std::vector<TicketPtr>> writes_by_shard;
  std::map<const storage::ColumnStore*, std::vector<TicketPtr>> aggs_by_store;

  for (auto& t : tickets) {
    switch (t->request.type) {
      case RequestType::kPointGet:
        gets_by_shard[ShardOf(t->request.get.key)].push_back(std::move(t));
        break;
      case RequestType::kPut:
      case RequestType::kDelete:
        // One group for BOTH write types: a put and a delete on the same
        // key are an ordered pair exactly like two puts, so they must
        // flow through the same stable sort and never-split rule below.
        writes_by_shard[ShardOf(WriteKey(t))].push_back(std::move(t));
        break;
      case RequestType::kAggregate:
        aggs_by_store[t->request.agg.store].push_back(std::move(t));
        break;
      case RequestType::kScan:
      case RequestType::kJoin:
      case RequestType::kTxn: {
        Batch b;
        b.type = t->request.type;
        b.tickets.push_back(std::move(t));
        batches.push_back(std::move(b));
        break;
      }
    }
  }

  for (auto& [shard, group] : gets_by_shard) {
    // Ascending key order inside the shard: the MultiGet run walks the
    // index with monotone keys (locality in trie/tree nodes).
    std::sort(group.begin(), group.end(),
              [](const TicketPtr& a, const TicketPtr& b) {
                return a->request.get.key < b->request.get.key;
              });
    for (size_t begin = 0; begin < group.size();
         begin += options_.max_batch) {
      const size_t end =
          std::min(group.size(), begin + options_.max_batch);
      Batch b;
      b.type = RequestType::kPointGet;
      b.shard = shard;
      b.tickets.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        b.tickets.push_back(std::move(group[i]));
      }
      batches.push_back(std::move(b));
    }
  }

  for (auto& [shard, group] : writes_by_shard) {
    // Sorted like gets (locality + one WAL shard mutex per run), but
    // STABLE: two writes to the same key — put/put, put/delete, any mix —
    // must apply in submission order, or batching would change which
    // state wins.
    std::stable_sort(group.begin(), group.end(),
                     [](const TicketPtr& a, const TicketPtr& b) {
                       return WriteKey(a) < WriteKey(b);
                     });
    for (size_t begin = 0; begin < group.size();) {
      size_t end = std::min(group.size(), begin + options_.max_batch);
      // Never split a run of equal keys across batches: a batch is the
      // unit of execution order, so a split run would leave the order of
      // its halves to whoever runs the batches — exactly the reordering
      // the stable sort exists to prevent. The rule covers
      // ALL write ops on the key, not just puts: a put+delete pair split
      // across batches could resurrect a deleted key.
      while (end < group.size() &&
             WriteKey(group[end]) == WriteKey(group[end - 1])) {
        ++end;
      }
      Batch b;
      b.type = RequestType::kPut;
      b.shard = shard;
      b.tickets.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        b.tickets.push_back(std::move(group[i]));
      }
      batches.push_back(std::move(b));
      begin = end;
    }
  }

  for (auto& [store, group] : aggs_by_store) {
    for (size_t begin = 0; begin < group.size();
         begin += options_.max_batch) {
      const size_t end =
          std::min(group.size(), begin + options_.max_batch);
      Batch b;
      b.type = RequestType::kAggregate;
      b.tickets.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        b.tickets.push_back(std::move(group[i]));
      }
      batches.push_back(std::move(b));
    }
  }

  return batches;
}

}  // namespace hwstar::svc
