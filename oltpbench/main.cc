// oltpbench: the request path of hwstar, end to end and layer by layer.
//
// One process runs one workload: set-up -> rounds of (light window, sat
// segment) -> close and reopen the store from its WAL -> output check.
// With --trace 1 each round also runs a second light window with spans on,
// and the workload's op stream is replayed down the layer ladder
// (ladder.cc); the run then prints the per-layer metrics instead of the
// end-to-end ones.
//
// Every layer is measured from outside: the benchmark times calls into
// public entry points and reads public counters; svc numbers come from
// the Service::DumpMetricsText() scrape by name. Options are the library
// defaults except kv.shards = 8 and log_shards = 4.
//
// Load is closed loop (callers of an embedded service wait for replies):
//   light: one caller, one request in flight;
//   sat:   64 requests in flight from at most 4 generator threads
//          (tpcc_txn: 4 TpccStream actors, one Call in flight each).
// Every window and segment gets a fresh Service over the same store, so a
// scrape covers one of them; each metric is the median over rounds.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "hwstar/common/hash.h"
#include "hwstar/common/random.h"
#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/svc/service.h"
#include "hwstar/workload/tpcc_like.h"

namespace oltpbench {
namespace {

using hwstar::Status;
using hwstar::StatusCode;
using hwstar::dur::DurableKvOptions;
using hwstar::dur::DurableKvStore;
using hwstar::dur::PosixFileBackend;
using hwstar::svc::Request;
using hwstar::svc::Response;
using hwstar::svc::Service;
using hwstar::svc::ServiceOptions;
using hwstar::svc::TxnOp;

// ---------------------------------------------------------------------------
// Run shape. Fixed here so every commit measures the same thing.

constexpr uint32_t kInFlight = 64;       // ServiceOptions::dispatch_max default
constexpr uint32_t kMaxGenThreads = 4;   // generator threads in the sat phase
constexpr uint32_t kTpccActors = 4;      // closed-loop TpccStream actors
constexpr int kSetupReps = 5;            // set-ups per run; setup_s = median
constexpr int kRounds = 9;               // light window + sat segment each
constexpr double kLightShare = 0.4;      // of --seconds; the rest is sat
constexpr double kWarmSeconds = 0.2;     // per window / segment, not timed
constexpr size_t kLoadChunk = 1 << 16;   // keys per set-up PutBatch
constexpr size_t kLadderOps = 20000;     // op-stream length for the ladder

constexpr uint64_t kPointReadKeys = 1'000'000;
constexpr uint64_t kDurableWriteKeys = 65'536;
constexpr uint32_t kTpccWarehouses = 32;
constexpr double kTpccZipfTheta = 0.4;
// A client sends an aborted txn again (an OCC abort installs nothing) up
// to this many times, so no operation fails; contention shows as commit
// attempts per committed txn instead.
constexpr uint32_t kTpccMaxSends = 100;
constexpr uint64_t kTpccInitialYtd = 1000;  // MakeTpccLoad's balance

DurableKvOptions StoreOptions() {
  DurableKvOptions o;
  o.kv.shards = 8;
  o.log_shards = 4;
  return o;
}

// Distinct per-purpose streams derived from the one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return hwstar::Mix64(seed * 0x9e3779b97f4a7c15ULL + purpose);
}

// The value point_read loads for `key`: derivable, so every read checks.
uint64_t ValueOf(uint64_t key) {
  return hwstar::Mix64(key ^ 0x5bd1e9955bd1e995ULL);
}

// `n` distinct uniform keys: Mix64 is a bijection, so i -> Mix64(i ^ salt)
// never collides. Sorted, so set-up batches touch contiguous shards.
std::vector<uint64_t> DistinctKeys(uint64_t n, uint64_t salt) {
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = hwstar::Mix64(i ^ salt);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------------------------------------------------------------------------
// Clients: one per request slot. A slot has exactly one request in flight,
// so Done() always answers the request Next() last returned.

struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;          // ResourceExhausted / DeadlineExceeded
  uint64_t txn_attempts = 0;  // Response::txn_attempts, summed
  uint64_t txn_commits = 0;
  uint64_t writes = 0;        // acknowledged user writes (16 B each)
  std::string violation;      // first output-check failure seen, if any

  void Merge(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    shed += o.shed;
    txn_attempts += o.txn_attempts;
    txn_commits += o.txn_commits;
    writes += o.writes;
    if (violation.empty()) violation = o.violation;
  }
};

class Client {
 public:
  virtual ~Client() = default;
  virtual Request Next() = 0;
  /// Returns false when the client sends the same operation again (an
  /// aborted txn), true when the operation is finished.
  virtual bool Done(const Response& r, Tally* t) = 0;
};

void Account(const Response& r, bool finished, Tally* t) {
  t->txn_attempts += r.txn_attempts;
  if (r.txn_attempts > 0 && r.status.ok()) ++t->txn_commits;
  if (!finished) return;
  ++t->attempted;
  if (r.status.ok()) ++t->ok;
  const StatusCode c = r.status.code();
  if (c == StatusCode::kResourceExhausted ||
      c == StatusCode::kDeadlineExceeded) {
    ++t->shed;
  }
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Rows set-up loads, sorted by key.
  virtual const std::vector<std::pair<uint64_t, uint64_t>>& Rows() const = 0;
  /// Client `index` of `count` concurrent ones.
  virtual std::unique_ptr<Client> MakeClient(uint32_t index,
                                             uint32_t count) = 0;
  /// Generator threads for the sat phase and slots (in-flight requests)
  /// per thread.
  virtual uint32_t SatThreads() const {
    return std::max(1u, std::min(kMaxGenThreads,
                                 std::thread::hardware_concurrency()));
  }
  virtual uint32_t SatSlotsPerThread() const {
    return kInFlight / SatThreads();
  }
  /// Output check against the store reopened from its WAL.
  virtual bool Check(DurableKvStore* reopened, std::string* why) = 0;
  /// The op stream the ladder replays.
  virtual OpStream LadderStream(uint64_t seed) = 0;
};

// The two point workloads: `n` uniform keys, loaded with ValueOf(key). The
// store must hold each key's last acknowledged value (for point_read, the
// loaded one) after it is reopened from its WAL.
class KeyValueWorkload : public Workload {
 public:
  KeyValueWorkload(uint64_t seed, uint64_t n, TxnOp::Kind kind)
      : seed_(seed), kind_(kind) {
    for (uint64_t k : DistinctKeys(n, SubSeed(seed, n))) {
      rows_.emplace_back(k, ValueOf(k));
      expected_.push_back(ValueOf(k));
    }
    uncertain_.assign(n, 0);
  }
  const std::vector<std::pair<uint64_t, uint64_t>>& Rows() const override {
    return rows_;
  }

  bool Check(DurableKvStore* db, std::string* why) override {
    std::vector<uint64_t> keys(rows_.size()), values(rows_.size());
    std::unique_ptr<bool[]> found(new bool[rows_.size()]);
    for (size_t i = 0; i < rows_.size(); ++i) keys[i] = rows_[i].first;
    db->kv()->MultiGet(keys.data(), keys.size(), values.data(), found.get());
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (uncertain_[i]) continue;
      if (!found[i] || values[i] != expected_[i]) {
        *why = "after reopen key " + std::to_string(keys[i]) + " holds " +
               (found[i] ? std::to_string(values[i]) : "nothing") +
               ", last ack was " + std::to_string(expected_[i]);
        return false;
      }
    }
    return true;
  }

  OpStream LadderStream(uint64_t seed) override {
    OpStream s;
    hwstar::Xoshiro256 rng(seed);
    for (size_t i = 0; i < kLadderOps; ++i) {
      const uint64_t k = rows_[rng.NextBounded(rows_.size())].first;
      const uint64_t v = rng.Next();
      s.keys.push_back(k);
      s.values.push_back(v);
      s.txns.push_back({TxnOp{kind_, k, v}});
    }
    return s;
  }

 protected:
  const uint64_t seed_;
  const TxnOp::Kind kind_;  // what one op of this workload does
  std::vector<std::pair<uint64_t, uint64_t>> rows_;
  std::vector<uint64_t> expected_;  // last acknowledged value per row
  std::vector<uint8_t> uncertain_;  // a put of this row failed
};

// point_read: kPointGet over 1M uniform keys, all present. Every response
// is checked against the value derived from its key.
class PointRead : public KeyValueWorkload {
 public:
  explicit PointRead(uint64_t seed)
      : KeyValueWorkload(seed, kPointReadKeys, TxnOp::Kind::kGet) {}

  class Reader : public Client {
   public:
    Reader(const PointRead* w, uint64_t seed) : w_(w), rng_(seed) {}
    Request Next() override {
      key_ = w_->rows_[rng_.NextBounded(w_->rows_.size())].first;
      return Request::PointGet(key_);
    }
    bool Done(const Response& r, Tally* t) override {
      const bool wrong =
          (r.status.ok() && r.value != ValueOf(key_)) ||
          r.status.code() == StatusCode::kNotFound;
      if (wrong && t->violation.empty()) {
        t->violation = "key " + std::to_string(key_) + " returned " +
                       r.status.ToString() + " value " +
                       std::to_string(r.value);
      }
      return true;
    }

   private:
    const PointRead* w_;
    hwstar::Xoshiro256 rng_;
    uint64_t key_ = 0;
  };

  std::unique_ptr<Client> MakeClient(uint32_t index, uint32_t count) override {
    return std::make_unique<Reader>(this,
                                    SubSeed(seed_, 100 + count * 1000 + index));
  }
};

// durable_write: kPut over 65,536 keys. Client `index` of `count` owns the
// keys whose position is index mod count, so no key ever has two puts in
// flight and the last acknowledged value of each key is known exactly.
class DurableWrite : public KeyValueWorkload {
 public:
  explicit DurableWrite(uint64_t seed)
      : KeyValueWorkload(seed, kDurableWriteKeys, TxnOp::Kind::kPut) {}

  class Writer : public Client {
   public:
    Writer(DurableWrite* w, uint32_t index, uint32_t count, uint64_t seed)
        : w_(w), index_(index), count_(count), rng_(seed) {}
    Request Next() override {
      const uint64_t owned = (w_->rows_.size() - index_ + count_ - 1) / count_;
      pos_ = index_ + rng_.NextBounded(owned) * count_;
      value_ = rng_.Next();
      return Request::Put(w_->rows_[pos_].first, value_);
    }
    bool Done(const Response& r, Tally* t) override {
      // A failed put may or may not have reached the log.
      if (r.status.ok()) {
        ++t->writes;
        w_->expected_[pos_] = value_;
      } else {
        w_->uncertain_[pos_] = 1;
      }
      return true;
    }

   private:
    DurableWrite* w_;
    uint32_t index_;
    uint32_t count_;
    hwstar::Xoshiro256 rng_;
    size_t pos_ = 0;
    uint64_t value_ = 0;
  };

  std::unique_ptr<Client> MakeClient(uint32_t index, uint32_t count) override {
    return std::make_unique<Writer>(
        this, index, count, SubSeed(seed_, 200 + count * 1000 + index));
  }
};

// tpcc_txn: kTxn with the TpccStream new-order / payment / delivery mix.
// Actors 0..3 drive the sat phase and actor 4 the light phase; order ids
// are strided by actor, so no two streams write the same order key.
class TpccTxnWorkload : public Workload {
 public:
  explicit TpccTxnWorkload(uint64_t seed) {
    base_.warehouses = kTpccWarehouses;
    base_.zipf_theta = kTpccZipfTheta;
    base_.actors = kTpccActors + 1;
    base_.seed = SubSeed(seed, 3);
    rows_ = hwstar::workload::MakeTpccLoad(base_);
    std::sort(rows_.begin(), rows_.end());
  }
  const std::vector<std::pair<uint64_t, uint64_t>>& Rows() const override {
    return rows_;
  }
  uint32_t SatThreads() const override { return kTpccActors; }
  uint32_t SatSlotsPerThread() const override { return 1; }

  static std::vector<TxnOp> ToSvcOps(const hwstar::workload::TpccTxn& txn) {
    std::vector<TxnOp> ops(txn.ops.size());
    for (size_t i = 0; i < txn.ops.size(); ++i) {
      // TpccOpKind mirrors TxnOp::Kind one-to-one.
      ops[i].kind = static_cast<TxnOp::Kind>(txn.ops[i].kind);
      ops[i].key = txn.ops[i].key;
      ops[i].value = txn.ops[i].value;
    }
    return ops;
  }

  class Actor : public Client {
   public:
    Actor(TpccTxnWorkload* w, hwstar::workload::TpccConfig cfg)
        : w_(w), stream_(cfg) {}
    ~Actor() override {
      std::lock_guard<std::mutex> lock(w_->paid_mutex_);
      for (const auto& [key, amount] : paid_) w_->paid_[key] += amount;
    }
    Request Next() override {
      if (sends_ == 0) txn_ = stream_.Next();
      ++sends_;
      return Request::Txn(ToSvcOps(txn_));
    }
    bool Done(const Response& r, Tally* t) override {
      if (r.status.code() == StatusCode::kAborted && sends_ < kTpccMaxSends) {
        return false;
      }
      sends_ = 0;
      if (!r.status.ok()) {
        stream_.RequeueDelivery(txn_);
        return true;
      }
      for (const auto& op : txn_.ops) {
        t->writes += op.kind != hwstar::workload::TpccOpKind::kGet;
      }
      if (txn_.kind == hwstar::workload::TpccTxnKind::kPayment) {
        // ops: +amount on warehouse, district, customer YTD / balance.
        paid_[txn_.ops[1].key] += txn_.ops[1].value;
      }
      return true;
    }

   private:
    TpccTxnWorkload* w_;
    hwstar::workload::TpccStream stream_;
    hwstar::workload::TpccTxn txn_;
    uint32_t sends_ = 0;  // times txn_ was sent
    std::map<uint64_t, uint64_t> paid_;  // district key -> acknowledged sum
  };

  std::unique_ptr<Client> MakeClient(uint32_t index, uint32_t count) override {
    hwstar::workload::TpccConfig cfg = base_;
    // A lone client is the light phase's actor, past the sat actors.
    cfg.actor = count == 1 ? kTpccActors : index;
    return std::make_unique<Actor>(this, cfg);
  }

  // Per district: YTD delta = acknowledged payments into it; per
  // warehouse: YTD delta = sum of its districts' deltas. A lost or
  // phantom update on either key breaks one of the two.
  bool Check(DurableKvStore* db, std::string* why) override {
    for (uint32_t w = 0; w < base_.warehouses; ++w) {
      uint64_t district_sum = 0;
      for (uint32_t d = 0; d < base_.districts_per_warehouse; ++d) {
        const uint64_t key = hwstar::workload::TpccDistrictKey(w, d);
        auto v = db->kv()->Get(key);
        const uint64_t paid = paid_[key];
        if (!v.ok() || v.value() - kTpccInitialYtd != paid) {
          *why = "district " + std::to_string(w) + "/" +
                 std::to_string(d) + " YTD delta != acknowledged payments " +
                 std::to_string(paid);
          return false;
        }
        district_sum += paid;
      }
      auto v = db->kv()->Get(hwstar::workload::TpccWarehouseKey(w));
      if (!v.ok() || v.value() - kTpccInitialYtd != district_sum) {
        *why = "warehouse " + std::to_string(w) +
               " YTD delta != sum of district deltas " +
               std::to_string(district_sum);
        return false;
      }
    }
    return true;
  }

  OpStream LadderStream(uint64_t seed) override {
    hwstar::workload::TpccConfig cfg = base_;
    cfg.seed = seed;
    hwstar::workload::TpccStream stream(cfg);
    OpStream s;
    while (s.keys.size() < kLadderOps) {
      const auto txn = stream.Next();
      for (const auto& op : txn.ops) {
        s.keys.push_back(op.key);
        s.values.push_back(op.value);
      }
      s.txns.push_back(ToSvcOps(txn));
    }
    return s;
  }

 private:
  hwstar::workload::TpccConfig base_;
  std::vector<std::pair<uint64_t, uint64_t>> rows_;
  std::mutex paid_mutex_;
  std::map<uint64_t, uint64_t> paid_;  // district key -> acknowledged sum
};

// ---------------------------------------------------------------------------
// Scrape: "counter <name> <v>" and "histogram <name> count=.. p50=.. ..."
// lines of Service::DumpMetricsText(), by name.

using Scrape = std::map<std::string, std::map<std::string, double>>;

Scrape ParseScrape(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind, name, field;
    ls >> kind >> name;
    if (kind == "counter" || kind == "gauge") {
      double v = 0;
      ls >> v;
      out[name]["value"] = v;
    } else if (kind == "histogram") {
      while (ls >> field) {
        const size_t eq = field.find('=');
        if (eq == std::string::npos) continue;
        out[name][field.substr(0, eq)] = std::strtod(field.c_str() + eq + 1,
                                                     nullptr);
      }
    }
  }
  return out;
}

double Field(const Scrape& s, const std::string& name,
             const std::string& field) {
  auto it = s.find(name);
  if (it == s.end()) return 0;
  auto f = it->second.find(field);
  return f == it->second.end() ? 0 : f->second;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Metric name -> value and unit; printed in name order.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ---------------------------------------------------------------------------
// Closed-loop load. Thread t serves clients [t*slots, (t+1)*slots), each
// with one request in flight. Runs kWarmSeconds, then counts OK
// completions for `measure` seconds. With one thread and one slot it also
// times every call (the light phase), optionally as svc.Call spans.

struct PhaseResult {
  double ok_per_s = 0;
  Tally tally;
  std::vector<double> call_us;  // one caller only
  Scrape scrape;
};

PhaseResult RunPhase(Service* svc,
                     std::vector<std::unique_ptr<Client>>* clients,
                     uint32_t threads, double measure, Tracer* tracer,
                     uint32_t trace_parent) {
  const uint32_t slots = static_cast<uint32_t>(clients->size()) / threads;
  const bool timed = clients->size() == 1;
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::vector<std::atomic<uint64_t>> ok_live(threads);
  std::vector<Tally> tallies(threads);
  PhaseResult out;
  if (timed) out.call_us.reserve(1 << 18);
  std::vector<std::thread> gen;
  for (uint32_t t = 0; t < threads; ++t) {
    gen.emplace_back([&, t] {
      std::vector<Client*> mine(slots);
      for (uint32_t s = 0; s < slots; ++s) {
        mine[s] = (*clients)[t * slots + s].get();
      }
      std::vector<std::future<Response>> fut(slots);
      uint64_t start = NowNanos();
      for (uint32_t s = 0; s < slots; ++s) {
        fut[s] = svc->Submit(mine[s]->Next());
      }
      Tally& tally = tallies[t];
      // Once stop is set a slot submits nothing more, but every request
      // already submitted is still collected and checked.
      std::vector<bool> live(slots, true);
      uint32_t live_slots = slots;
      while (live_slots > 0) {
        for (uint32_t s = 0; s < slots; ++s) {
          if (!live[s]) continue;
          Response r = fut[s].get();
          const bool finished = mine[s]->Done(r, &tally);
          Account(r, finished, &tally);
          if (!finished) {
            fut[s] = svc->Submit(mine[s]->Next());
            continue;
          }
          if (timed && measuring.load(std::memory_order_relaxed)) {
            const uint64_t end = NowNanos();
            out.call_us.push_back(static_cast<double>(end - start) / 1e3);
            if (tracer != nullptr) {
              tracer->Add("svc.Call", trace_parent, start, end);
            }
          }
          ok_live[t].store(tally.ok, std::memory_order_relaxed);
          if (stop.load(std::memory_order_relaxed)) {
            live[s] = false;
            --live_slots;
            continue;
          }
          start = NowNanos();
          fut[s] = svc->Submit(mine[s]->Next());
        }
      }
    });
  }
  auto sum_ok = [&] {
    uint64_t n = 0;
    for (auto& c : ok_live) n += c.load(std::memory_order_relaxed);
    return n;
  };
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmSeconds));
  const uint64_t ok0 = sum_ok();
  const uint64_t t0 = NowNanos();
  measuring.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(measure));
  const uint64_t ok1 = sum_ok();
  const uint64_t t1 = NowNanos();
  stop.store(true);
  for (auto& g : gen) g.join();
  for (const Tally& t : tallies) out.tally.Merge(t);
  out.ok_per_s = static_cast<double>(ok1 - ok0) /
                 (static_cast<double>(t1 - t0) / 1e9);
  svc->Drain();
  out.scrape = ParseScrape(svc->DumpMetricsText());
  return out;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  // WAL directory; created and removed here
  std::string out;  // where spans and the result record go
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--dir") {
      a->dir = v;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->dir.empty() && !a->out.empty() &&
         a->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "point_read") return std::make_unique<PointRead>(seed);
  if (name == "durable_write") return std::make_unique<DurableWrite>(seed);
  if (name == "tpcc_txn") return std::make_unique<TpccTxnWorkload>(seed);
  return nullptr;
}

double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "oltpbench: %s\n", msg.c_str());
  std::exit(2);
}

std::unique_ptr<DurableKvStore> OpenStore(PosixFileBackend* fs,
                                          const std::string& prefix) {
  auto db = DurableKvStore::Open(fs, prefix, StoreOptions());
  if (!db.ok()) Die("open " + prefix + ": " + db.status().ToString());
  return std::move(db.value());
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr) Die("unknown workload " + args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  std::filesystem::create_directories(args.out, ec);
  if (ec) Die("cannot create " + args.dir + " / " + args.out);

  // Spans are recorded in both modes but only the traced run adds the
  // per-call ones and writes them out.
  Tracer tracer;
  const uint32_t root = tracer.Open("run", 0);
  HwBounds hw;
  if (args.trace) {
    const uint32_t id = tracer.Open("hw.Probe", root);
    hw = MeasureHardware();
    tracer.Close(id);
  }

  // Set-up: load the rows through PutBatch, construct the service.
  // Repeated; all but the last store are thrown away.
  PosixFileBackend fs;
  const auto& rows = wl->Rows();
  std::vector<uint64_t> keys(rows.size()), values(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    keys[i] = rows[i].first;
    values[i] = rows[i].second;
  }
  std::vector<double> setup_s;
  std::unique_ptr<DurableKvStore> db;
  std::unique_ptr<Service> svc;
  std::string prefix;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    db.reset();
    if (!prefix.empty()) std::filesystem::remove_all(prefix, ec);
    prefix = args.dir + "/setup" + std::to_string(rep);
    std::filesystem::create_directories(prefix, ec);
    const uint64_t t0 = NowNanos();
    db = OpenStore(&fs, prefix + "/db");
    for (size_t i = 0; i < keys.size(); i += kLoadChunk) {
      const size_t n = std::min(kLoadChunk, keys.size() - i);
      Status st = db->PutBatch(keys.data() + i, values.data() + i, n);
      if (!st.ok()) Die("load: " + st.ToString());
    }
    svc = std::make_unique<Service>(ServiceOptions{}, db.get());
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }

  // Light windows and sat segments alternate, kRounds of each, each on a
  // fresh Service. The end-to-end metrics take each round's statistic and
  // report the second-best round: a host disturbance (a slow shared disk,
  // a busy neighbour) then has to cover all but one round of a run to move
  // it, while a change to the program moves every round.
  const double light_s = args.seconds * kLightShare / kRounds;
  const double sat_s = args.seconds * (1 - kLightShare) / kRounds;
  std::vector<std::unique_ptr<Client>> light_clients;
  light_clients.push_back(wl->MakeClient(0, 1));
  const uint32_t threads = wl->SatThreads();
  const uint32_t nclients = threads * wl->SatSlotsPerThread();
  std::vector<std::unique_ptr<Client>> sat_clients;
  for (uint32_t i = 0; i < nclients; ++i) {
    sat_clients.push_back(wl->MakeClient(i, nclients));
  }
  auto fresh_service = [&] {
    svc.reset();
    svc = std::make_unique<Service>(ServiceOptions{}, db.get());
  };
  std::map<std::string, std::vector<double>> rounds;  // one value per round
  Tally total, sat_tally;
  double sat_records = 0, sat_groups = 0, sat_wal_bytes = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Light: one caller, one request in flight. Round 0 uses the service
    // set-up built.
    if (round > 0) fresh_service();
    PhaseResult light =
        RunPhase(svc.get(), &light_clients, 1, light_s, nullptr, 0);
    total.Merge(light.tally);
    rounds["light_p50"].push_back(Quantile(&light.call_us, 0.50));
    rounds["light_p90"].push_back(Quantile(&light.call_us, 0.90));
    rounds["light_p99"].push_back(Quantile(&light.call_us, 0.99));
    for (const char* phase : {"admit_wait", "batch_wait", "exec", "wal_sync"}) {
      rounds[std::string("light.") + phase].push_back(
          Field(light.scrape, std::string("svc.latency.") + phase, "p50") /
          1e3);
    }

    // Traced light: the same load with one svc.Call span per call; the
    // p50 difference is the tracing overhead.
    if (args.trace) {
      fresh_service();
      const uint32_t id = tracer.Open("phase.light", root);
      PhaseResult traced =
          RunPhase(svc.get(), &light_clients, 1, light_s, &tracer, id);
      tracer.Close(id);
      total.Merge(traced.tally);
      rounds["traced_p50"].push_back(Quantile(&traced.call_us, 0.50));
    }

    // Sat: 64 in flight.
    fresh_service();
    const auto log0 = db->log_stats();
    PhaseResult sat =
        RunPhase(svc.get(), &sat_clients, threads, sat_s, nullptr, 0);
    const auto log1 = db->log_stats();
    sat_records += static_cast<double>(log1.records - log0.records);
    sat_groups += static_cast<double>(log1.groups - log0.groups);
    sat_wal_bytes += static_cast<double>(log1.bytes - log0.bytes);
    sat_tally.Merge(sat.tally);
    const double batches = Field(sat.scrape, "svc.batches", "value");
    rounds["sat_rate"].push_back(sat.ok_per_s);
    rounds["sat.mean_batch"].push_back(
        Ratio(Field(sat.scrape, "svc.batched_requests", "value"), batches));
    rounds["sat.admit_wait"].push_back(
        Field(sat.scrape, "svc.latency.admit_wait", "p50") / 1e3);
    rounds["sat.total_p99"].push_back(
        Field(sat.scrape, "svc.latency.total", "p99") / 1e3);
    rounds["sat.steals"].push_back(
        Ratio(Field(sat.scrape, "svc.pool.steals", "value"), batches));
  }
  light_clients.clear();  // flushes per-client tallies (tpcc payments)
  sat_clients.clear();
  total.Merge(sat_tally);
  auto med = [&](const char* name) { return Median(rounds[name]); };
  auto second_best = [&](const char* name, bool higher_is_better) {
    std::vector<double> v = rounds[name];
    std::sort(v.begin(), v.end());
    if (higher_is_better) std::reverse(v.begin(), v.end());
    return v[1];
  };
  Metrics m;

  // Output check on the store reopened from its WAL.
  svc.reset();
  db.reset();
  const uint32_t reopen_id = tracer.Open("dur.Open", root);
  db = OpenStore(&fs, prefix + "/db");
  tracer.Close(reopen_id);
  std::string why = total.violation;
  bool correct = why.empty() && wl->Check(db.get(), &why);
  if (!correct) {
    std::fprintf(stderr, "oltpbench: %s check failed: %s\n",
                 args.workload.c_str(), why.c_str());
  }

  if (!args.trace) {
    m["setup_s"] = {Median(setup_s), "s"};
    m["light_p50_us"] = {second_best("light_p50", false), "us"};
    m["light_p90_us"] = {second_best("light_p90", false), "us"};
    m["sat_ops_s"] = {second_best("sat_rate", true), "1/s"};
    m["ok_frac"] = {Ratio(static_cast<double>(total.ok),
                          static_cast<double>(total.attempted)),
                    "frac"};
    m["peak_rss_mib"] = {PeakRssMib(), "MiB"};
  } else {
    // The ladder: the workload's own op stream, one caller, rung by rung.
    const uint32_t id = tracer.Open("ladder", root);
    RunLadder(wl->LadderStream(SubSeed(args.seed, 4)), db.get(),
              StoreOptions(), prefix, &tracer, id);
    tracer.Close(id);

    const double kv_get_ns = tracer.P50Nanos("kv.Get");
    const double kv_put_ns = tracer.P50Nanos("kv.Put");
    const double multiget_ns = tracer.P50Nanos("kv.MultiGet") / 64.0;
    const double dur_posix_us = tracer.P50Nanos("dur.Put.posix") / 1e3;
    const double txn_us = tracer.P50Nanos("txn.Txn") / 1e3;
    const double call_us = tracer.P50Nanos("svc.Call") / 1e3;
    // The rung svc.Call sits on: the layer its request type calls into.
    double below_us = kv_get_ns / 1e3;
    if (args.workload == "durable_write") below_us = dur_posix_us;
    if (args.workload == "tpcc_txn") below_us = txn_us;

    m["hw.dram_chase_ns"] = {hw.dram_chase_ns, "ns"};
    m["hw.stream_gbps"] = {hw.stream_gbps, "GB/s"};
    m["kv.get_ns"] = {kv_get_ns, "ns"};
    m["kv.multiget_ns_per_key"] = {multiget_ns, "ns"};
    m["kv.multiget_over_dram"] = {Ratio(multiget_ns, hw.dram_chase_ns),
                                  "ratio"};
    m["kv.put_ns"] = {kv_put_ns, "ns"};
    m["dur.put_mem_us"] = {tracer.P50Nanos("dur.Put.mem") / 1e3, "us"};
    m["dur.put_posix_us"] = {dur_posix_us, "us"};
    m["dur.self_us"] = {dur_posix_us - kv_put_ns / 1e3, "us"};
    m["dur.sync_floor_us"] = {tracer.P50Nanos("dur.Sync") / 1e3, "us"};
    m["dur.batch_put_us_per_op"] = {tracer.P50Nanos("dur.PutBatch") / 64e3,
                                    "us"};
    m["dur.mean_group"] = {Ratio(sat_records, sat_groups), "records/group"};
    m["dur.wal_bytes_per_user_byte"] = {
        Ratio(sat_wal_bytes, 16.0 * static_cast<double>(sat_tally.writes)),
        "B/B"};
    m["dur.recover_s"] = {tracer.P50Nanos("dur.Open") / 1e9, "s"};
    m["txn.commit_us"] = {txn_us, "us"};
    // Every commit attempt that did not commit aborted.
    const double attempts = static_cast<double>(sat_tally.txn_attempts);
    const double commits = static_cast<double>(sat_tally.txn_commits);
    m["txn.abort_frac"] = {Ratio(attempts - commits, attempts), "frac"};
    m["txn.attempts_per_ok"] = {Ratio(attempts, commits), "count"};
    m["svc.call_us"] = {call_us, "us"};
    m["svc.self_us"] = {call_us - below_us, "us"};
    m["svc.light.admit_wait_p50_us"] = {med("light.admit_wait"), "us"};
    m["svc.light.batch_wait_p50_us"] = {med("light.batch_wait"), "us"};
    m["svc.light.exec_p50_us"] = {med("light.exec"), "us"};
    m["svc.light.wal_p50_us"] = {med("light.wal_sync"), "us"};
    m["svc.light.call_p99_us"] = {med("light_p99"), "us"};
    m["svc.sat.mean_batch"] = {med("sat.mean_batch"), "count"};
    m["svc.sat.admit_wait_p50_us"] = {med("sat.admit_wait"), "us"};
    m["svc.sat.total_p99_us"] = {med("sat.total_p99"), "us"};
    m["svc.shed_frac"] = {Ratio(static_cast<double>(sat_tally.shed),
                                static_cast<double>(sat_tally.attempted)),
                          "frac"};
    m["exec.steals_per_batch"] = {med("sat.steals"), "count"};
    m["trace.overhead_frac"] = {
        Ratio(med("traced_p50") - med("light_p50"), med("light_p50")),
        "frac"};
  }

  // The host fingerprint and the result go to a record beside the spans.
  const std::string host =
      HostFingerprintJson(args.dir, args.trace ? &hw : nullptr);
  svc.reset();
  db.reset();
  std::filesystem::remove_all(args.dir, ec);

  std::string metrics = "{";
  for (const auto& [name, metric] : m) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.10g", metric.value);
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + buf +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  metrics += "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(total.attempted) +
      ", \"failed\": " + std::to_string(total.attempted - total.ok) +
      ", \"metrics\": " + metrics + "}";
  const std::string stem = args.out + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::string per_round = "{";
  for (const char* name : {"light_p50", "light_p90", "sat_rate"}) {
    per_round += std::string(per_round.size() > 1 ? ", " : "") +
                 JsonString(name) + ": [";
    for (size_t i = 0; i < rounds[name].size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.10g", i ? ", " : "",
                    rounds[name][i]);
      per_round += buf;
    }
    per_round += "]";
  }
  per_round += "}";
  if (FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %" PRIu64
                 ", \"seconds\": %.10g, \"trace\": %d,\n \"host\": %s,\n "
                 "\"rounds\": %s,\n \"result\": %s}\n",
                 JsonString(args.workload).c_str(), args.seed, args.seconds,
                 args.trace ? 1 : 0, host.c_str(), per_round.c_str(),
                 result.c_str());
    std::fclose(f);
  }
  if (args.trace) {
    tracer.Close(root);
    tracer.WriteJsonl(args.out + "/" + args.workload + "-spans.jsonl");
  }
  std::printf("host %s\n%s\n", host.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace oltpbench

int main(int argc, char** argv) {
  oltpbench::Args args;
  if (!oltpbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: oltpbench --workload point_read|durable_write|"
                 "tpcc_txn --seed N --seconds S --trace 0|1 --dir WALDIR "
                 "--out OUTDIR\n");
    return 2;
  }
  return oltpbench::Run(args);
}
