// The traced run's per-layer side: the span log, the layer ladder, the
// in-process hardware bounds and the host fingerprint.
#include <sys/vfs.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.h"
#include "hwstar/common/random.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/hw/machine_model.h"
#include "hwstar/hw/topology.h"
#include "hwstar/sim/roofline.h"
#include "hwstar/tune/tunable.h"
#include "hwstar/txn/transaction.h"

namespace oltpbench {

using hwstar::Status;
using hwstar::dur::DurableKvStore;
using hwstar::svc::TxnOp;

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double n = static_cast<double>(v->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

// ---------------------------------------------------------------------------
// Tracer

uint32_t Tracer::Add(const char* name, uint32_t parent, uint64_t start_ns,
                     uint64_t end_ns) {
  const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  spans_.push_back(Span{id, parent, name, start_ns, end_ns});
  return id;
}

uint32_t Tracer::Open(const char* name, uint32_t parent) {
  const uint64_t now = NowNanos();
  return Add(name, parent, now, now);
}

void Tracer::Close(uint32_t id) { spans_[id - 1].end_ns = NowNanos(); }

double Tracer::QuantileNanos(const std::string& name, double q) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (name == s.name) d.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return Quantile(&d, q);
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %" PRIu64 ", \"end_ns\": %" PRIu64 "}\n",
                 s.id, s.parent, s.name, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Hardware bounds

namespace {

// Larger than the per-tenant share of any LLC this runs on; the host
// reports its L3 in the fingerprint, so a reader can tell if it is not.
constexpr size_t kProbeBytes = size_t{256} << 20;
constexpr size_t kChaseHops = size_t{1} << 20;
constexpr int kProbeReps = 5;

}  // namespace

HwBounds MeasureHardware() {
  HwBounds out;
  const size_t words = kProbeBytes / sizeof(uint64_t);
  const size_t lines = kProbeBytes / 64;
  std::vector<uint64_t> buf(words, 0);

  // One random cycle through every cache line (Sattolo), so each load's
  // address depends on the previous load and nothing prefetches it.
  std::vector<uint32_t> order(lines);
  std::iota(order.begin(), order.end(), 0u);
  hwstar::Xoshiro256 rng(0x243f6a8885a308d3ULL);
  for (size_t i = lines - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i)]);
  }
  for (size_t i = 0; i < lines; ++i) {
    buf[static_cast<size_t>(order[i]) * 8] =
        static_cast<uint64_t>(order[(i + 1) % lines]) * 8;
  }
  std::vector<double> chase, stream;
  uint64_t idx = 0;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const uint64_t t0 = NowNanos();
    for (size_t h = 0; h < kChaseHops; ++h) idx = buf[idx];
    chase.push_back(static_cast<double>(NowNanos() - t0) / kChaseHops);
  }
  for (int rep = 0; rep < kProbeReps; ++rep) {
    uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    const uint64_t t0 = NowNanos();
    for (size_t i = 0; i < words; i += 4) {
      s0 += buf[i];
      s1 += buf[i + 1];
      s2 += buf[i + 2];
      s3 += buf[i + 3];
    }
    const uint64_t ns = NowNanos() - t0;
    idx += s0 + s1 + s2 + s3;  // keeps the sums live
    stream.push_back(static_cast<double>(kProbeBytes) /
                     static_cast<double>(ns));
  }
  // `idx` is printed so the compiler cannot drop either loop.
  std::fprintf(stderr, "hw probe checksum %" PRIu64 "\n", idx);
  out.dram_chase_ns = Median(chase);
  out.stream_gbps = Median(stream);
  return out;
}

// ---------------------------------------------------------------------------
// The ladder

namespace {

// Each rung stops after its ops or this long, whichever comes first; the
// first kWarmOps calls of a rung are not recorded.
constexpr double kRungSeconds = 1.0;
constexpr size_t kWarmOps = 64;
constexpr size_t kBatch = 64;

// Runs `op(i)` for i = 0.. n-1 under a parent span `rung`, recording one
// span named `name` per call.
template <typename Op>
void Rung(Tracer* tr, uint32_t ladder, const char* rung, const char* name,
          size_t n, Op op) {
  const uint32_t parent = tr->Open(rung, ladder);
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(kRungSeconds * 1e9);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t t0 = NowNanos();
    op(i);
    const uint64_t t1 = NowNanos();
    if (i >= kWarmOps) tr->Add(name, parent, t0, t1);
    if (t1 > deadline && i >= 2 * kWarmOps) break;
  }
  tr->Close(parent);
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "oltpbench: ladder %s: %s\n", what,
                 st.ToString().c_str());
    std::exit(2);
  }
}

// The op stream cut into key-sorted runs of kBatch (the shape the svc
// batcher hands the layers below it): keys and values, run after run.
void SortedRuns(const OpStream& ops, std::vector<uint64_t>* keys,
                std::vector<uint64_t>* values) {
  const size_t n = ops.keys.size() / kBatch * kBatch;
  std::vector<std::pair<uint64_t, uint64_t>> kv;
  for (size_t i = 0; i < n; ++i) kv.emplace_back(ops.keys[i], ops.values[i]);
  for (size_t i = 0; i < n; i += kBatch) {
    std::sort(kv.begin() + i, kv.begin() + i + kBatch);
  }
  for (const auto& [k, v] : kv) {
    keys->push_back(k);
    values->push_back(v);
  }
}

}  // namespace

void RunLadder(const OpStream& ops, DurableKvStore* store,
               const hwstar::dur::DurableKvOptions& options,
               const std::string& dir, Tracer* tr, uint32_t ladder) {
  hwstar::kv::KvStore* kv = store->kv();
  const size_t n = ops.keys.size();
  const size_t runs = n / kBatch;
  std::vector<uint64_t> run_keys, run_values;
  SortedRuns(ops, &run_keys, &run_values);
  uint64_t sink = 0;

  Rung(tr, ladder, "rung.kv.Get", "kv.Get", n, [&](size_t i) {
    auto r = kv->Get(ops.keys[i]);
    if (r.ok()) sink += r.value();
  });
  uint64_t got[kBatch];
  bool found[kBatch];
  Rung(tr, ladder, "rung.kv.MultiGet", "kv.MultiGet", runs, [&](size_t run) {
    kv->MultiGet(&run_keys[run * kBatch], kBatch, got, found);
    sink += got[0];
  });
  Rung(tr, ladder, "rung.kv.Put", "kv.Put", n,
       [&](size_t i) { kv->Put(ops.keys[i], ops.values[i]); });

  {
    hwstar::dur::InMemoryFileBackend mem;
    auto db = DurableKvStore::Open(&mem, "ladder", options);
    MustOk(db.status(), "open in-memory store");
    Rung(tr, ladder, "rung.dur.Put.mem", "dur.Put.mem", n, [&](size_t i) {
      MustOk(db.value()->Put(ops.keys[i], ops.values[i]), "in-memory put");
    });
  }
  Rung(tr, ladder, "rung.dur.Put.posix", "dur.Put.posix", n, [&](size_t i) {
    MustOk(store->Put(ops.keys[i], ops.values[i]), "posix put");
  });
  Rung(tr, ladder, "rung.dur.PutBatch", "dur.PutBatch", runs, [&](size_t run) {
    MustOk(store->PutBatch(&run_keys[run * kBatch], &run_values[run * kBatch],
                           kBatch),
           "put batch");
  });

  {
    // The device floor under the WAL: a bare 4 KiB append + sync through
    // the same backend and sync mode the log uses.
    hwstar::dur::PosixFileBackend fs;
    const std::string path = dir + "/sync-probe";
    auto file = fs.OpenForAppend(path);
    MustOk(file.status(), "open sync probe");
    std::vector<char> page(4096, 'x');
    Rung(tr, ladder, "rung.dur.Sync", "dur.Sync", n, [&](size_t) {
      MustOk(file.value()->Append(page.data(), page.size()), "probe append");
      MustOk(file.value()->Sync(options.log.sync), "probe sync");
    });
    MustOk(file.value()->Close(), "close sync probe");
    MustOk(fs.Remove(path), "remove sync probe");
  }

  hwstar::txn::TxnManager mgr(store);
  Rung(tr, ladder, "rung.txn", "txn.Txn", ops.txns.size(), [&](size_t i) {
    hwstar::txn::Transaction tx = mgr.Begin();
    Status st;
    for (const TxnOp& op : ops.txns[i]) {
      uint64_t v = 0;
      bool f = false;
      switch (op.kind) {
        case TxnOp::Kind::kGet:
          st = tx.Get(op.key, &v, &f);
          sink += v;
          break;
        case TxnOp::Kind::kPut:
          tx.Put(op.key, op.value);
          break;
        case TxnOp::Kind::kAdd:
          st = tx.Get(op.key, &v, &f);
          tx.Put(op.key, v + op.value);
          break;
        case TxnOp::Kind::kDelete:
          tx.Delete(op.key);
          break;
      }
      if (!st.ok()) break;
    }
    if (st.ok()) {
      MustOk(tx.Commit(), "txn commit");  // one caller: nothing to race
    } else {
      tx.Abort();
    }
  });
  std::fprintf(stderr, "ladder checksum %" PRIu64 "\n", sink);
}

// ---------------------------------------------------------------------------
// Host fingerprint

namespace {

std::string FsName(const std::string& dir) {
  struct statfs sf;
  if (statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<uint64_t>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(sf.f_type));
      return buf;
    }
  }
}

}  // namespace

std::string HostFingerprintJson(const std::string& wal_dir,
                                const HwBounds* hw) {
  const hwstar::hw::CpuTopology topo = hwstar::hw::DiscoverTopology();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"isa\": " << JsonString(hwstar::hw::DetectIsaFeatures().ToString())
     << ", \"caches\": "
     << JsonString(hwstar::hw::MachineModel::FromHost(topo).ToString())
     << ", \"wal_fs\": " << JsonString(FsName(wal_dir));
  if (hw != nullptr) {
    hwstar::sim::RooflineModel::Params p;
    p.peak_bandwidth_gbps = hw->stream_gbps;
    os << ", \"roofline\": "
       << JsonString(hwstar::sim::RooflineModel(p).ToString());
  }
  os << ", \"tunables\": [";
  std::istringstream lines(hwstar::tune::Registry::Global().DumpText());
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    os << (first ? "" : ", ") << JsonString(line);
    first = false;
  }
  os << "]}";
  return os.str();
}

}  // namespace oltpbench
