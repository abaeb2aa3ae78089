// Shared pieces of the OLTP-path benchmark: the clock, quantiles, the
// in-memory span log of the traced run, and the interface between the
// workload runner (main.cc) and the per-layer ladder (ladder.cc).
#ifndef OLTPBENCH_BENCH_H_
#define OLTPBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/svc/request.h"

namespace oltpbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank q-quantile (index ceil(q*n)-1, the library's definition);
/// sorts `v` in place. 0 when empty.
double Quantile(std::vector<double>* v, double q);

inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

/// One call into a layer as the benchmark saw it from outside: the span
/// is named after the entry point called, and its parent is the phase or
/// ladder rung that made the call (0 = the run itself).
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";  ///< static string
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// The traced run's span log. Kept in memory while the run measures and
/// written out once at exit. Single-threaded: only one caller thread
/// records spans (the light phase and the ladder each use one caller).
class Tracer {
 public:
  Tracer() { spans_.reserve(1u << 20); }

  /// Records a finished span; returns its id.
  uint32_t Add(const char* name, uint32_t parent, uint64_t start_ns,
               uint64_t end_ns);
  /// Starts a parent span now; Close() ends it.
  uint32_t Open(const char* name, uint32_t parent);
  void Close(uint32_t id);

  /// q-quantile of the durations of every span named `name`, in ns
  /// (0 when there is none).
  double QuantileNanos(const std::string& name, double q) const;
  double P50Nanos(const std::string& name) const {
    return QuantileNanos(name, 0.5);
  }

  /// One JSON object per line: id, parent, name, start_ns, end_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// The workload's own op stream, replayed by the ladder with one caller.
/// `keys`/`values` are every key the stream touches (with the value a
/// write of it would store); `txns` are the same ops grouped the way the
/// workload sends them (one op per txn for the point workloads).
struct OpStream {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  std::vector<std::vector<hwstar::svc::TxnOp>> txns;
};

/// Hardware bounds measured in-process.
struct HwBounds {
  double dram_chase_ns = 0;  ///< dependent load latency, buffer >> LLC
  double stream_gbps = 0;    ///< one-thread sequential read bandwidth
};

HwBounds MeasureHardware();

/// Times each rung of the layer ladder on `ops`, recording one span per
/// call: kv.Get, kv.MultiGet, kv.Put (volatile, on the store's KvStore),
/// dur.Put.mem (fresh store on InMemoryFileBackend), dur.Put.posix,
/// dur.PutBatch, dur.Sync (bare 4 KiB append + sync in `dir`) and
/// txn.Txn (Begin + ops + Commit). `store` is the reopened POSIX store;
/// the ladder writes to it, so it runs after the output check. Rung spans
/// hang under the span `ladder`.
void RunLadder(const OpStream& ops, hwstar::dur::DurableKvStore* store,
               const hwstar::dur::DurableKvOptions& options,
               const std::string& dir, Tracer* tracer, uint32_t ladder);

/// Host fingerprint as one JSON object: nproc, ISA flags, the cache
/// model, the filesystem holding `wal_dir`, and the tunable dump.
std::string HostFingerprintJson(const std::string& wal_dir,
                                const HwBounds* hw);

/// JSON string literal for `s`.
std::string JsonString(const std::string& s);

}  // namespace oltpbench

#endif  // OLTPBENCH_BENCH_H_
