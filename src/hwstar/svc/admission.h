#ifndef HWSTAR_SVC_ADMISSION_H_
#define HWSTAR_SVC_ADMISSION_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "hwstar/svc/request.h"

namespace hwstar::svc {

/// Admission bounds. Every bound set to 0 disables that check; with all
/// of them 0 the queue is unbounded and never sheds — the
/// hardware-oblivious baseline bench_e14 measures queueing collapse on.
struct AdmissionOptions {
  /// Maximum queued requests across all tenants and priorities.
  uint32_t max_queue_depth = 1024;
  /// Maximum queued requests per tenant (isolation between tenants: one
  /// flooding tenant exhausts its own quota, not the shared queue).
  uint32_t per_tenant_quota = 0;
  /// Maximum estimated bytes pinned by queued requests.
  uint64_t memory_budget_bytes = 0;
};

/// Why requests were admitted or shed. Monotonic counters.
struct AdmissionStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_tenant_quota = 0;
  uint64_t shed_memory = 0;
  uint64_t shed_priority = 0;   ///< below the policy's admitted floor
  uint64_t shed_deadline = 0;   ///< already expired at submit
  uint64_t shed_shutdown = 0;   ///< submitted after Close(); not overload
  uint64_t expired_in_queue = 0;  ///< expired between admit and execute

  uint64_t shed_total() const {
    return shed_queue_full + shed_tenant_quota + shed_memory +
           shed_priority + shed_deadline + shed_shutdown + expired_in_queue;
  }
};

/// One request in flight through the service: the envelope, the promise
/// its response is delivered on, and the per-phase timestamps.
struct Ticket {
  Request request;
  uint64_t submit_nanos = 0;     ///< stamped by Service::Submit
  uint64_t admit_nanos = 0;      ///< stamped when a worker pops it
  uint64_t estimated_bytes = 0;  ///< EstimatedRequestBytes at submit
  std::promise<Response> promise;
};

using TicketPtr = std::unique_ptr<Ticket>;

/// A bounded, priority-ordered MPMC admission queue: the "never
/// unbounded growth" discipline of McKenney's bounded shared queues.
/// Producers (client threads) call TryAdmit and are rejected — never
/// blocked — when a bound would be exceeded; consumers (the service's
/// workers) pop batches, highest priority first, FIFO within a priority.
/// Thread-safe.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options);

  /// Admits `ticket` (moving it into the queue) and returns OK, or
  /// rejects it — leaving `ticket` untouched for the caller to complete —
  /// with ResourceExhausted naming the exhausted bound, or
  /// DeadlineExceeded when the deadline already passed.
  /// `min_priority` is the overload policy's current admission floor.
  Status TryAdmit(TicketPtr& ticket, Priority min_priority = Priority::kLow);

  /// Pops up to `max` tickets into `out`, blocking until at least one is
  /// available or Close() was called. Never lingers for batch-mates: the
  /// batch is whatever backlog queued up while the caller was busy.
  /// Returns false only when closed and drained.
  bool PopBatch(std::vector<TicketPtr>* out, uint32_t max);

  /// Wakes poppers; subsequent TryAdmit calls are rejected.
  void Close();

  /// Counts a request that expired after admission (worker-side).
  void NoteExpired(uint64_t n);

  /// Lock-free reads of the queue's fill: advisory overload signals, so a
  /// value a few pushes or pops stale is as good as an exact one.
  uint32_t depth() const { return depth_.load(std::memory_order_relaxed); }
  uint64_t queued_bytes() const {
    return queued_bytes_.load(std::memory_order_relaxed);
  }
  uint32_t tenant_depth(uint32_t tenant) const;
  /// Tenants with queued requests right now. Bounded by depth(): entries
  /// are erased when a tenant's last queued request is popped, so tenant
  /// churn never grows the map without bound.
  size_t tenant_map_size() const;
  AdmissionStats stats() const;
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// One FIFO per priority; index = static_cast<uint8_t>(Priority).
  std::array<std::deque<TicketPtr>, kNumPriorities> queues_;
  std::unordered_map<uint32_t, uint32_t> tenant_depth_;
  /// Written only under mutex_; atomic so depth()/queued_bytes() skip it.
  std::atomic<uint32_t> depth_{0};
  std::atomic<uint64_t> queued_bytes_{0};
  bool closed_ = false;
  AdmissionStats stats_;
};

}  // namespace hwstar::svc

#endif  // HWSTAR_SVC_ADMISSION_H_
