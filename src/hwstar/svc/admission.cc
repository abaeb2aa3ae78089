#include "hwstar/svc/admission.h"

namespace hwstar::svc {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

AdmissionQueue::AdmissionQueue(AdmissionOptions options)
    : options_(options) {}

Status AdmissionQueue::TryAdmit(TicketPtr& ticket, Priority min_priority) {
  const Request& req = ticket->request;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    if (closed_) {
      // Not an overload signal: counting this as shed_queue_full would
      // make a clean shutdown look like queue pressure to operators.
      ++stats_.shed_shutdown;
      return Status::FailedPrecondition("service shutting down");
    }
    if (req.deadline_nanos != 0 && ticket->submit_nanos > req.deadline_nanos) {
      ++stats_.shed_deadline;
      return Status::DeadlineExceeded("deadline expired before admission");
    }
    if (req.priority < min_priority) {
      ++stats_.shed_priority;
      return Status::ResourceExhausted(
          "load shed: priority below overload floor");
    }
    if (options_.max_queue_depth != 0 &&
        depth_.load(kRelaxed) >= options_.max_queue_depth) {
      ++stats_.shed_queue_full;
      return Status::ResourceExhausted("load shed: admission queue full");
    }
    if (options_.per_tenant_quota != 0) {
      auto it = tenant_depth_.find(req.tenant);
      if (it != tenant_depth_.end() &&
          it->second >= options_.per_tenant_quota) {
        ++stats_.shed_tenant_quota;
        return Status::ResourceExhausted("load shed: tenant quota exceeded");
      }
    }
    if (options_.memory_budget_bytes != 0 &&
        queued_bytes_.load(kRelaxed) + ticket->estimated_bytes >
            options_.memory_budget_bytes) {
      ++stats_.shed_memory;
      return Status::ResourceExhausted("load shed: memory budget exceeded");
    }
    ++stats_.admitted;
    depth_.store(depth_.load(kRelaxed) + 1, kRelaxed);
    ++tenant_depth_[req.tenant];
    queued_bytes_.store(queued_bytes_.load(kRelaxed) + ticket->estimated_bytes,
                        kRelaxed);
    queues_[static_cast<uint8_t>(req.priority)].push_back(std::move(ticket));
  }
  cv_.notify_one();
  return Status::OK();
}

bool AdmissionQueue::PopBatch(std::vector<TicketPtr>* out, uint32_t max) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return depth_.load(kRelaxed) > 0 || closed_; });
  uint32_t depth = depth_.load(kRelaxed);
  if (depth == 0) return false;  // closed and drained
  uint64_t bytes = queued_bytes_.load(kRelaxed);
  // Highest priority first, FIFO within each priority.
  for (int p = kNumPriorities - 1; p >= 0 && out->size() < max; --p) {
    auto& q = queues_[p];
    while (!q.empty() && out->size() < max) {
      TicketPtr t = std::move(q.front());
      q.pop_front();
      --depth;
      auto td = tenant_depth_.find(t->request.tenant);
      if (td != tenant_depth_.end() && --td->second == 0) {
        // Erase drained tenants: leaving zero-count entries behind grows
        // the map without bound under tenant churn.
        tenant_depth_.erase(td);
      }
      bytes -= t->estimated_bytes;
      out->push_back(std::move(t));
    }
  }
  depth_.store(depth, kRelaxed);
  queued_bytes_.store(bytes, kRelaxed);
  return true;
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

void AdmissionQueue::NoteExpired(uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.expired_in_queue += n;
}

uint32_t AdmissionQueue::tenant_depth(uint32_t tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenant_depth_.find(tenant);
  return it == tenant_depth_.end() ? 0 : it->second;
}

size_t AdmissionQueue::tenant_map_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenant_depth_.size();
}

AdmissionStats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace hwstar::svc
