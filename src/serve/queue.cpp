#include "serve/queue.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace mocha::serve {

AdmissionQueue::AdmissionQueue(std::size_t capacity, std::string depth_gauge)
    : capacity_(capacity), depth_gauge_(std::move(depth_gauge)) {
  MOCHA_CHECK(capacity >= 1, "admission queue needs capacity >= 1");
}

AdmissionQueue::Admit AdmissionQueue::push(QueuedRequest item,
                                           QueuedRequest* evicted) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return Admit::Rejected;
  Admit admit = Admit::Queued;
  if (queue_.size() >= capacity_) {
    // The worst entry sorts last. Displace it only for a *strictly* higher
    // priority arrival — equal priority keeps the earlier request (FIFO
    // fairness under overload).
    auto worst = std::prev(queue_.end());
    if (worst->request.priority >= item.request.priority) {
      return Admit::Rejected;
    }
    *evicted = std::move(queue_.extract(worst).value());
    admit = Admit::QueuedEvicted;
  }
  queue_.insert(std::move(item));
  MOCHA_METRIC_GAUGE(depth_gauge_,
                     static_cast<std::int64_t>(queue_.size()));
  lock.unlock();
  cv_.notify_one();
  return admit;
}

std::optional<QueuedRequest> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // closed and drained
  QueuedRequest item = std::move(queue_.extract(queue_.begin()).value());
  MOCHA_METRIC_GAUGE(depth_gauge_,
                     static_cast<std::int64_t>(queue_.size()));
  return item;
}

std::vector<QueuedRequest> AdmissionQueue::steal_back(std::size_t max) {
  std::vector<QueuedRequest> out;
  std::lock_guard<std::mutex> lock(mu_);
  while (out.size() < max && !queue_.empty()) {
    out.push_back(std::move(queue_.extract(std::prev(queue_.end())).value()));
  }
  MOCHA_METRIC_GAUGE(depth_gauge_,
                     static_cast<std::int64_t>(queue_.size()));
  return out;
}

bool AdmissionQueue::try_append(QueuedRequest& item) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_ || queue_.size() >= capacity_) return false;
  queue_.insert(std::move(item));
  MOCHA_METRIC_GAUGE(depth_gauge_,
                     static_cast<std::int64_t>(queue_.size()));
  lock.unlock();
  cv_.notify_one();
  return true;
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<QueuedRequest> AdmissionQueue::drain() {
  std::vector<QueuedRequest> out;
  std::lock_guard<std::mutex> lock(mu_);
  while (!queue_.empty()) {
    out.push_back(std::move(queue_.extract(queue_.begin()).value()));
  }
  MOCHA_METRIC_GAUGE(depth_gauge_, 0);
  return out;
}

std::size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace mocha::serve
