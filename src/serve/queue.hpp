// Bounded, priority-aware admission queue — the backpressure point of the
// serving runtime.
//
// Capacity is a hard bound: when the queue is full, an arriving request
// either displaces the worst queued entry (strictly lower priority; the
// victim is shed as Overloaded) or is itself rejected. Within a priority
// level the queue is FIFO, so equal-priority traffic cannot starve itself.
// Shedding happens at admission, on the client's thread — workers only ever
// see work that was deliberately accepted.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace mocha::serve {

struct QueuedRequest {
  Request request;
  TicketPtr ticket;
  /// Admission timestamp (steady ns) for queue-wait accounting.
  std::uint64_t admitted_ns = 0;
  /// Submission sequence number; FIFO tiebreak within a priority.
  std::uint64_t id = 0;
};

class AdmissionQueue {
 public:
  enum class Admit {
    /// Queued; there was room.
    Queued,
    /// Queued; the lowest-priority entry was displaced (returned via
    /// *evicted — the caller sheds it as Overloaded).
    QueuedEvicted,
    /// Rejected: full, and nothing queued ranks strictly below the arrival.
    Rejected,
  };

  /// `depth_gauge` names the queue-depth metric lane — per-shard queues
  /// pass "serve.shardK.queue_depth" so fleet dashboards see one lane per
  /// fault domain (obs::lane_name).
  explicit AdmissionQueue(std::size_t capacity,
                          std::string depth_gauge = "serve.queue_depth");

  /// Admission decision for `item` (see Admit). Never blocks.
  Admit push(QueuedRequest item, QueuedRequest* evicted);

  /// Takes the highest-priority (then oldest) entry; blocks while the queue
  /// is open and empty. nullopt once closed *and* drained — the workers'
  /// exit signal.
  std::optional<QueuedRequest> pop();

  /// Work stealing: removes up to `max` entries from the *back* of the
  /// queue — the lowest-priority, youngest work, i.e. what would otherwise
  /// wait the longest here. Never blocks; may return fewer (or none).
  std::vector<QueuedRequest> steal_back(std::size_t max);

  /// Plain bounded append for stolen work arriving from another shard:
  /// queues `item` if there is room, no eviction. Returns false when full
  /// or closed (the item is untouched and stays with the caller).
  bool try_append(QueuedRequest& item);

  /// Stops admission and wakes blocked poppers. Queued entries remain
  /// poppable (drain-on-shutdown) unless drain() removes them.
  void close();

  /// Removes and returns everything queued (shutdown without drain).
  std::vector<QueuedRequest> drain();

  std::size_t size() const;

 private:
  struct Order {
    bool operator()(const QueuedRequest& a, const QueuedRequest& b) const {
      if (a.request.priority != b.request.priority) {
        return a.request.priority > b.request.priority;  // higher first
      }
      return a.id < b.id;  // FIFO within a priority
    }
  };

  const std::size_t capacity_;
  const std::string depth_gauge_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::multiset<QueuedRequest, Order> queue_;
  bool closed_ = false;
};

}  // namespace mocha::serve
