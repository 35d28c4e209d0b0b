// Chrome trace-event tracing with two clock domains.
//
// A TraceSession collects timeline events and writes one Chrome
// trace-event JSON document (loadable in chrome://tracing or Perfetto's
// legacy importer) when it closes. Events live in two synthetic
// "processes", one per clock domain:
//
//  * pid 1, "simulated" — discrete-event engine time. One lane (tid) per
//    resource *unit* ("dram_channels", "pe_groups[2]", ...), one complete
//    event per executed task, timestamps in cycles rendered as
//    microseconds (1 cycle == 1 us on screen).
//  * pid 2, "wall clock" — real time. One lane per OS thread, events from
//    MOCHA_TRACE_SCOPE spans in the executor, planner, codecs, and thread
//    pool, timestamps from steady_clock in microseconds.
//
// Cost policy: with no session active, a MOCHA_TRACE_SCOPE is one relaxed
// atomic load (and compiles out entirely under -DMOCHA_OBS=0). With a
// session active, wall spans append to per-thread buffers — no shared lock
// on the hot path — merged when the session closes. The session must
// outlive all instrumented work (create it in main around the run).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mocha::obs {

class TraceSession {
 public:
  /// Opens a session writing to `path` on close and installs it as the
  /// process-active session. Only one session may be active at a time.
  explicit TraceSession(std::string path);

  /// Uninstalls the session and writes the trace document.
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The active session, or nullptr (relaxed read; safe from any thread).
  static TraceSession* active();

  // ---- Simulated clock domain ----

  /// Records a complete event on a simulated-time lane. `ts_cycles` is
  /// relative to the current sim offset (see below), so successive engine
  /// runs lay out sequentially on shared lanes. Non-negative `group` /
  /// `task` ids are stamped into the event's args ({"g": N, "task": N}) so
  /// critical-path reports can be cross-referenced against the trace.
  void sim_event(const std::string& lane, const std::string& name,
                 const char* category, std::uint64_t ts_cycles,
                 std::uint64_t dur_cycles, std::int64_t group = -1,
                 std::int64_t task = -1);

  /// Records one endpoint of a Chrome flow event (`ph:"s"` when `begin`,
  /// else `ph:"f"` with `bp:"e"`) on a simulated-time lane. Both endpoints
  /// of a flow share `flow_id` (allocate with next_flow_id()) and must use
  /// the same `name`/`category` literals. Emitted by sim::emit_trace for
  /// task dependence edges when flows are enabled.
  void sim_flow(const std::string& lane, const char* name,
                const char* category, std::uint64_t ts_cycles,
                std::uint64_t flow_id, bool begin);

  std::uint64_t next_flow_id();

  /// Dependence-edge flow events are opt-in (mocha_sim --trace-flows) so
  /// default trace documents — and their goldens — keep the
  /// complete-events-only shape.
  bool sim_flows_enabled() const {
    return sim_flows_.load(std::memory_order_relaxed);
  }
  void set_sim_flows(bool enabled) {
    sim_flows_.store(enabled, std::memory_order_relaxed);
  }

  /// Base added to every sim_event timestamp. The accelerator advances it
  /// by each group's cycle count so the whole network renders as one
  /// contiguous simulated timeline.
  std::uint64_t sim_offset() const { return sim_offset_; }
  void set_sim_offset(std::uint64_t cycles) { sim_offset_ = cycles; }

  // ---- Wall clock domain ----

  /// Records a complete wall-clock event on the calling thread's lane.
  /// Timestamps are steady_clock nanoseconds (see wall_now_ns).
  void wall_event(const char* name, const char* category,
                  std::uint64_t start_ns, std::uint64_t end_ns);

  /// Writes the trace document with the events recorded *so far* — the
  /// session stays installed and keeps collecting. The write is atomic
  /// (tmp + rename), so a signal-drain path can flush mid-run and hard-exit
  /// without ever leaving a truncated file; the destructor's final write
  /// simply replaces this snapshot.
  void flush();

  /// Total events recorded so far (tests).
  std::size_t event_count() const;

 private:
  struct Event {
    std::string name;
    const char* category;  // string literals only
    double ts_us = 0;
    double dur_us = 0;
    int tid = 0;
    std::int64_t group = -1;  // >= 0: emitted as args.g
    std::int64_t task = -1;   // >= 0: emitted as args.task
  };

  struct FlowEvent {
    const char* name;      // string literals only
    const char* category;  // string literals only
    double ts_us = 0;
    int tid = 0;
    std::uint64_t id = 0;
    bool begin = false;  // true => ph "s", false => ph "f"
  };

  struct ThreadBuf {
    std::mutex mu;  // owner-held on append, session-held on collect
    int tid = 0;
    std::vector<Event> events;
  };

  ThreadBuf& local_buf();
  void write_document();

  std::string path_;
  std::uint64_t id_ = 0;  // distinguishes sessions for thread-local caches
  std::uint64_t sim_offset_ = 0;
  std::atomic<bool> sim_flows_{false};
  std::atomic<std::uint64_t> next_flow_id_{1};

  mutable std::mutex mu_;  // guards the fields below
  std::vector<Event> sim_events_;
  std::vector<FlowEvent> sim_flows_events_;
  std::map<std::string, int> sim_lanes_;  // lane name -> tid, discovery order
  std::vector<std::unique_ptr<ThreadBuf>> wall_bufs_;
};

/// True when a session is active (one relaxed atomic load).
bool tracing_active();

/// steady_clock now, in nanoseconds since an arbitrary epoch.
std::uint64_t wall_now_ns();

/// RAII wall-clock span: samples the clock on construction and records a
/// complete event on destruction, if a session was active at construction.
class TraceScope {
 public:
  TraceScope(const char* name, const char* category)
      : name_(name), category_(category), session_(TraceSession::active()) {
    if (session_ != nullptr) start_ns_ = wall_now_ns();
  }

  ~TraceScope() {
    if (session_ != nullptr) {
      session_->wall_event(name_, category_, start_ns_, wall_now_ns());
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  const char* category_;
  TraceSession* session_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace mocha::obs

#define MOCHA_OBS_CONCAT_INNER(a, b) a##b
#define MOCHA_OBS_CONCAT(a, b) MOCHA_OBS_CONCAT_INNER(a, b)

#if MOCHA_OBS
/// Profiles the enclosing scope as a wall-clock span. `name` and `category`
/// must be string literals (they are stored by pointer).
#define MOCHA_TRACE_SCOPE(name, category)            \
  ::mocha::obs::TraceScope MOCHA_OBS_CONCAT(         \
      mocha_trace_scope_, __LINE__) { (name), (category) }
#else
#define MOCHA_TRACE_SCOPE(name, category) ((void)0)
#endif
