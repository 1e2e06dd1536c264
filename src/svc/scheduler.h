#ifndef BYZRENAME_SVC_SCHEDULER_H
#define BYZRENAME_SVC_SCHEDULER_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/repro.h"
#include "obs/metrics_registry.h"
#include "svc/admission.h"
#include "svc/api.h"

namespace byzrename::svc {

struct SchedulerOptions {
  /// Worker thread count; < 1 selects hardware concurrency.
  int threads = 0;
  AdmissionLimits admission;
  /// Max consecutive picks from one session before the next pick moves
  /// on to the next session — the fair-queueing quantum.
  std::size_t fair_quantum = 16;
  /// Completion hook, invoked with the scheduler mutex HELD as each
  /// instance finishes (latency in seconds, enqueue to completion).
  /// Must not call back into the scheduler. Benchmark instrumentation;
  /// leave empty in production.
  std::function<void(const InstanceResult&, double)> on_complete;
  /// Per-session verdict retention window: once a session holds more
  /// than this many completed results, the oldest are evicted (ROADMAP
  /// item 3 — the last unbounded store). A poll whose cursor points
  /// below the window reports PollResult::evicted; the daemon maps that
  /// to 404 `cursor-evicted`. 0 disables eviction (pre-retention
  /// behavior, for tests that replay full histories).
  std::size_t retention_cap = 65536;
};

/// Multiplexes many sessions' renaming instances over a fixed pool of
/// worker threads. The contract that makes the whole service testable:
/// a verdict is a pure function of its scenario (core::run_scenario's
/// re-entrancy guarantee), so WHEN an instance runs — which worker,
/// in what order, at what thread count — can never change WHAT it
/// returns, only when it becomes pollable.
///
/// Concurrency model: `threads` persistent workers, started by the
/// constructor, each pull one instance at a time. Under the scheduler
/// mutex an idle worker pops the next instance by per-pick round robin
/// (up to fair_quantum consecutive picks from one session, then the
/// next non-empty session in name order, wrapping); it evaluates it
/// outside the mutex and records the result under it. An instance thus
/// starts as soon as any worker is free. Every public member is
/// thread-safe.
///
/// Shutdown: shutdown(kCancelQueued) turns still-queued instances into
/// cancelled results (pollable, status "cancelled", no verdict) under
/// the mutex and lets in-flight ones complete; shutdown(kWaitAll) lets
/// the workers drain everything already admitted. Both stop admission
/// first (submits report `draining`) and block until every worker has
/// exited. The destructor is shutdown(kCancelQueued).
class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  enum class DrainMode {
    kWaitAll,      ///< run every admitted instance, then stop
    kCancelQueued, ///< cancel queued instances; in-flight complete
  };

  struct SubmitOutcome {
    bool admitted = false;
    bool unknown_session = false;
    bool draining = false;
    std::uint64_t first_id = 0;   ///< ids are first_id .. first_id+accepted-1
    std::size_t accepted = 0;
    std::string reason;           ///< admission reason when rejected
    int retry_after_seconds = 0;
  };

  struct PollResult {
    bool unknown_session = false;
    /// The requested cursor points below the retention window: the
    /// results there have been evicted and cannot be replayed. items is
    /// empty; oldest_cursor is where retained history begins.
    bool evicted = false;
    std::vector<InstanceResult> items;  ///< completion order
    std::uint64_t cursor = 0;           ///< pass back to continue
    std::uint64_t oldest_cursor = 0;    ///< first still-retained cursor
    std::size_t pending = 0;            ///< submitted, not yet pollable
    bool draining = false;
  };

  /// Idempotent: returns true when the session was created, false when
  /// it already existed (reopening is not an error — clients retry).
  /// Refused (returns false with draining()) once shutdown began.
  bool open_session(const std::string& session);

  /// Admission-checked enqueue. The batch is admitted or rejected
  /// whole.
  SubmitOutcome submit(const std::string& session, std::vector<exp::ReproScenario> instances);

  /// Results for @p session from @p cursor on, at most @p max_items.
  /// With @p wait_ms > 0 blocks up to that long for the first new
  /// result (long-poll); returns immediately once anything is
  /// available.
  PollResult poll(const std::string& session, std::uint64_t cursor, std::size_t max_items,
                  int wait_ms = 0);

  /// Blocks until no instance is queued or running. Test/bench helper.
  void wait_idle();

  /// Stops admission, drains per @p mode, joins the workers.
  /// Idempotent; the first caller's mode wins.
  void shutdown(DrainMode mode);

  [[nodiscard]] bool draining() const;

  /// Prometheus families (service gauges, per-tenant counters, the
  /// queue-wait and completion-latency histograms) under the scheduler
  /// mutex — mount as an ExpositionHub writer.
  void write_metrics(std::ostream& os) const;

  [[nodiscard]] int threads() const noexcept { return static_cast<int>(workers_.size()); }

 private:
  struct Queued {
    std::uint64_t id = 0;
    exp::ReproScenario scenario;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Session {
    std::deque<Queued> queue;
    /// Completed results still retained, in completion order. Cursor c
    /// addresses done[c - evicted]; the front is dropped once the
    /// retention cap is exceeded.
    std::deque<InstanceResult> done;
    /// Results evicted off the front of done; done's base cursor.
    std::uint64_t evicted = 0;
    std::uint64_t submitted_total = 0;
    /// Results ever completed (retained + evicted).
    [[nodiscard]] std::uint64_t completed_total() const noexcept {
      return evicted + done.size();
    }
    /// Per-tenant counter handles in the shared registry.
    obs::MetricsRegistry::Handle submitted = 0;
    obs::MetricsRegistry::Handle completed = 0;
    obs::MetricsRegistry::Handle ok = 0;
    obs::MetricsRegistry::Handle violations = 0;
    obs::MetricsRegistry::Handle cancelled = 0;
    obs::MetricsRegistry::Handle rejected = 0;
    obs::MetricsRegistry::Handle evicted_metric = 0;
    /// Thread CPU time spent inside this tenant's verdict evaluations
    /// (obs/prof thread_cpu_ns deltas around evaluate_scenario), in
    /// microseconds — the per-tenant cost attribution an operator bills
    /// or throttles on.
    obs::MetricsRegistry::Handle cpu_micros = 0;
  };

  using SessionMap = std::map<std::string, Session, std::less<>>;

  void worker_loop();
  /// The session the next pick comes from; requires total_queued_ > 0.
  SessionMap::iterator next_session_locked();
  void record_result_locked(Session& session, InstanceResult result,
                            std::chrono::steady_clock::time_point enqueued);
  void update_gauges_locked();

  SchedulerOptions options_;
  AdmissionController admission_;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;        ///< wakes idle workers
  mutable std::condition_variable results_cv_; ///< wakes poll/wait_idle
  SessionMap sessions_;
  /// Round robin: the last pick's session and its consecutive picks so
  /// far. Sessions are never erased, so the iterator stays valid.
  SessionMap::iterator pick_at_ = sessions_.end();
  std::size_t pick_streak_ = 0;
  std::size_t total_queued_ = 0;
  std::size_t total_running_ = 0;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;

  /// EWMA completions/second (tau 5 s), feeding Retry-After.
  double ewma_rate_ = 0.0;
  std::chrono::steady_clock::time_point last_completion_{};
  bool has_completion_ = false;

  obs::MetricsRegistry registry_;
  obs::MetricsRegistry::Handle sessions_gauge_ = 0;
  obs::MetricsRegistry::Handle queued_gauge_ = 0;
  obs::MetricsRegistry::Handle running_gauge_ = 0;
  obs::MetricsRegistry::Handle draining_gauge_ = 0;
  obs::MetricsRegistry::Handle queue_wait_hist_ = 0;
  obs::MetricsRegistry::Handle latency_hist_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace byzrename::svc

#endif  // BYZRENAME_SVC_SCHEDULER_H
