#include "svc/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/prof/profiler.h"

namespace byzrename::svc {

namespace {

/// EWMA time constant for the completion-rate estimate behind
/// Retry-After; matches exp::ProgressTracker's throughput horizon.
constexpr double kEwmaTauSeconds = 5.0;

}  // namespace

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)), admission_(options_.admission) {
  if (options_.fair_quantum == 0) options_.fair_quantum = 1;
  sessions_gauge_ = registry_.gauge("byzrenamed_sessions", "Open sessions.");
  queued_gauge_ = registry_.gauge("byzrenamed_queued_instances",
                                  "Instances admitted but not yet dispatched.");
  running_gauge_ = registry_.gauge("byzrenamed_running_instances",
                                   "Instances currently executing on a worker.");
  draining_gauge_ = registry_.gauge("byzrenamed_draining",
                                    "1 while shutdown is draining, else 0.");
  // One set of buckets for both, so their difference reads as execution.
  const auto latency_bounds = obs::MetricsRegistry::exponential_bounds(64, 2, 20);
  queue_wait_hist_ = registry_.histogram("byzrenamed_queue_wait_microseconds",
                                         "Enqueue-to-pickup wait of executed instances.",
                                         latency_bounds);
  latency_hist_ = registry_.histogram("byzrenamed_completion_latency_microseconds",
                                      "Enqueue-to-completion latency of executed instances.",
                                      latency_bounds);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    update_gauges_locked();
  }
  int threads = options_.threads;
  if (threads < 1) threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  try {
    for (int i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    shutdown(DrainMode::kCancelQueued);  // joins the workers already started
    throw;
  }
}

Scheduler::~Scheduler() { shutdown(DrainMode::kCancelQueued); }

bool Scheduler::open_session(const std::string& session) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return false;
  if (sessions_.contains(session)) return false;
  Session& created = sessions_[session];
  created.submitted = registry_.labeled_counter("byzrenamed_instances_submitted_total",
                                                "Instances admitted, by session.", "session",
                                                session);
  created.completed = registry_.labeled_counter("byzrenamed_instances_completed_total",
                                                "Instances executed, by session.", "session",
                                                session);
  created.ok = registry_.labeled_counter("byzrenamed_instances_ok_total",
                                         "Executed instances whose four renaming properties "
                                         "all held, by session.",
                                         "session", session);
  created.violations = registry_.labeled_counter("byzrenamed_instances_violations_total",
                                                 "Executed instances the checker flagged, by "
                                                 "session.",
                                                 "session", session);
  created.cancelled = registry_.labeled_counter("byzrenamed_instances_cancelled_total",
                                                "Instances cancelled by shutdown drain, by "
                                                "session.",
                                                "session", session);
  created.rejected = registry_.labeled_counter("byzrenamed_instances_rejected_total",
                                               "Instances rejected by admission control, by "
                                               "session.",
                                               "session", session);
  created.evicted_metric = registry_.labeled_counter(
      "byzrenamed_results_evicted_total",
      "Completed results dropped by the retention window, by session.", "session", session);
  created.cpu_micros = registry_.labeled_counter(
      "byzrenamed_tenant_cpu_microseconds_total",
      "Worker thread CPU time spent evaluating this session's instances.", "session", session);
  update_gauges_locked();
  return true;
}

Scheduler::SubmitOutcome Scheduler::submit(const std::string& session,
                                           std::vector<exp::ReproScenario> instances) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SubmitOutcome outcome;
  if (stopping_) {
    outcome.draining = true;
    outcome.reason = "service is draining";
    return outcome;
  }
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    outcome.unknown_session = true;
    outcome.reason = "unknown session '" + session + "'";
    return outcome;
  }
  Session& state = it->second;
  const std::size_t inflight = state.submitted_total - state.completed_total();
  const AdmissionDecision decision =
      admission_.decide(instances.size(), total_queued_, inflight, ewma_rate_);
  if (!decision.admitted) {
    registry_.add(state.rejected, instances.size());
    outcome.reason = decision.reason;
    outcome.retry_after_seconds = decision.retry_after_seconds;
    return outcome;
  }
  outcome.admitted = true;
  outcome.first_id = next_id_;
  outcome.accepted = instances.size();
  const auto now = std::chrono::steady_clock::now();
  for (exp::ReproScenario& scenario : instances) {
    state.queue.push_back(Queued{next_id_++, std::move(scenario), now});
  }
  state.submitted_total += outcome.accepted;
  total_queued_ += outcome.accepted;
  registry_.add(state.submitted, outcome.accepted);
  update_gauges_locked();
  dispatch_cv_.notify_all();
  return outcome;
}

Scheduler::PollResult Scheduler::poll(const std::string& session, std::uint64_t cursor,
                                      std::size_t max_items, int wait_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session);
  PollResult result;
  if (it == sessions_.end()) {
    result.unknown_session = true;
    return result;
  }
  Session& state = it->second;
  if (wait_ms > 0 && cursor >= state.evicted && state.completed_total() <= cursor) {
    // Long-poll: woken by each completion; gives up at the deadline or
    // as soon as nothing further can arrive.
    results_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms), [&] {
      return state.completed_total() > cursor ||
             (stopping_ && total_queued_ == 0 && total_running_ == 0);
    });
  }
  result.oldest_cursor = state.evicted;
  result.pending = state.submitted_total - state.completed_total();
  result.draining = stopping_;
  // A cursor below the retention window (possibly overtaken by eviction
  // while the long-poll slept) names results that no longer exist;
  // replaying from oldest_cursor is the only honest continuation, and
  // silently skipping would hide the gap from the client.
  if (cursor < state.evicted) {
    result.evicted = true;
    result.cursor = cursor;
    return result;
  }
  const std::uint64_t begin = std::min<std::uint64_t>(cursor, state.completed_total());
  const auto local = static_cast<std::size_t>(begin - state.evicted);
  const std::size_t available = state.done.size() - local;
  const std::size_t take = max_items == 0 ? available : std::min(available, max_items);
  result.items.assign(state.done.begin() + static_cast<std::ptrdiff_t>(local),
                      state.done.begin() + static_cast<std::ptrdiff_t>(local + take));
  result.cursor = begin + take;
  return result;
}

void Scheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  results_cv_.wait(lock, [&] { return total_queued_ == 0 && total_running_ == 0; });
}

void Scheduler::shutdown(DrainMode mode) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      stopping_ = true;
      if (mode == DrainMode::kCancelQueued) {
        // Instances that never started report status "cancelled"
        // instead of silently vanishing, so a draining client can
        // reconcile ids. In-flight instances complete on their workers.
        for (auto& [name, state] : sessions_) {
          while (!state.queue.empty()) {
            Queued queued = std::move(state.queue.front());
            state.queue.pop_front();
            --total_queued_;
            InstanceResult cancelled;
            cancelled.id = queued.id;
            cancelled.session = name;
            cancelled.status = InstanceStatus::kCancelled;
            cancelled.scenario = std::move(queued.scenario);
            record_result_locked(state, std::move(cancelled), queued.enqueued);
          }
        }
      }
      update_gauges_locked();
    }
    dispatch_cv_.notify_all();
    results_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool Scheduler::draining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

void Scheduler::write_metrics(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  registry_.write_prometheus(os);
}

Scheduler::SessionMap::iterator Scheduler::next_session_locked() {
  if (pick_at_ != sessions_.end() && pick_streak_ < options_.fair_quantum &&
      !pick_at_->second.queue.empty()) {
    ++pick_streak_;
    return pick_at_;
  }
  // Quantum spent or session dry: the next non-empty session after the
  // current one in name order, wrapping (back to the current one when it
  // is the only session with work).
  auto it = pick_at_;
  do {
    if (it == sessions_.end() || ++it == sessions_.end()) it = sessions_.begin();
  } while (it->second.queue.empty());
  pick_at_ = it;
  pick_streak_ = 1;
  return it;
}

void Scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    dispatch_cv_.wait(lock, [&] { return stopping_ || total_queued_ > 0; });
    // Stopping with an empty queue: kCancelQueued emptied it inside
    // shutdown(); kWaitAll gets here once the workers have drained it.
    if (total_queued_ == 0) return;
    auto& [session_name, session] = *next_session_locked();
    Queued item = std::move(session.queue.front());
    session.queue.pop_front();
    --total_queued_;
    ++total_running_;
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - item.enqueued);
    registry_.observe(queue_wait_hist_, static_cast<std::uint64_t>(waited.count()));
    update_gauges_locked();
    lock.unlock();

    // Outside the mutex: the verdict computation is the service's
    // entire CPU budget. Deterministic per the harness re-entrancy
    // contract, so concurrency cannot change it. The thread-CPU delta
    // around it is exactly this tenant's cost (one instance per worker
    // thread at a time). Map keys are immutable and sessions are never
    // erased, so session_name stays readable without the lock.
    const std::uint64_t cpu_before = obs::prof::thread_cpu_ns();
    exp::ReproVerdict verdict = exp::evaluate_scenario(item.scenario);
    const std::uint64_t cpu_after = obs::prof::thread_cpu_ns();
    InstanceResult result;
    result.id = item.id;
    result.session = session_name;
    result.status = InstanceStatus::kDone;
    result.scenario = std::move(item.scenario);
    result.verdict = std::move(verdict);

    lock.lock();
    --total_running_;
    if (cpu_after > cpu_before) {
      registry_.add(session.cpu_micros, (cpu_after - cpu_before) / 1000);
    }
    record_result_locked(session, std::move(result), item.enqueued);
  }
}

void Scheduler::record_result_locked(Session& session, InstanceResult result,
                                     std::chrono::steady_clock::time_point enqueued) {
  double latency_seconds = 0.0;
  if (result.status == InstanceStatus::kDone) {
    registry_.add(session.completed, 1);
    if (result.verdict.kind == exp::FailureKind::kNone) {
      registry_.add(session.ok, 1);
    } else if (result.verdict.kind == exp::FailureKind::kViolation) {
      registry_.add(session.violations, 1);
    }
    const auto now = std::chrono::steady_clock::now();
    latency_seconds = std::chrono::duration<double>(now - enqueued).count();
    registry_.observe(latency_hist_,
                      static_cast<std::uint64_t>(std::max(latency_seconds, 0.0) * 1e6));
    if (has_completion_) {
      const double dt = std::max(
          std::chrono::duration<double>(now - last_completion_).count(), 1e-9);
      const double alpha = 1.0 - std::exp(-dt / kEwmaTauSeconds);
      ewma_rate_ += alpha * (1.0 / dt - ewma_rate_);
    }
    last_completion_ = now;
    has_completion_ = true;
  } else {
    registry_.add(session.cancelled, 1);
  }
  if (options_.on_complete) options_.on_complete(result, latency_seconds);
  session.done.push_back(std::move(result));
  // Retention window: the store stays bounded no matter how long the
  // daemon lives; clients that fall more than the cap behind get a
  // cursor-evicted poll instead of unbounded memory here.
  if (options_.retention_cap > 0) {
    while (session.done.size() > options_.retention_cap) {
      session.done.pop_front();
      session.evicted += 1;
      registry_.add(session.evicted_metric, 1);
    }
  }
  update_gauges_locked();
  results_cv_.notify_all();
}

void Scheduler::update_gauges_locked() {
  registry_.set(sessions_gauge_, static_cast<double>(sessions_.size()));
  registry_.set(queued_gauge_, static_cast<double>(total_queued_));
  registry_.set(running_gauge_, static_cast<double>(total_running_));
  registry_.set(draining_gauge_, stopping_ ? 1.0 : 0.0);
}

}  // namespace byzrename::svc
