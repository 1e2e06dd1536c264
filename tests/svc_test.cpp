// Tests for the src/svc renaming-as-a-service subsystem: the wire API
// (request parsing, verdict serialization, query strings), the pure
// admission policy, the multi-tenant fair-queueing Scheduler over its
// persistent worker pool, and the full Daemon HTTP surface exercised
// over raw sockets. The load-bearing property throughout: a verdict is
// a pure function of its scenario, so the service at any thread count
// must produce results byte-identical to serial evaluation — which is
// asserted here by serializing both sides through
// svc::write_verdict_document. Carries the "exp" label so the TSan CI
// job runs the scheduler and daemon under the race detector.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/algorithm.h"
#include "exp/repro.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/schema.h"
#include "svc/admission.h"
#include "svc/api.h"
#include "svc/daemon.h"
#include "svc/scheduler.h"

namespace {

using namespace byzrename;
using svc::AdmissionController;
using svc::AdmissionLimits;
using svc::InstanceResult;
using svc::InstanceStatus;
using svc::Scheduler;
using svc::SchedulerOptions;

// --- raw-socket client (the daemon tests' view is exactly curl's) ----------

std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("send() failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string http_post(std::uint16_t port, const std::string& path, const std::string& body,
                      const std::string& content_type = "application/json") {
  return http_request(port, "POST " + path + " HTTP/1.1\r\nHost: localhost\r\nContent-Type: " +
                                content_type +
                                "\r\nContent-Length: " + std::to_string(body.size()) +
                                "\r\n\r\n" + body);
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

// --- scenario helpers ------------------------------------------------------

exp::ReproScenario scenario_of(const char* algorithm, int n, int t, const char* adversary,
                               std::uint64_t seed) {
  exp::ReproScenario scenario;
  scenario.algorithm = *core::algorithm_from_token(algorithm);
  scenario.params = {.n = n, .t = t};
  scenario.adversary = adversary;
  scenario.seed = seed;
  return scenario;
}

/// A small mixed workload: three protocols, three adversaries, plus one
/// scenario whose checker verdict is a violation (orderbreak with
/// validation off), so the ok/violation counters both move.
std::vector<exp::ReproScenario> mixed_scenarios(std::size_t count, std::uint64_t seed_base) {
  std::vector<exp::ReproScenario> scenarios;
  scenarios.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    exp::ReproScenario scenario;
    switch (i % 4) {
      case 0: scenario = scenario_of("op", 10, 3, "idflood", seed_base + i); break;
      case 1: scenario = scenario_of("const", 16, 3, "split", seed_base + i); break;
      case 2: scenario = scenario_of("fast", 11, 2, "asymflood", seed_base + i); break;
      default:
        scenario = scenario_of("op", 10, 3, "orderbreak", seed_base + i);
        scenario.validate_votes = false;
        break;
    }
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

/// An instance that keeps a worker busy for tens of milliseconds in a
/// release build — long enough that the tests below can act while it
/// runs.
exp::ReproScenario slow_scenario(std::uint64_t seed) {
  return scenario_of("op", 40, 13, "split", seed);
}

/// Current value of an unlabeled gauge on the scheduler's exposition.
double gauge_value(const Scheduler& scheduler, const std::string& name) {
  std::ostringstream os;
  scheduler.write_metrics(os);
  const std::string out = os.str();
  const std::string prefix = "\n" + name + " ";
  const std::size_t at = out.find(prefix);
  if (at == std::string::npos) throw std::runtime_error("gauge not exposed: " + name);
  return std::stod(out.substr(at + prefix.size()));
}

/// Blocks until exactly @p count instances are executing.
void wait_until_running(const Scheduler& scheduler, double count) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (gauge_value(scheduler, "byzrenamed_running_instances") != count) {
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("timed out waiting for running instances");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::string verdict_normal_form(const exp::ReproScenario& scenario,
                                const exp::ReproVerdict& verdict) {
  std::ostringstream os;
  svc::write_verdict_document(os, scenario, verdict);
  return os.str();
}

/// write_repro_scenario emits `"scenario":{...}`; the submit array
/// wants the bare object, so serialize wrapped and peel the key off.
std::string scenario_json(const exp::ReproScenario& scenario) {
  std::ostringstream one;
  obs::JsonWriter inner(one);
  inner.begin_object();
  exp::write_repro_scenario(inner, scenario);
  inner.end_object();
  const std::string wrapped = one.str();
  constexpr std::string_view prefix = "{\"scenario\":";
  return wrapped.substr(prefix.size(), wrapped.size() - prefix.size() - 1);
}

std::string submit_body(const std::string& session,
                        const std::vector<exp::ReproScenario>& scenarios) {
  std::string body = "{\"schema\":\"";
  body += obs::kSubmitSchema;
  body += "\",\"session\":\"";
  body += session;
  body += "\",\"instances\":[";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i != 0) body += ',';
    body += scenario_json(scenarios[i]);
  }
  body += "]}";
  return body;
}

// ---------------------------------------------------------------------------
// API units

TEST(SvcApi, SessionNameValidation) {
  EXPECT_TRUE(svc::valid_session_name("tenant-a"));
  EXPECT_TRUE(svc::valid_session_name("A.b_c-9"));
  EXPECT_FALSE(svc::valid_session_name(""));
  EXPECT_FALSE(svc::valid_session_name("has space"));
  EXPECT_FALSE(svc::valid_session_name("quote\"name"));
  EXPECT_FALSE(svc::valid_session_name("newline\n"));
  EXPECT_FALSE(svc::valid_session_name(std::string(65, 'a')));
  EXPECT_TRUE(svc::valid_session_name(std::string(64, 'a')));
}

TEST(SvcApi, SessionRequestParsesAndRejects) {
  EXPECT_EQ(svc::parse_session_request(
                "{\"schema\":\"byzrename.session/1\",\"tenant\":\"alpha\"}"),
            "alpha");
  EXPECT_THROW(svc::parse_session_request("not json"), std::invalid_argument);
  EXPECT_THROW(svc::parse_session_request("{\"schema\":\"wrong/1\",\"tenant\":\"a\"}"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_session_request(
                   "{\"schema\":\"byzrename.session/1\",\"tenant\":\"bad name\"}"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_session_request("{\"schema\":\"byzrename.session/1\"}"),
               std::invalid_argument);
}

TEST(SvcApi, SubmitRequestRoundTripsScenarios) {
  const std::vector<exp::ReproScenario> scenarios = mixed_scenarios(5, 100);
  const svc::SubmitRequest request =
      svc::parse_submit_request(submit_body("tenant-a", scenarios));
  EXPECT_EQ(request.session, "tenant-a");
  ASSERT_EQ(request.instances.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(request.instances[i], scenarios[i]) << "instance " << i;
  }
}

TEST(SvcApi, SubmitRequestRejectsEmptyAndMalformed) {
  EXPECT_THROW(svc::parse_submit_request(
                   "{\"schema\":\"byzrename.submit/1\",\"session\":\"a\",\"instances\":[]}"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_submit_request(
                   "{\"schema\":\"byzrename.submit/1\",\"session\":\"a\","
                   "\"instances\":[{\"bogus\":1}]}"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_submit_request("{\"schema\":\"byzrename.submit/1\"}"),
               std::invalid_argument);
}

TEST(SvcApi, QueryStringParsing) {
  const auto params = svc::parse_query("session=a&cursor=12&max=5");
  EXPECT_EQ(params.at("session"), "a");
  EXPECT_EQ(params.at("cursor"), "12");
  EXPECT_EQ(params.at("max"), "5");
  EXPECT_TRUE(svc::parse_query("").empty());
  EXPECT_THROW(svc::parse_query("session=a&session=b"), std::invalid_argument);
  EXPECT_THROW(svc::parse_query("noequals"), std::invalid_argument);
}

TEST(SvcApi, VerdictDocumentCarriesScenarioAndVerdictShapes) {
  const exp::ReproScenario scenario = scenario_of("op", 10, 3, "idflood", 7);
  const exp::ReproVerdict verdict = exp::evaluate_scenario(scenario);
  const std::string document = verdict_normal_form(scenario, verdict);
  const obs::JsonValue doc = obs::parse_json(document);
  EXPECT_EQ(doc.at("schema").as_string(), obs::kVerdictSchema);
  EXPECT_EQ(doc.at("status").as_string(), "done");
  // Round-trip through the shared parsers reproduces the inputs.
  EXPECT_EQ(exp::parse_repro_scenario(doc.at("scenario")), scenario);
  EXPECT_EQ(exp::parse_repro_verdict(doc.at("verdict")), verdict);
}

// ---------------------------------------------------------------------------
// Admission policy units (pure: no threads, no clocks)

TEST(Admission, AdmitsWithinEveryLimit) {
  const AdmissionController admission(AdmissionLimits{100, 50, 10});
  const svc::AdmissionDecision decision = admission.decide(10, 0, 0, 0.0);
  EXPECT_TRUE(decision.admitted);
  EXPECT_EQ(decision.retry_after_seconds, 0);
}

TEST(Admission, OversizedBatchIsStructuralRejection) {
  const AdmissionController admission(AdmissionLimits{100, 50, 10});
  const svc::AdmissionDecision decision = admission.decide(11, 0, 0, 1000.0);
  EXPECT_FALSE(decision.admitted);
  // Retrying the same request can never succeed: no Retry-After.
  EXPECT_EQ(decision.retry_after_seconds, 0);
  EXPECT_NE(decision.reason.find("split"), std::string::npos) << decision.reason;
}

TEST(Admission, QueueDepthRejectionComputesRetryAfterFromDrainRate) {
  const AdmissionController admission(AdmissionLimits{100, 1000, 512});
  // 95 queued + 10 = 105 > 100, overload 5 at 2.5/s -> ceil(2) = 2s.
  const svc::AdmissionDecision decision = admission.decide(10, 95, 0, 2.5);
  EXPECT_FALSE(decision.admitted);
  EXPECT_EQ(decision.retry_after_seconds, 2);
  // Unknown drain rate falls back to a fixed hint.
  EXPECT_EQ(admission.decide(10, 95, 0, 0.0).retry_after_seconds, 5);
  // A glacial rate clamps at 30s, a torrential one at 1s.
  EXPECT_EQ(admission.decide(10, 95, 0, 0.0001).retry_after_seconds, 30);
  EXPECT_EQ(admission.decide(10, 95, 0, 1e9).retry_after_seconds, 1);
}

TEST(Admission, PerSessionInflightCapRejects) {
  const AdmissionController admission(AdmissionLimits{10000, 50, 512});
  EXPECT_TRUE(admission.decide(10, 0, 40, 1.0).admitted);
  const svc::AdmissionDecision decision = admission.decide(11, 0, 40, 1.0);
  EXPECT_FALSE(decision.admitted);
  EXPECT_GE(decision.retry_after_seconds, 1);
  EXPECT_LE(decision.retry_after_seconds, 30);
}

// ---------------------------------------------------------------------------
// Scheduler

TEST(SvcScheduler, SubmitPollRoundTripMatchesSerialEvaluationByteForByte) {
  const std::vector<exp::ReproScenario> scenarios = mixed_scenarios(12, 1000);
  SchedulerOptions options;
  options.threads = 4;
  Scheduler scheduler(options);
  ASSERT_TRUE(scheduler.open_session("tenant-a"));
  EXPECT_FALSE(scheduler.open_session("tenant-a"));  // reopen: not created

  const Scheduler::SubmitOutcome outcome = scheduler.submit("tenant-a", scenarios);
  ASSERT_TRUE(outcome.admitted);
  EXPECT_EQ(outcome.accepted, scenarios.size());
  EXPECT_EQ(outcome.first_id, 1u);
  scheduler.wait_idle();

  const Scheduler::PollResult poll = scheduler.poll("tenant-a", 0, 0);
  ASSERT_EQ(poll.items.size(), scenarios.size());
  EXPECT_EQ(poll.pending, 0u);
  EXPECT_EQ(poll.cursor, scenarios.size());

  // Completion order is nondeterministic; id -> submit order is not.
  std::map<std::uint64_t, const InstanceResult*> by_id;
  for (const InstanceResult& item : poll.items) {
    EXPECT_EQ(item.session, "tenant-a");
    EXPECT_EQ(item.status, InstanceStatus::kDone);
    by_id[item.id] = &item;
  }
  ASSERT_EQ(by_id.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const InstanceResult& item = *by_id.at(outcome.first_id + i);
    EXPECT_EQ(item.scenario, scenarios[i]) << "instance " << i;
    EXPECT_EQ(verdict_normal_form(item.scenario, item.verdict),
              verdict_normal_form(scenarios[i], exp::evaluate_scenario(scenarios[i])))
        << "instance " << i;
  }
}

TEST(SvcScheduler, VerdictsAreIdenticalAtOneAndEightThreads) {
  const std::vector<exp::ReproScenario> scenarios = mixed_scenarios(12, 4242);
  const auto run_at = [&scenarios](int threads) {
    SchedulerOptions options;
    options.threads = threads;
    Scheduler scheduler(options);
    scheduler.open_session("s");
    const Scheduler::SubmitOutcome outcome = scheduler.submit("s", scenarios);
    scheduler.wait_idle();
    const Scheduler::PollResult poll = scheduler.poll("s", 0, 0);
    std::map<std::uint64_t, std::string> normal;
    for (const InstanceResult& item : poll.items) {
      normal[item.id - outcome.first_id] = verdict_normal_form(item.scenario, item.verdict);
    }
    std::string all;
    for (const auto& [index, document] : normal) all += document;
    return all;
  };
  EXPECT_EQ(run_at(1), run_at(8));
}

TEST(SvcScheduler, CursorAndMaxItemsPaginate) {
  SchedulerOptions options;
  options.threads = 2;
  Scheduler scheduler(options);
  scheduler.open_session("s");
  scheduler.submit("s", mixed_scenarios(6, 77));
  scheduler.wait_idle();

  const Scheduler::PollResult page1 = scheduler.poll("s", 0, 4);
  ASSERT_EQ(page1.items.size(), 4u);
  EXPECT_EQ(page1.cursor, 4u);
  const Scheduler::PollResult page2 = scheduler.poll("s", page1.cursor, 4);
  ASSERT_EQ(page2.items.size(), 2u);
  EXPECT_EQ(page2.cursor, 6u);
  // Paged-out ids and one-shot ids agree.
  const Scheduler::PollResult all = scheduler.poll("s", 0, 0);
  std::vector<std::uint64_t> paged;
  for (const InstanceResult& item : page1.items) paged.push_back(item.id);
  for (const InstanceResult& item : page2.items) paged.push_back(item.id);
  std::vector<std::uint64_t> whole;
  for (const InstanceResult& item : all.items) whole.push_back(item.id);
  EXPECT_EQ(paged, whole);
}

TEST(SvcScheduler, UnknownSessionAndRejections) {
  SchedulerOptions options;
  options.threads = 1;
  options.admission = AdmissionLimits{/*max_queue_depth=*/4096,
                                      /*max_session_inflight=*/1024, /*max_batch=*/4};
  Scheduler scheduler(options);
  EXPECT_TRUE(scheduler.submit("ghost", mixed_scenarios(1, 1)).unknown_session);
  EXPECT_TRUE(scheduler.poll("ghost", 0, 0).unknown_session);

  scheduler.open_session("s");
  const Scheduler::SubmitOutcome rejected = scheduler.submit("s", mixed_scenarios(5, 1));
  EXPECT_FALSE(rejected.admitted);
  EXPECT_FALSE(rejected.unknown_session);
  EXPECT_FALSE(rejected.reason.empty());
  // The whole batch was rejected: nothing becomes pollable.
  scheduler.wait_idle();
  EXPECT_EQ(scheduler.poll("s", 0, 0).items.size(), 0u);
}

TEST(SvcScheduler, FairQueueingLetsASmallTenantThroughAMonopolist) {
  SchedulerOptions options;
  options.threads = 1;  // serial execution makes completion order meaningful
  options.fair_quantum = 4;
  // on_complete runs with the scheduler mutex held, so plain pushes are
  // serialized; wait_idle() synchronizes the read below.
  std::vector<std::string> completion_sessions;
  options.on_complete = [&](const InstanceResult& result, double) {
    completion_sessions.push_back(result.session);
  };
  Scheduler scheduler(options);
  scheduler.open_session("big");
  scheduler.open_session("small");

  // The monopolist's first instance is already running (its first pick
  // of the quantum) when the flood and the singleton arrive, so the
  // order below does not depend on how fast the submits race the worker.
  ASSERT_TRUE(scheduler.submit("big", {slow_scenario(8999)}).admitted);
  wait_until_running(scheduler, 1);
  std::vector<exp::ReproScenario> flood;
  for (std::size_t i = 0; i < 120; ++i) {
    flood.push_back(scenario_of("op", 7, 2, "silent", 9000 + i));
  }
  ASSERT_TRUE(scheduler.submit("big", flood).admitted);
  ASSERT_TRUE(scheduler.submit("small", {scenario_of("op", 7, 2, "silent", 1)}).admitted);
  scheduler.wait_idle();

  const auto small_at = std::find(completion_sessions.begin(), completion_sessions.end(),
                                  std::string("small"));
  ASSERT_NE(small_at, completion_sessions.end());
  const std::size_t position =
      static_cast<std::size_t>(small_at - completion_sessions.begin());
  // Per-pick round robin: the monopolist finishes its quantum of
  // consecutive picks, then the singleton is next. Without fairness it
  // would complete dead last.
  EXPECT_LE(position, options.fair_quantum + 1) << "small tenant starved behind the flood";
}

TEST(SvcScheduler, AFreeWorkerDoesNotWaitForAnotherSessionsSlowInstance) {
  SchedulerOptions options;
  options.threads = 2;
  // on_complete runs with the scheduler mutex held, so plain pushes are
  // serialized; wait_idle() synchronizes the read below.
  std::vector<std::string> completion_sessions;
  options.on_complete = [&](const InstanceResult& result, double) {
    completion_sessions.push_back(result.session);
  };
  Scheduler scheduler(options);
  scheduler.open_session("a");
  scheduler.open_session("b");
  ASSERT_TRUE(scheduler.submit("a", {slow_scenario(31)}).admitted);
  wait_until_running(scheduler, 1);
  ASSERT_TRUE(scheduler.submit("b", {scenario_of("op", 7, 2, "silent", 32)}).admitted);
  scheduler.wait_idle();
  // The idle worker starts b's instance at once; nothing holds it back
  // until a's slow instance is done.
  EXPECT_EQ(completion_sessions, (std::vector<std::string>{"b", "a"}));
}

TEST(SvcScheduler, DrainCancelQueuedReportsCancelledStatuses) {
  SchedulerOptions options;
  options.threads = 1;
  Scheduler scheduler(options);
  scheduler.open_session("s");
  std::vector<exp::ReproScenario> batch;
  for (std::size_t i = 0; i < 64; ++i) {
    batch.push_back(scenario_of("op", 10, 3, "idflood", 500 + i));
  }
  const Scheduler::SubmitOutcome outcome = scheduler.submit("s", batch);
  ASSERT_TRUE(outcome.admitted);
  scheduler.shutdown(Scheduler::DrainMode::kCancelQueued);

  // After shutdown: no new sessions, submits report draining.
  EXPECT_FALSE(scheduler.open_session("late"));
  EXPECT_TRUE(scheduler.draining());
  EXPECT_TRUE(scheduler.submit("s", mixed_scenarios(1, 1)).draining);

  // Every admitted instance is accounted for exactly once — done or
  // cancelled, never vanished.
  const Scheduler::PollResult poll = scheduler.poll("s", 0, 0);
  EXPECT_TRUE(poll.draining);
  ASSERT_EQ(poll.items.size(), batch.size());
  std::size_t done = 0;
  std::size_t cancelled = 0;
  for (const InstanceResult& item : poll.items) {
    if (item.status == InstanceStatus::kDone) {
      ++done;
    } else {
      ++cancelled;
      // A cancelled instance still names its scenario.
      EXPECT_FALSE(item.scenario.adversary.empty());
    }
  }
  EXPECT_EQ(done + cancelled, batch.size());
}

TEST(SvcScheduler, DrainCancelQueuedWhileEveryWorkerIsBusy) {
  SchedulerOptions options;
  options.threads = 2;
  Scheduler scheduler(options);
  scheduler.open_session("a");
  scheduler.open_session("b");
  // One slow instance per worker, then a queue behind them in both
  // sessions: shutdown finds every worker busy.
  std::vector<std::uint64_t> in_flight;
  std::map<std::uint64_t, int> seen;  // every admitted id -> times polled
  for (const char* session : {"a", "b"}) {
    const Scheduler::SubmitOutcome slow = scheduler.submit(session, {slow_scenario(41)});
    ASSERT_TRUE(slow.admitted);
    in_flight.push_back(slow.first_id);
    seen[slow.first_id] = 0;
    wait_until_running(scheduler, static_cast<double>(in_flight.size()));
  }
  for (const char* session : {"a", "b"}) {
    const Scheduler::SubmitOutcome queued = scheduler.submit(session, mixed_scenarios(10, 4300));
    ASSERT_TRUE(queued.admitted);
    for (std::size_t i = 0; i < queued.accepted; ++i) seen[queued.first_id + i] = 0;
  }
  scheduler.shutdown(Scheduler::DrainMode::kCancelQueued);

  std::size_t cancelled = 0;
  for (const char* session : {"a", "b"}) {
    const Scheduler::PollResult poll = scheduler.poll(session, 0, 0);
    EXPECT_EQ(poll.pending, 0u) << session;
    for (const InstanceResult& item : poll.items) {
      ASSERT_TRUE(seen.contains(item.id)) << "unknown id " << item.id;
      ++seen[item.id];
      if (std::find(in_flight.begin(), in_flight.end(), item.id) != in_flight.end()) {
        // In-flight instances complete; they are never cancelled.
        EXPECT_EQ(item.status, InstanceStatus::kDone) << "id " << item.id;
      } else if (item.status == InstanceStatus::kCancelled) {
        ++cancelled;
      }
    }
  }
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "id " << id;
  EXPECT_GT(cancelled, 0u);
}

TEST(SvcScheduler, DrainWaitAllRunsEverythingAdmitted) {
  SchedulerOptions options;
  options.threads = 2;
  Scheduler scheduler(options);
  scheduler.open_session("s");
  scheduler.submit("s", mixed_scenarios(8, 3000));
  scheduler.shutdown(Scheduler::DrainMode::kWaitAll);
  const Scheduler::PollResult poll = scheduler.poll("s", 0, 0);
  ASSERT_EQ(poll.items.size(), 8u);
  for (const InstanceResult& item : poll.items) {
    EXPECT_EQ(item.status, InstanceStatus::kDone);
  }
}

TEST(SvcScheduler, MetricsExposePerTenantFamiliesAndServiceGauges) {
  SchedulerOptions options;
  options.threads = 2;
  Scheduler scheduler(options);
  scheduler.open_session("alpha");
  scheduler.open_session("beta");
  scheduler.submit("alpha", mixed_scenarios(4, 10));
  scheduler.submit("beta", mixed_scenarios(3, 20));
  scheduler.wait_idle();

  std::ostringstream os;
  scheduler.write_metrics(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("byzrenamed_sessions 2"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrenamed_queued_instances 0"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrenamed_instances_submitted_total{session=\"alpha\"} 4"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("byzrenamed_instances_submitted_total{session=\"beta\"} 3"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("byzrenamed_instances_completed_total{session=\"alpha\"} 4"),
            std::string::npos)
      << out;
  // The mixed workload contains orderbreak/no-validation instances, so
  // the violations family is live too.
  EXPECT_NE(out.find("byzrenamed_instances_violations_total{session=\"alpha\"}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("byzrenamed_completion_latency_microseconds_count"), std::string::npos)
      << out;
  // Every executed instance was observed once at pickup.
  EXPECT_NE(out.find("\nbyzrenamed_queue_wait_microseconds_count 7\n"), std::string::npos)
      << out;
  // One # TYPE header per family even though the two tenants' series
  // were registered at different times.
  std::size_t type_headers = 0;
  for (std::size_t at = out.find("# TYPE byzrenamed_instances_submitted_total");
       at != std::string::npos;
       at = out.find("# TYPE byzrenamed_instances_submitted_total", at + 1)) {
    ++type_headers;
  }
  EXPECT_EQ(type_headers, 1u) << out;
}

TEST(SvcScheduler, LongPollReturnsEarlyWhenResultsArrive) {
  SchedulerOptions options;
  options.threads = 2;
  Scheduler scheduler(options);
  scheduler.open_session("s");
  scheduler.submit("s", mixed_scenarios(2, 60));
  const auto start = std::chrono::steady_clock::now();
  const Scheduler::PollResult poll = scheduler.poll("s", 0, 0, /*wait_ms=*/30000);
  const double waited = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(poll.items.size(), 1u);
  EXPECT_LT(waited, 25.0) << "long-poll did not return on completion";
}

TEST(SvcScheduler, RetentionEvictsOldResultsAndFlagsStaleCursors) {
  SchedulerOptions options;
  options.threads = 2;
  options.retention_cap = 4;
  Scheduler scheduler(options);
  scheduler.open_session("s");
  scheduler.submit("s", mixed_scenarios(10, 900));
  scheduler.wait_idle();

  // The oldest 6 results were evicted; cursor 0 addresses lost history.
  const Scheduler::PollResult stale = scheduler.poll("s", 0, 0);
  EXPECT_FALSE(stale.unknown_session);
  EXPECT_TRUE(stale.evicted);
  EXPECT_TRUE(stale.items.empty());
  EXPECT_EQ(stale.oldest_cursor, 6u);

  // Resuming from the reported cursor replays exactly the retained tail.
  const Scheduler::PollResult tail = scheduler.poll("s", stale.oldest_cursor, 0);
  EXPECT_FALSE(tail.evicted);
  ASSERT_EQ(tail.items.size(), 4u);
  EXPECT_EQ(tail.cursor, 10u);
  // The live end of the window is not "evicted" — just empty.
  const Scheduler::PollResult live = scheduler.poll("s", tail.cursor, 0);
  EXPECT_FALSE(live.evicted);
  EXPECT_TRUE(live.items.empty());

  // Eviction is visible on /metrics.
  std::ostringstream os;
  scheduler.write_metrics(os);
  EXPECT_NE(os.str().find("byzrenamed_results_evicted_total{session=\"s\"} 6"),
            std::string::npos)
      << os.str();
}

TEST(SvcScheduler, RetentionZeroDisablesEviction) {
  SchedulerOptions options;
  options.threads = 2;
  options.retention_cap = 0;
  Scheduler scheduler(options);
  scheduler.open_session("s");
  scheduler.submit("s", mixed_scenarios(10, 901));
  scheduler.wait_idle();
  const Scheduler::PollResult poll = scheduler.poll("s", 0, 0);
  EXPECT_FALSE(poll.evicted);
  EXPECT_EQ(poll.items.size(), 10u);
}

TEST(SvcDaemon, EvictedCursorPolls404WithDistinctErrorCode) {
  svc::DaemonOptions options;
  options.scheduler.threads = 2;
  options.scheduler.retention_cap = 2;
  svc::Daemon daemon(options);
  daemon.start();
  const std::uint16_t port = daemon.port();

  http_post(port, "/v1/session", "{\"schema\":\"byzrename.session/1\",\"tenant\":\"s\"}");
  http_post(port, "/v1/submit", submit_body("s", mixed_scenarios(6, 902)));
  daemon.scheduler().wait_idle();

  const std::string stale = http_get(port, "/v1/poll?session=s&cursor=0");
  EXPECT_NE(stale.find("HTTP/1.1 404"), std::string::npos) << stale;
  const obs::JsonValue error = obs::parse_json(body_of(stale));
  EXPECT_EQ(error.at("schema").as_string(), obs::kErrorSchema);
  EXPECT_EQ(error.at("code").as_string(), "cursor-evicted");
  // The message names the oldest retained cursor so clients can resume.
  EXPECT_NE(error.at("error").as_string().find("oldest retained cursor is 4"),
            std::string::npos)
      << error.at("error").as_string();

  const std::string tail = http_get(port, "/v1/poll?session=s&cursor=4");
  EXPECT_NE(tail.find("HTTP/1.1 200"), std::string::npos) << tail;
  EXPECT_EQ(obs::parse_json(body_of(tail)).at("items").as_array().size(), 2u);
  // A plain unknown-session 404 carries no code field.
  const std::string unknown = http_get(port, "/v1/poll?session=ghost");
  EXPECT_NE(unknown.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_EQ(body_of(unknown).find("\"code\""), std::string::npos) << unknown;

  daemon.stop(Scheduler::DrainMode::kCancelQueued);
}

// ---------------------------------------------------------------------------
// Daemon over HTTP

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    svc::DaemonOptions options;
    options.scheduler.threads = 2;
    options.scheduler.admission = AdmissionLimits{/*max_queue_depth=*/4096,
                                                  /*max_session_inflight=*/1024,
                                                  /*max_batch=*/64};
    daemon_ = std::make_unique<svc::Daemon>(options);
    daemon_->start();
    port_ = daemon_->port();
  }

  void TearDown() override {
    daemon_->stop(Scheduler::DrainMode::kCancelQueued);
  }

  std::string open_session(const std::string& tenant) {
    return http_post(port_, "/v1/session",
                     "{\"schema\":\"byzrename.session/1\",\"tenant\":\"" + tenant + "\"}");
  }

  std::unique_ptr<svc::Daemon> daemon_;
  std::uint16_t port_ = 0;
};

TEST_F(DaemonTest, SessionLifecycleAndErrorMapping) {
  EXPECT_NE(open_session("alpha").find("HTTP/1.1 200"), std::string::npos);
  // Reopen is idempotent success.
  EXPECT_NE(open_session("alpha").find("HTTP/1.1 200"), std::string::npos);
  // Malformed body -> 400 with a byzrename.error/1 body.
  const std::string bad = http_post(port_, "/v1/session", "{\"schema\":\"nope/1\"}");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos) << bad;
  EXPECT_EQ(obs::parse_json(body_of(bad)).at("schema").as_string(), obs::kErrorSchema);
  // Submit to an unknown session -> 404.
  const std::string orphan =
      http_post(port_, "/v1/submit", submit_body("ghost", mixed_scenarios(1, 1)));
  EXPECT_NE(orphan.find("HTTP/1.1 404"), std::string::npos) << orphan;
  // Wrong content type never reaches the JSON parser -> 415.
  EXPECT_NE(http_post(port_, "/v1/session", "x", "text/plain").find("HTTP/1.1 415"),
            std::string::npos);
}

TEST_F(DaemonTest, SubmitPollConversationMatchesSerialEvaluation) {
  const std::vector<exp::ReproScenario> scenarios = mixed_scenarios(6, 5000);
  ASSERT_NE(open_session("tenant-a").find("HTTP/1.1 200"), std::string::npos);

  const std::string ack = http_post(port_, "/v1/submit", submit_body("tenant-a", scenarios));
  ASSERT_NE(ack.find("HTTP/1.1 202"), std::string::npos) << ack;
  const obs::JsonValue ack_doc = obs::parse_json(body_of(ack));
  EXPECT_EQ(ack_doc.at("schema").as_string(), obs::kSubmitAckSchema);
  EXPECT_EQ(ack_doc.at("accepted").as_uint(), scenarios.size());
  const std::uint64_t first_id = ack_doc.at("first_id").as_uint();

  // Long-poll until every verdict arrived.
  std::map<std::uint64_t, std::string> by_id;
  std::uint64_t cursor = 0;
  for (int spins = 0; by_id.size() < scenarios.size() && spins < 200; ++spins) {
    const std::string response = http_get(
        port_, "/v1/poll?session=tenant-a&cursor=" + std::to_string(cursor) + "&wait_ms=2000");
    ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
    const obs::JsonValue doc = obs::parse_json(body_of(response));
    EXPECT_EQ(doc.at("schema").as_string(), obs::kPollSchema);
    cursor = doc.at("cursor").as_uint();
    for (const obs::JsonValue& item : doc.at("items").as_array()) {
      EXPECT_EQ(item.at("schema").as_string(), obs::kVerdictSchema);
      EXPECT_EQ(item.at("session").as_string(), "tenant-a");
      EXPECT_EQ(item.at("status").as_string(), "done");
      // Re-derive the identity-free normal form from the wire item.
      const exp::ReproScenario scenario = exp::parse_repro_scenario(item.at("scenario"));
      const exp::ReproVerdict verdict = exp::parse_repro_verdict(item.at("verdict"));
      by_id[item.at("id").as_uint()] = verdict_normal_form(scenario, verdict);
    }
  }
  ASSERT_EQ(by_id.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(by_id.at(first_id + i),
              verdict_normal_form(scenarios[i], exp::evaluate_scenario(scenarios[i])))
        << "instance " << i << " differs between service and serial execution";
  }
}

TEST_F(DaemonTest, OversizedBatchIs429AndOverloadCarriesRetryAfter) {
  ASSERT_NE(open_session("flood").find("HTTP/1.1 200"), std::string::npos);
  // Structural: batch over max_batch (64) -> 429, no Retry-After.
  const std::string structural =
      http_post(port_, "/v1/submit", submit_body("flood", mixed_scenarios(65, 1)));
  EXPECT_NE(structural.find("HTTP/1.1 429"), std::string::npos) << structural;
  EXPECT_EQ(structural.find("Retry-After:"), std::string::npos) << structural;
  // Load: exceed the per-session in-flight cap with admitted work, then
  // one more batch must bounce with a Retry-After hint.
  std::vector<exp::ReproScenario> slow;
  for (std::size_t i = 0; i < 64; ++i) {
    slow.push_back(scenario_of("op", 13, 4, "asymflood", 7000 + i));
  }
  std::size_t admitted = 0;
  std::string last;
  for (int batch = 0; batch < 20; ++batch) {
    last = http_post(port_, "/v1/submit", submit_body("flood", slow));
    if (last.find("HTTP/1.1 202") != std::string::npos) {
      admitted += slow.size();
      continue;
    }
    break;
  }
  ASSERT_NE(last.find("HTTP/1.1 429"), std::string::npos)
      << "in-flight cap never tripped after " << admitted << " admitted: " << last;
  EXPECT_NE(last.find("Retry-After: "), std::string::npos) << last;
}

TEST_F(DaemonTest, PollValidationAndMetricsAndBuildinfo) {
  ASSERT_NE(open_session("alpha").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(http_get(port_, "/v1/poll").find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(http_get(port_, "/v1/poll?session=ghost").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_get(port_, "/v1/poll?session=alpha&cursor=frog").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_get(port_, "/v1/poll?session=alpha&cursor=1&cursor=2").find("HTTP/1.1 400"),
            std::string::npos);

  http_post(port_, "/v1/submit", submit_body("alpha", mixed_scenarios(2, 88)));
  daemon_->scheduler().wait_idle();
  const std::string metrics = body_of(http_get(port_, "/metrics"));
  EXPECT_NE(metrics.find("byzrenamed_sessions"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("byzrenamed_instances_completed_total{session=\"alpha\"} 2"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("process_resident_memory_bytes"), std::string::npos) << metrics;

  const std::string buildinfo = http_get(port_, "/buildinfo");
  EXPECT_NE(buildinfo.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(obs::parse_json(body_of(buildinfo)).at("schema").as_string(),
            obs::kBuildinfoSchema);
}

TEST_F(DaemonTest, DrainingRejectsNewWorkWith503) {
  ASSERT_NE(open_session("alpha").find("HTTP/1.1 200"), std::string::npos);
  daemon_->scheduler().shutdown(Scheduler::DrainMode::kCancelQueued);
  EXPECT_NE(open_session("beta").find("HTTP/1.1 503"), std::string::npos);
  const std::string submit =
      http_post(port_, "/v1/submit", submit_body("alpha", mixed_scenarios(1, 1)));
  EXPECT_NE(submit.find("HTTP/1.1 503"), std::string::npos) << submit;
  // Polls still answer during the grace window, flagged draining.
  const std::string poll = http_get(port_, "/v1/poll?session=alpha");
  EXPECT_NE(poll.find("HTTP/1.1 200"), std::string::npos) << poll;
  EXPECT_NE(body_of(poll).find("\"draining\":true"), std::string::npos) << poll;
}

}  // namespace
