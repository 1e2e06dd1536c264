// W4 — renaming-as-a-service soak: drives svc::Scheduler the way
// byzrenamed does, with three tenants submitting a mixed protocol and
// adversary workload (op/const/fast × idflood/split/asymflood/
// orderbreak) from concurrent submitter threads that honor admission
// backpressure (sleep-and-retry on 429-equivalent rejections). After
// the concurrent soak, every scenario is re-evaluated serially on one
// thread and the two verdict sets are compared byte-for-byte through
// svc::write_verdict_document — the service-plane restatement of the
// repro guarantee that a verdict is a pure function of its scenario.
//
// Emits bench/out/BENCH_service.json (byzrename.series/1 lines); the
// committed copy under bench/baseline/ is the CI reference: mismatches
// must be exactly zero, throughput within 0.75x of baseline, p99
// latency within 1.5x.
//
// Both rows carry nproc (the CPUs this process may run on, as the
// `nproc` command counts them) so a result names the core count it was
// measured on.
//
// Latency is measured per instance from submit-admission to
// completion (queueing included — that is what a service client
// experiences), reported as p50/p99/mean milliseconds.
//
// Heap allocations are counted through the shared obs::AllocProfiler
// interposition (obs/prof/alloc_interpose.h — the one definition of
// the counting operator new this binary gets): allocs-per-instance for
// the concurrent soak (scheduler + queueing overhead included) and for
// the serial ground-truth pass (pure evaluate_scenario cost). The
// serial figure is single-threaded and deterministic; the soak figure
// moves with thread interleaving and is informational.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithm.h"
#include "exp/repro.h"
#include "obs/bench_report.h"
#include "obs/prof/alloc_interpose.h"
#include "svc/api.h"
#include "svc/scheduler.h"

namespace {

using namespace byzrename;

std::uint64_t alloc_count() { return obs::prof::AllocProfiler::process_counts().count; }

constexpr std::size_t kDefaultInstances = 10000;
constexpr int kDefaultThreads = 8;
constexpr std::size_t kBatch = 64;
const char* const kTenants[] = {"alpha", "beta", "gamma"};
constexpr std::size_t kTenantCount = sizeof(kTenants) / sizeof(kTenants[0]);

/// Instance index -> scenario, deterministically. Small systems keep a
/// single instance in the low-millisecond range so a 10k soak stays a
/// bench, not a campaign; the orderbreak/no-validation slice makes the
/// violation counters move (verdict kind diversity is part of what the
/// byte-compare must survive).
exp::ReproScenario scenario_for(std::size_t index) {
  exp::ReproScenario scenario;
  const std::uint64_t seed = 0x57a7u + index;
  switch (index % 4) {
    case 0:
      scenario.algorithm = *core::algorithm_from_token("op");
      scenario.params = {.n = 10, .t = 3};
      scenario.adversary = "idflood";
      break;
    case 1:
      scenario.algorithm = *core::algorithm_from_token("const");
      scenario.params = {.n = 16, .t = 3};
      scenario.adversary = "split";
      break;
    case 2:
      scenario.algorithm = *core::algorithm_from_token("fast");
      scenario.params = {.n = 11, .t = 2};
      scenario.adversary = "asymflood";
      break;
    default:
      scenario.algorithm = *core::algorithm_from_token("op");
      scenario.params = {.n = 10, .t = 3};
      scenario.adversary = "orderbreak";
      scenario.validate_votes = false;
      break;
  }
  scenario.seed = seed;
  return scenario;
}

std::string normal_form(const exp::ReproScenario& scenario, const exp::ReproVerdict& verdict) {
  std::ostringstream os;
  svc::write_verdict_document(os, scenario, verdict);
  return os.str();
}

/// CPUs in this process's affinity mask; hardware concurrency when the
/// mask cannot be read.
int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct SoakResult {
  double seconds = 0;
  std::uint64_t rejections = 0;
  std::vector<double> latencies;  ///< seconds, unordered
  /// seed -> verdict normal form. Instance ids come from a counter
  /// shared across sessions, so a tenant's ids are not contiguous once
  /// batches interleave; the seed is the stable per-instance key (it
  /// encodes the instance index by construction).
  std::map<std::uint64_t, std::string> verdicts;
};

SoakResult run_soak(std::size_t instances, int threads) {
  SoakResult result;
  std::mutex latency_mutex;

  svc::SchedulerOptions options;
  options.threads = threads;
  // Tight enough that the flood actually trips admission (the retry
  // loop below is the cooperative-backpressure half of the bench),
  // roomy enough that workers never starve.
  options.admission.max_queue_depth = 2048;
  options.admission.max_session_inflight = 1024;
  options.admission.max_batch = 256;
  options.on_complete = [&](const svc::InstanceResult&, double latency_seconds) {
    // Called with the scheduler mutex held; keep it to a push.
    result.latencies.push_back(latency_seconds);
  };

  svc::Scheduler scheduler(options);
  for (const char* tenant : kTenants) scheduler.open_session(tenant);

  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> rejections{0};
  std::vector<std::thread> submitters;
  for (std::size_t tenant_index = 0; tenant_index < kTenantCount; ++tenant_index) {
    submitters.emplace_back([&, tenant_index] {
      const std::string tenant = kTenants[tenant_index];
      std::vector<exp::ReproScenario> batch;
      batch.reserve(kBatch);
      // Tenant k owns instance indices k, k+3, k+6, ...
      for (std::size_t index = tenant_index; index < instances;) {
        batch.clear();
        for (std::size_t i = index; i < instances && batch.size() < kBatch;
             i += kTenantCount) {
          batch.push_back(scenario_for(i));
        }
        for (;;) {
          const svc::Scheduler::SubmitOutcome outcome = scheduler.submit(tenant, batch);
          if (outcome.admitted) break;
          // Admission said "not now": back off briefly and retry. The
          // HTTP client analogue honors Retry-After; in-process the
          // drain rate is milliseconds, so the hint floor (1s) would
          // just idle the bench.
          rejections.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        index += kBatch * kTenantCount;
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  scheduler.wait_idle();
  result.seconds = seconds_since(start);
  result.rejections = rejections.load();

  for (const char* tenant : kTenants) {
    const svc::Scheduler::PollResult poll = scheduler.poll(tenant, 0, 0);
    for (const svc::InstanceResult& item : poll.items) {
      result.verdicts[item.scenario.seed] = normal_form(item.scenario, item.verdict);
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t instances = kDefaultInstances;
  int threads = kDefaultThreads;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--instances") == 0 && i + 1 < argc) {
      instances = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_w4_service [--instances N] [--threads N]\n");
      return 2;
    }
  }

  obs::BenchReporter reporter("BENCH_service.json");
  const int nproc = online_cpus();
  std::printf("W4 — service soak: %zu instances, %zu tenants, %d worker threads, nproc %d\n",
              instances, kTenantCount, threads, nproc);

  const std::uint64_t soak_allocs_before = alloc_count();
  SoakResult soak = run_soak(instances, threads);
  const double soak_allocs_per_instance =
      static_cast<double>(alloc_count() - soak_allocs_before) / static_cast<double>(instances);

  if (soak.verdicts.size() != instances) {
    std::fprintf(stderr, "FATAL: %zu instances submitted, %zu verdicts polled\n", instances,
                 soak.verdicts.size());
    return 1;
  }

  // Serial ground truth: same scenarios, one at a time, one thread, no
  // scheduler — exp::evaluate_scenario exactly as `byzrename
  // --verdict-out` would produce them.
  const auto serial_start = std::chrono::steady_clock::now();
  const std::uint64_t serial_allocs_before = alloc_count();
  std::size_t mismatches = 0;
  for (std::size_t index = 0; index < instances; ++index) {
    const exp::ReproScenario scenario = scenario_for(index);
    const std::string expected = normal_form(scenario, exp::evaluate_scenario(scenario));
    const auto found = soak.verdicts.find(scenario.seed);
    if (found == soak.verdicts.end() || found->second != expected) {
      if (++mismatches <= 5) {
        std::fprintf(stderr, "MISMATCH instance %zu\n  serial:  %s", index, expected.c_str());
        if (found != soak.verdicts.end()) {
          std::fprintf(stderr, "  service: %s", found->second.c_str());
        }
      }
    }
  }
  const double serial_seconds = seconds_since(serial_start);
  const double serial_allocs_per_instance =
      static_cast<double>(alloc_count() - serial_allocs_before) /
      static_cast<double>(instances);

  std::sort(soak.latencies.begin(), soak.latencies.end());
  const auto percentile = [&](double p) {
    if (soak.latencies.empty()) return 0.0;
    const std::size_t at = std::min(
        soak.latencies.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(soak.latencies.size())));
    return soak.latencies[at];
  };
  double latency_sum = 0;
  for (const double latency : soak.latencies) latency_sum += latency;
  const double mean_ms =
      soak.latencies.empty() ? 0.0
                             : latency_sum / static_cast<double>(soak.latencies.size()) * 1e3;
  const double p50_ms = percentile(0.50) * 1e3;
  const double p99_ms = percentile(0.99) * 1e3;
  const double service_rate = static_cast<double>(instances) / soak.seconds;
  const double serial_rate = static_cast<double>(instances) / serial_seconds;

  std::printf("%-28s %12s\n", "metric", "value");
  std::printf("%-28s %12.1f\n", "instances_per_second", service_rate);
  std::printf("%-28s %12.1f\n", "serial_instances_per_second", serial_rate);
  std::printf("%-28s %12.2f\n", "speedup_vs_serial", service_rate / serial_rate);
  std::printf("%-28s %12.3f\n", "latency_p50_ms", p50_ms);
  std::printf("%-28s %12.3f\n", "latency_p99_ms", p99_ms);
  std::printf("%-28s %12.3f\n", "latency_mean_ms", mean_ms);
  std::printf("%-28s %12llu\n", "admission_rejections",
              static_cast<unsigned long long>(soak.rejections));
  std::printf("%-28s %12zu\n", "verdict_mismatches", mismatches);
  std::printf("%-28s %12.1f\n", "soak_allocs_per_instance", soak_allocs_per_instance);
  std::printf("%-28s %12.1f\n", "serial_allocs_per_instance", serial_allocs_per_instance);

  reporter.write_series("soak",
                        {{"instances", static_cast<double>(instances)},
                         {"threads", static_cast<double>(threads)},
                         {"nproc", static_cast<double>(nproc)},
                         {"instances_per_second", service_rate},
                         {"latency_p50_ms", p50_ms},
                         {"latency_p99_ms", p99_ms},
                         {"latency_mean_ms", mean_ms},
                         {"admission_rejections", static_cast<double>(soak.rejections)},
                         {"verdict_mismatches", static_cast<double>(mismatches)},
                         {"allocs_per_instance", soak_allocs_per_instance}});
  reporter.write_series("serial", {{"nproc", static_cast<double>(nproc)},
                                   {"instances_per_second", serial_rate},
                                   {"speedup", service_rate / serial_rate},
                                   {"allocs_per_instance", serial_allocs_per_instance}});
  reporter.announce(std::cout);

  if (mismatches != 0) {
    std::fprintf(stderr, "FATAL: %zu verdicts differ between service and serial execution\n",
                 mismatches);
    return 1;
  }
  return 0;
}
