// Tests for the obs/prof profiling plane: scoped timer-tree shape
// (nesting, reentrancy, sibling interning), graceful degradation when
// perf_event_open is unavailable (BYZRENAME_NO_PERF forces the path on
// machines where counters would work), allocation attribution through
// the interposed operator new (including the heap-free payload sizing
// the network charges bits with), the collapsed-stack exporter against a
// golden file (deterministic via injected clocks), campaign-aggregate
// merge commutativity, and a TSan scrape-during-run hammer matching
// what a live GET /profile does to a profiler mid-run.
//
// This binary includes obs/prof/alloc_interpose.h (the one TU rule),
// so every test here runs with real allocation accounting. Counts from
// explicit, same-thread allocations are asserted as lower bounds, not
// exact values — gtest internals and sanitizer runtimes may allocate
// between the probe points, and the contract under test is attribution,
// not the standard library's allocation pattern.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/harness.h"
#include "obs/metrics_registry.h"
#include "obs/prof/alloc_interpose.h"
#include "obs/prof/profile_io.h"
#include "obs/prof/profiler.h"
#include "sim/codec.h"

namespace byzrename {
namespace {

using obs::prof::AllocCounts;
using obs::prof::AllocProfiler;
using obs::prof::PerfCounters;
using obs::prof::Profiler;
using obs::prof::ProfileAggregate;
using obs::prof::ProfileSnapshot;

// ---------------------------------------------------------------------------
// Injected clocks: each read advances by a fixed step, so every scope
// delta is a pure function of the enter/exit call sequence — which is
// what makes the exporter golden below byte-stable on any machine.

std::uint64_t g_fake_wall = 0;
std::uint64_t g_fake_cpu = 0;

std::uint64_t fake_wall_ns() { return g_fake_wall += 1'000'000; }  // +1 ms per read
std::uint64_t fake_cpu_ns() { return g_fake_cpu += 250'000; }      // +0.25 ms per read

Profiler::Options fake_clock_options() {
  g_fake_wall = 0;
  g_fake_cpu = 0;
  Profiler::Options options;
  options.hw_counters = false;
  options.clock.wall_ns = fake_wall_ns;
  options.clock.cpu_ns = fake_cpu_ns;
  return options;
}

/// Index of the node whose full path is @p path, or -1.
int find_path(const ProfileSnapshot& snapshot, const std::string& path) {
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    if (snapshot.path(i) == path) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Timer-tree shape

TEST(ProfilerTree, NestingBuildsFirstVisitOrderedTree) {
  Profiler profiler(fake_clock_options());
  {
    obs::prof::Scope run(&profiler, "run");
    {
      obs::prof::Scope selection(&profiler, "selection");
    }
    for (int k = 1; k <= 2; ++k) {
      obs::prof::Scope voting(&profiler, k == 1 ? "voting k=1" : "voting k=2");
    }
  }
  {
    obs::prof::Scope check(&profiler, "check");
  }

  const ProfileSnapshot snapshot = profiler.snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 5u);
  // First-visit order, parents before children.
  EXPECT_EQ(snapshot.path(0), "run");
  EXPECT_EQ(snapshot.path(1), "run;selection");
  EXPECT_EQ(snapshot.path(2), "run;voting k=1");
  EXPECT_EQ(snapshot.path(3), "run;voting k=2");
  EXPECT_EQ(snapshot.path(4), "check");
  EXPECT_EQ(snapshot.nodes[0].parent, -1);
  EXPECT_EQ(snapshot.nodes[1].parent, 0);
  EXPECT_EQ(snapshot.nodes[0].depth, 0);
  EXPECT_EQ(snapshot.nodes[1].depth, 1);
  EXPECT_EQ(snapshot.nodes[4].parent, -1);
  for (const auto& node : snapshot.nodes) EXPECT_EQ(node.calls, 1u);
  // Inclusive semantics: the parent's wall covers its three children.
  EXPECT_GT(snapshot.nodes[0].wall_ns,
            snapshot.nodes[1].wall_ns + snapshot.nodes[2].wall_ns + snapshot.nodes[3].wall_ns);
}

TEST(ProfilerTree, RepeatVisitsReuseTheInternedNode) {
  Profiler profiler(fake_clock_options());
  for (int i = 0; i < 5; ++i) {
    obs::prof::Scope scope(&profiler, "step");
  }
  const ProfileSnapshot snapshot = profiler.snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 1u);
  EXPECT_EQ(snapshot.nodes[0].calls, 5u);
  // 5 calls × 1 ms of fake wall between the enter and exit reads.
  EXPECT_EQ(snapshot.nodes[0].wall_ns, 5'000'000u);
  EXPECT_EQ(snapshot.nodes[0].cpu_ns, 5u * 250'000u);
}

TEST(ProfilerTree, ReentrantScopesMakeOneNodePerDepth) {
  Profiler profiler(fake_clock_options());
  // Direct recursion: the same name nested inside itself is a DIFFERENT
  // node per depth (the path disambiguates), not an accumulating cycle.
  std::function<void(int)> recurse = [&](int depth) {
    obs::prof::Scope scope(&profiler, "recurse");
    if (depth > 0) recurse(depth - 1);
  };
  recurse(2);
  recurse(2);

  const ProfileSnapshot snapshot = profiler.snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 3u);
  EXPECT_EQ(snapshot.path(0), "recurse");
  EXPECT_EQ(snapshot.path(1), "recurse;recurse");
  EXPECT_EQ(snapshot.path(2), "recurse;recurse;recurse");
  for (const auto& node : snapshot.nodes) EXPECT_EQ(node.calls, 2u);
}

TEST(ProfilerTree, NullScopeIsInertAndCloseIsIdempotent) {
  obs::prof::Scope inert(nullptr, "nothing");
  inert.close();
  inert.close();

  Profiler profiler(fake_clock_options());
  obs::prof::Scope scope(&profiler, "once");
  scope.close();
  scope.close();  // second close must not exit() again
  const ProfileSnapshot snapshot = profiler.snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 1u);
  EXPECT_EQ(snapshot.nodes[0].calls, 1u);
}

TEST(ProfilerTree, UnbalancedExitIsTolerated) {
  Profiler profiler(fake_clock_options());
  profiler.exit();  // empty stack: no-op, not UB
  profiler.enter("a");
  profiler.exit();
  profiler.exit();  // unbalanced again
  const ProfileSnapshot snapshot = profiler.snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 1u);
  EXPECT_EQ(snapshot.nodes[0].calls, 1u);
}

// ---------------------------------------------------------------------------
// Ambient (thread-local) profiler

TEST(ProfilerAmbient, GuardInstallsAndRestores) {
  EXPECT_EQ(obs::prof::thread_profiler(), nullptr);
  Profiler outer(fake_clock_options());
  {
    obs::prof::ThreadProfilerGuard guard(&outer);
    EXPECT_EQ(obs::prof::thread_profiler(), &outer);
    {
      Profiler inner(fake_clock_options());
      obs::prof::ThreadProfilerGuard nested(&inner);
      EXPECT_EQ(obs::prof::thread_profiler(), &inner);
      obs::prof::AmbientScope scope("inner scope");
    }
    EXPECT_EQ(obs::prof::thread_profiler(), &outer);
    obs::prof::AmbientScope scope("outer scope");
  }
  EXPECT_EQ(obs::prof::thread_profiler(), nullptr);
  obs::prof::AmbientScope inert("no profiler installed");  // must not crash

  EXPECT_EQ(find_path(outer.snapshot(), "outer scope"), 0);

  // thread_local: another thread starts with no ambient profiler even
  // while this one holds a guard.
  obs::prof::ThreadProfilerGuard guard(&outer);
  Profiler* seen = &outer;
  std::thread([&seen] { seen = obs::prof::thread_profiler(); }).join();
  EXPECT_EQ(seen, nullptr);
}

// ---------------------------------------------------------------------------
// Perf-counter degradation

TEST(ProfilerPerf, NoPerfEnvForcesTimerOnlyMode) {
  ASSERT_EQ(setenv("BYZRENAME_NO_PERF", "1", 1), 0);
  EXPECT_TRUE(PerfCounters::disabled_by_env());

  Profiler profiler;  // hw_counters defaults to true — env must win
  {
    obs::prof::Scope scope(&profiler, "work");
    std::vector<int> sink(1024, 1);
    ASSERT_EQ(sink.back(), 1);
  }
  EXPECT_FALSE(profiler.hw_available());
  const ProfileSnapshot snapshot = profiler.snapshot();
  EXPECT_FALSE(snapshot.hw_available);
  ASSERT_EQ(snapshot.nodes.size(), 1u);
  EXPECT_EQ(snapshot.nodes[0].hw.cycles, 0u);
  EXPECT_EQ(snapshot.nodes[0].hw.instructions, 0u);
  EXPECT_EQ(snapshot.nodes[0].hw.llc_misses, 0u);
  EXPECT_EQ(snapshot.nodes[0].hw.branch_misses, 0u);
  // Timer-only mode still measures: this is the degradation contract.
  EXPECT_GT(snapshot.nodes[0].wall_ns, 0u);
  EXPECT_EQ(snapshot.nodes[0].calls, 1u);

  ASSERT_EQ(unsetenv("BYZRENAME_NO_PERF"), 0);
}

TEST(ProfilerPerf, CountersMayBeUnavailableButNeverBreakTheTree) {
  // Whatever this machine supports (CI containers typically return
  // ENOSYS/EACCES), the profiler must produce a well-formed tree and a
  // consistent hw_available flag.
  Profiler profiler;
  {
    obs::prof::Scope scope(&profiler, "probe");
  }
  const ProfileSnapshot snapshot = profiler.snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 1u);
  if (!snapshot.hw_available) {
    EXPECT_EQ(snapshot.nodes[0].hw.cycles, 0u);
    EXPECT_EQ(snapshot.nodes[0].hw.instructions, 0u);
  }
}

TEST(ProfilerPerf, ThreadCpuClockIsMonotonic) {
  const std::uint64_t first = obs::prof::thread_cpu_ns();
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  const std::uint64_t second = obs::prof::thread_cpu_ns();
  EXPECT_GE(second, first);
}

// ---------------------------------------------------------------------------
// Allocation attribution

TEST(ProfilerAlloc, InterpositionIsRegisteredInThisBinary) {
  EXPECT_TRUE(AllocProfiler::interposed());
}

TEST(ProfilerAlloc, ThreadCountersSeeExplicitAllocations) {
  const AllocCounts before = AllocProfiler::thread_counts();
  std::vector<char> block(4096);
  block[0] = 1;
  const AllocCounts after = AllocProfiler::thread_counts();
  EXPECT_GE(after.count - before.count, 1u);
  EXPECT_GE(after.bytes - before.bytes, 4096u);
  // Process totals move at least as much as this thread's.
  EXPECT_GE(AllocProfiler::process_counts().count, after.count);
}

TEST(ProfilerAlloc, ScopesAttributeAllocationsInclusively) {
  Profiler profiler(fake_clock_options());
  {
    obs::prof::Scope outer(&profiler, "outer");
    {
      obs::prof::Scope inner(&profiler, "inner");
      std::vector<char> block(8192);
      block[0] = 1;
    }
  }
  const ProfileSnapshot snapshot = profiler.snapshot();
  const int outer_at = find_path(snapshot, "outer");
  const int inner_at = find_path(snapshot, "outer;inner");
  ASSERT_GE(outer_at, 0);
  ASSERT_GE(inner_at, 0);
  const auto& inner = snapshot.nodes[static_cast<std::size_t>(inner_at)];
  const auto& outer = snapshot.nodes[static_cast<std::size_t>(outer_at)];
  EXPECT_GE(inner.allocs, 1u);
  EXPECT_GE(inner.alloc_bytes, 8192u);
  // Inclusive semantics: the parent covers the child's allocations.
  EXPECT_GE(outer.allocs, inner.allocs);
  EXPECT_GE(outer.alloc_bytes, inner.alloc_bytes);
}

TEST(ProfilerAlloc, HistogramObserveDoesNotAllocate) {
  // The service observes its queue-wait histogram at every worker
  // pickup, under the scheduler mutex; that path must stay heap-free.
  obs::MetricsRegistry registry;
  const obs::MetricsRegistry::Handle histogram = registry.histogram(
      "wait_microseconds", "Wait.", obs::MetricsRegistry::exponential_bounds(64, 2, 20));
  const AllocCounts before = AllocProfiler::thread_counts();
  for (std::uint64_t value : {0ull, 64ull, 65ull, 5000ull, 1ull << 40}) {
    registry.observe(histogram, value);
  }
  EXPECT_EQ(AllocProfiler::thread_counts().count, before.count);
  EXPECT_EQ(registry.histogram_count(histogram), 5u);
}

TEST(ProfilerAlloc, EncodedBitsDoesNotAllocate) {
  // The network charges every outbox entry encoded_bits(); sizing must
  // not encode, so no payload alternative may touch the heap here.
  using numeric::BigInt;
  using numeric::Rational;
  const BigInt huge = (BigInt(1) << 300) + BigInt(12345);  // spills BigInt's inline limbs
  sim::FixedRanksMsg fixed2;
  fixed2.width = 2;
  fixed2.scale = {3 * 17 * (std::uint64_t{1} << 20), 0, 0, 0};
  fixed2.ids = {1, 2, 3};
  fixed2.nums = {0, 0, 51, 0, ~std::uint64_t{0}, ~std::uint64_t{0} >> 1};
  sim::FixedRanksMsg fixed4;
  fixed4.width = 4;
  fixed4.scale = {0x9E3779B97F4A7C15ull, 0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 1};
  fixed4.ids = {7, 8};
  fixed4.nums = {12, 0, 0, 0, ~std::uint64_t{0}, ~std::uint64_t{0}, 5, ~std::uint64_t{0}};
  const std::vector<sim::Payload> payloads = {
      sim::IdMsg{-5},
      sim::EchoMsg{std::numeric_limits<std::int64_t>::min()},
      sim::ReadyMsg{1'000'000'000'000},
      sim::RanksMsg{{{5, Rational::of(41, 40)}, {9, Rational(-huge, BigInt(3))}}},
      sim::MultiEchoMsg{std::vector<sim::Id>(200, 77)},
      sim::AAValueMsg{Rational(huge, (BigInt(1) << 128) + BigInt(1))},
      sim::WordMsg{3, {1, -2, 3}},
      sim::WrappedCastMsg{4, std::vector<std::uint8_t>(300, 0xAB)},
      sim::WrappedEchoMsg{1, 4, {1, 2, 3}},
      fixed2,
      fixed4,
  };
  std::size_t bits = 0;
  const AllocCounts before = AllocProfiler::thread_counts();
  for (const sim::Payload& payload : payloads) bits += sim::encoded_bits(payload);
  EXPECT_EQ(AllocProfiler::thread_counts().count, before.count);
  EXPECT_GT(bits, 0u);
}

// ---------------------------------------------------------------------------
// Exporters

/// The fixed tree every exporter test uses; with the fake clocks its
/// deltas are fully determined by the enter/exit call sequence.
void build_golden_tree(Profiler& profiler) {
  obs::prof::Scope run(&profiler, "run");
  {
    obs::prof::Scope selection(&profiler, "selection");
  }
  for (int k = 1; k <= 2; ++k) {
    obs::prof::Scope voting(&profiler, k == 1 ? "voting k=1" : "voting k=2");
  }
  run.close();
  obs::prof::Scope check(&profiler, "check");
}

TEST(ProfilerExport, CollapsedStackMatchesGolden) {
  Profiler profiler(fake_clock_options());
  build_golden_tree(profiler);

  std::ostringstream out;
  obs::prof::write_collapsed(out, profiler.snapshot());

  const std::string path = std::string(BYZRENAME_TEST_GOLDEN_DIR) + "/profile_collapsed.txt";
  if (std::getenv("BYZRENAME_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(path, std::ios::trunc);
    ASSERT_TRUE(regen.is_open());
    regen << out.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path
                            << " (regenerate with BYZRENAME_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(out.str(), golden.str())
      << "collapsed-stack output drifted from tests/golden/profile_collapsed.txt; if the "
         "change is intentional, rerun with BYZRENAME_REGEN_GOLDEN=1 and commit the diff";
}

TEST(ProfilerExport, ProfileJsonCarriesSchemaAndVolatileSplit) {
  Profiler profiler(fake_clock_options());
  build_golden_tree(profiler);

  std::ostringstream out;
  obs::prof::write_profile_json(out, profiler.snapshot(), "test-run");
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"byzrename.profile/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"run\""), std::string::npos);
  EXPECT_NE(doc.find("\"label\":\"test-run\""), std::string::npos);
  EXPECT_NE(doc.find("\"path\":\"run;voting k=2\""), std::string::npos);
  // The determinism split: wall time lives ONLY under "volatile" — the
  // first "wall_seconds" in the document opens a volatile object, so
  // stripping `volatile` with jq removes every wall-clock field.
  const std::size_t first_volatile = doc.find("\"volatile\":{\"wall_seconds\"");
  ASSERT_NE(first_volatile, std::string::npos);
  EXPECT_EQ(doc.find("\"wall_seconds\""),
            first_volatile + std::string("\"volatile\":{").size());
}

TEST(ProfilerExport, PrometheusFamiliesOmitHardwareWhenUnavailable) {
  ASSERT_EQ(setenv("BYZRENAME_NO_PERF", "1", 1), 0);
  Profiler profiler;
  build_golden_tree(profiler);

  std::ostringstream out;
  obs::prof::write_profile_prometheus(out, profiler.snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("byzrename_profile_calls_total"), std::string::npos);
  EXPECT_NE(text.find("scope=\"run;voting k=1\""), std::string::npos);
  // Absent, not zero: no hardware families in timer-only mode.
  EXPECT_EQ(text.find("byzrename_profile_cycles_total"), std::string::npos);
  ASSERT_EQ(unsetenv("BYZRENAME_NO_PERF"), 0);
}

// ---------------------------------------------------------------------------
// Campaign aggregation

TEST(ProfilerAggregate, MergeIsCommutativeAndSumsCounts)
{
  Profiler a(fake_clock_options());
  build_golden_tree(a);
  Profiler b(fake_clock_options());
  {
    obs::prof::Scope run(&b, "run");
    obs::prof::Scope voting(&b, "voting k=1");
  }

  ProfileAggregate ab;
  ab.merge(a.snapshot());
  ab.merge(b.snapshot());
  ProfileAggregate ba;
  ba.merge(b.snapshot());
  ba.merge(a.snapshot());

  EXPECT_EQ(ab.runs(), 2u);
  ASSERT_EQ(ab.entries().size(), 5u);  // run, selection, voting k=1/2, check

  const auto& voting1 = ab.entries().at("run;voting k=1");
  EXPECT_EQ(voting1.runs, 2u);   // present in both trees
  EXPECT_EQ(voting1.calls, 2u);  // one call each
  const auto& check = ab.entries().at("check");
  EXPECT_EQ(check.runs, 1u);  // only tree A had it

  // Byte-identical documents regardless of merge order — the campaign's
  // --threads invariance in miniature.
  std::ostringstream doc_ab;
  std::ostringstream doc_ba;
  obs::prof::write_profile_aggregate_json(doc_ab, ab, "camp", "cell-key", 3);
  obs::prof::write_profile_aggregate_json(doc_ba, ba, "camp", "cell-key", 3);
  EXPECT_EQ(doc_ab.str(), doc_ba.str());
  EXPECT_NE(doc_ab.str().find("\"kind\":\"cell\""), std::string::npos);
  EXPECT_NE(doc_ab.str().find("\"runs\":2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: harness phase attribution is deterministic

TEST(ProfilerHarness, PhaseTreeCountsAreRunInvariant) {
  const auto profile_counts = [] {
    obs::prof::Profiler profiler;
    core::ScenarioConfig config;
    config.params = {.n = 10, .t = 3};
    config.adversary = "split";
    config.seed = 21;
    config.profiler = &profiler;
    const core::ScenarioResult result = core::run_scenario(config);
    EXPECT_TRUE(result.report.all_ok());

    const ProfileSnapshot snapshot = profiler.snapshot();
    std::vector<std::string> rows;
    rows.reserve(snapshot.nodes.size());
    for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
      const auto& node = snapshot.nodes[i];
      rows.push_back(snapshot.path(i) + "|calls=" + std::to_string(node.calls) +
                     "|allocs=" + std::to_string(node.allocs) +
                     "|bytes=" + std::to_string(node.alloc_bytes));
    }
    return rows;
  };

  // The process's very first run pays one-time lazy initialization
  // (static caches) inside its setup scope; discard it so the compare
  // sees steady state — the same warmed regime the campaign's
  // --threads 1 vs 8 byte-identity gate runs in.
  (void)profile_counts();
  const std::vector<std::string> first = profile_counts();
  const std::vector<std::string> second = profile_counts();
  // Counts (calls, allocs, bytes) are pure functions of the run: two
  // identical scenarios produce identical rows, including paths and
  // their first-visit order.
  EXPECT_EQ(first, second);

  // The harness taxonomy made it into the tree.
  const auto has = [&](const std::string& prefix) {
    for (const std::string& row : first) {
      if (row.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("setup|"));
  EXPECT_TRUE(has("run|"));
  EXPECT_TRUE(has("check|"));
  EXPECT_TRUE(has("run;selection|"));
  EXPECT_TRUE(has("run;voting k=1|"));
}

// ---------------------------------------------------------------------------
// Concurrency: live scraping during a run (the GET /profile shape).
// Run under TSan in CI (ctest -L prof in the TSan job).

TEST(ProfilerConcurrency, SnapshotDuringEnterExitHammer) {
  Profiler profiler;
  std::atomic<bool> stop{false};

  std::thread measured([&profiler, &stop] {
    int k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::prof::Scope run(&profiler, "run");
      obs::prof::Scope voting(&profiler, (k++ % 2) == 0 ? "voting k=1" : "voting k=2");
      std::vector<int> churn(64, k);
      ASSERT_EQ(churn.back(), k);
    }
  });

  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&profiler, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const ProfileSnapshot snapshot = profiler.snapshot();
        std::ostringstream sink;
        obs::prof::write_profile_json(sink, snapshot, "hammer");
        obs::prof::write_collapsed(sink, snapshot);
        obs::prof::write_profile_prometheus(sink, snapshot);
        ASSERT_FALSE(sink.str().empty());
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  measured.join();
  for (std::thread& scraper : scrapers) scraper.join();

  const ProfileSnapshot final_snapshot = profiler.snapshot();
  ASSERT_GE(final_snapshot.nodes.size(), 3u);
  EXPECT_GE(final_snapshot.nodes[0].calls, 1u);
}

}  // namespace
}  // namespace byzrename
