// Fault-injection substrate: plan grammar, deterministic link fates,
// harness composition with Byzantine adversaries, and degradation-aware
// checker verdicts under injected model violations.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "adversary/adversary.h"
#include "core/harness.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/payload.h"
#include "sim/process.h"
#include "sim/rng.h"
#include "trace/event_log.h"

namespace byzrename {
namespace {

/// Broadcasts its id each round and records every inbox it sees.
class InboxProbe final : public sim::ProcessBehavior {
 public:
  explicit InboxProbe(sim::Id id) : id_(id) {}

  void on_send(sim::Round, sim::Outbox& out) override { out.broadcast(sim::IdMsg{id_}); }
  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    by_round[round] = inbox;
  }
  [[nodiscard]] bool done() const override { return true; }

  std::map<sim::Round, sim::Inbox> by_round;

 private:
  sim::Id id_;
};

TEST(FaultPlan, ParsesEveryEventKind) {
  const sim::FaultPlan plan = sim::parse_fault_plan(
      "drop:0.25@2..5+dup:0.5+delay:0.75x3@1..9+crash:2@3..6+part:0-2@4..7+overshoot:1");
  ASSERT_EQ(plan.links.size(), 3u);
  EXPECT_EQ(plan.links[0].kind, sim::LinkFaultKind::kDrop);
  EXPECT_DOUBLE_EQ(plan.links[0].probability, 0.25);
  EXPECT_EQ(plan.links[0].from_round, 2);
  EXPECT_EQ(plan.links[0].to_round, 5);
  EXPECT_EQ(plan.links[1].kind, sim::LinkFaultKind::kDuplicate);
  EXPECT_EQ(plan.links[1].from_round, 1);
  EXPECT_EQ(plan.links[1].to_round, 0);  // open window
  EXPECT_EQ(plan.links[2].kind, sim::LinkFaultKind::kDelay);
  EXPECT_EQ(plan.links[2].delay_rounds, 3);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].process, 2);
  EXPECT_EQ(plan.crashes[0].from_round, 3);
  EXPECT_EQ(plan.crashes[0].to_round, 6);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].lo, 0);
  EXPECT_EQ(plan.partitions[0].hi, 2);
  EXPECT_EQ(plan.fault_overshoot, 1);
  EXPECT_EQ(plan.event_count(), 6u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  const sim::FaultPlan plan = sim::parse_fault_plan("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(sim::to_spec(plan), "");
}

TEST(FaultPlan, SpecRoundTripsThroughToSpec) {
  const char* specs[] = {
      "drop:0.25@2..5",
      "dup:0.5",
      "delay:0.75x3@1..9",
      "crash:2@3..6",
      "crash:4@2",
      "part:0-2@4..7",
      "overshoot:2",
      "drop:0.1+dup:0.2+crash:0@1+overshoot:1",
  };
  for (const char* spec : specs) {
    const sim::FaultPlan plan = sim::parse_fault_plan(spec);
    EXPECT_EQ(sim::parse_fault_plan(sim::to_spec(plan)), plan) << spec;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "drop",              // no kind:value separator
      "drop:x",            // non-numeric probability
      "drop:1.5",          // probability out of [0, 1]
      "drop:0.5@3",        // link windows need r1..r2
      "delay:0.5",         // missing xK
      "delay:0.5x0",       // delay must be >= 1
      "crash:3",           // crash needs @r1
      "crash:3@0",         // rounds start at 1
      "part:0-2",          // partition needs a window
      "part:5-2@1..3",     // HI < LO
      "overshoot:0",       // overshoot must be >= 1
      "bogus:1",           // unknown kind
      "drop:0.5++dup:0.5", // doubled separator
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)sim::parse_fault_plan(spec), std::invalid_argument) << spec;
  }
}

TEST(FaultInjector, FateIsDeterministicPerSeed) {
  const sim::FaultPlan plan = sim::parse_fault_plan("drop:0.5");
  const sim::FaultInjector a(plan, 42);
  const sim::FaultInjector b(plan, 42);
  const sim::FaultInjector other(plan, 43);
  int drops = 0;
  int differs = 0;
  for (sim::Round round = 1; round <= 10; ++round) {
    for (sim::ProcessIndex s = 0; s < 8; ++s) {
      for (sim::ProcessIndex r = 0; r < 8; ++r) {
        const auto fate_a = a.fate(round, s, r);
        EXPECT_EQ(fate_a.drop, b.fate(round, s, r).drop);
        drops += fate_a.drop ? 1 : 0;
        differs += fate_a.drop != other.fate(round, s, r).drop ? 1 : 0;
      }
    }
  }
  // A 50% rule must actually fire, and a different seed must pick a
  // different subset of deliveries.
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 640);
  EXPECT_GT(differs, 0);
}

TEST(FaultInjector, CrashWindowDropsAllTrafficToProcess) {
  const sim::FaultInjector injector(sim::parse_fault_plan("crash:2@3..5"), 1);
  EXPECT_FALSE(injector.crashed(2, 2));
  EXPECT_TRUE(injector.crashed(2, 3));
  EXPECT_TRUE(injector.crashed(2, 5));
  EXPECT_FALSE(injector.crashed(2, 6));  // recovery
  EXPECT_FALSE(injector.crashed(1, 4));
  EXPECT_TRUE(injector.fate(4, 0, 2).drop);
  EXPECT_FALSE(injector.fate(6, 0, 2).drop);
}

TEST(FaultInjector, PartitionCutsOnlyCrossIslandLinks) {
  const sim::FaultInjector injector(sim::parse_fault_plan("part:0-2@2..4"), 1);
  EXPECT_TRUE(injector.fate(3, 0, 5).drop);   // island -> rest
  EXPECT_TRUE(injector.fate(3, 5, 1).drop);   // rest -> island
  EXPECT_FALSE(injector.fate(3, 0, 1).drop);  // inside the island
  EXPECT_FALSE(injector.fate(3, 4, 5).drop);  // inside the complement
  EXPECT_FALSE(injector.fate(5, 0, 5).drop);  // window closed
}

TEST(FaultInjector, DuplicationAndDelayAccumulate) {
  const sim::FaultInjector injector(
      sim::parse_fault_plan("dup:1.0+delay:1.0x2+delay:1.0x3"), 9);
  const auto fate = injector.fate(1, 0, 1);
  EXPECT_FALSE(fate.drop);
  EXPECT_EQ(fate.copies, 2);
  EXPECT_EQ(fate.delay, 5);
}

TEST(FaultInjector, DuplicatedAndDelayedDeliveryKeepsItsCopies) {
  // Composition of dup and delay on the same delivery: the duplicate must
  // travel with the delayed message, not vanish. (The network used to
  // enqueue only the first copy when a delivery was both duplicated and
  // postponed.)
  const sim::FaultPlan plan = sim::parse_fault_plan("dup:1.0+delay:1.0x2");
  const sim::FaultInjector injector(plan, 5);
  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  behaviors.push_back(std::make_unique<InboxProbe>(1));
  behaviors.push_back(std::make_unique<InboxProbe>(2));
  auto* probe = static_cast<InboxProbe*>(behaviors[0].get());
  sim::Network net(std::move(behaviors), {false, false}, sim::Rng(7),
                   /*scramble_links=*/false);
  net.attach_fault_injector(&injector);
  net.run_round(1);
  net.run_round(2);
  net.run_round(3);

  // Every round-1 delivery is postponed to round 3; nothing arrives early.
  EXPECT_TRUE(probe->by_round[1].empty());
  EXPECT_TRUE(probe->by_round[2].empty());
  // Round 3 holds the round-1 batch: 2 senders x 2 copies each.
  const sim::Inbox& late = probe->by_round[3];
  ASSERT_EQ(late.size(), 4u);
  int from_first = 0;
  int from_second = 0;
  for (const sim::Delivery& d : late) {
    const auto& msg = std::get<sim::IdMsg>(*d.payload);
    if (msg.id == 1) ++from_first;
    if (msg.id == 2) ++from_second;
  }
  EXPECT_EQ(from_first, 2);
  EXPECT_EQ(from_second, 2);
  // The link-label ordering contract holds for delayed batches too.
  EXPECT_TRUE(std::is_sorted(
      late.begin(), late.end(),
      [](const sim::Delivery& a, const sim::Delivery& b) { return a.link < b.link; }));
  // Metrics account for every injected event in the round it was sent:
  // 4 delayed deliveries (2 senders x 2 receivers), each with one extra copy.
  EXPECT_EQ(net.metrics().per_round()[0].injected_delays, 4u);
  EXPECT_EQ(net.metrics().per_round()[0].injected_duplicates, 4u);
}

/// Broadcasts kBurst messages per round whose ids encode (round, sender,
/// slot), and records every inbox it sees.
class BurstProbe final : public sim::ProcessBehavior {
 public:
  static constexpr int kBurst = 5;

  explicit BurstProbe(sim::ProcessIndex self) : self_(self) {}

  static sim::Id id_of(sim::Round round, sim::ProcessIndex sender, int slot) {
    return (static_cast<sim::Id>(round) * 100 + sender) * 10 + slot;
  }
  static sim::Round sent_round(sim::Id id) { return static_cast<sim::Round>(id / 1000); }

  void on_send(sim::Round round, sim::Outbox& out) override {
    for (int slot = 0; slot < kBurst; ++slot) out.broadcast(sim::IdMsg{id_of(round, self_, slot)});
  }
  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    by_round[round] = inbox;
  }
  [[nodiscard]] bool done() const override { return true; }

  std::map<sim::Round, sim::Inbox> by_round;

 private:
  sim::ProcessIndex self_;
};

TEST(FaultInjector, EveryMessageOnALinkRoundSharesItsFate) {
  // A fate is decided per (round, sender, receiver) link, not per
  // message: the kBurst messages a sender puts on one link in one round
  // vanish together, arrive together K rounds late, or are all doubled.
  constexpr int kN = 6;
  constexpr sim::Round kSendRounds = 6;
  constexpr int kDelay = 2;
  constexpr int k = BurstProbe::kBurst;
  for (const char* spec : {"drop:0.5", "dup:0.5", "delay:0.5x2"}) {
    SCOPED_TRACE(spec);
    const sim::FaultInjector injector(sim::parse_fault_plan(spec), 11);
    std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
    std::vector<BurstProbe*> probes;
    for (sim::ProcessIndex i = 0; i < kN; ++i) {
      auto probe = std::make_unique<BurstProbe>(i);
      probes.push_back(probe.get());
      behaviors.push_back(std::move(probe));
    }
    sim::Network net(std::move(behaviors), std::vector<bool>(kN, false), sim::Rng(3),
                     /*scramble_links=*/false);
    net.attach_fault_injector(&injector);
    for (sim::Round round = 1; round <= kSendRounds + kDelay; ++round) net.run_round(round);

    // copies[(sent round, sender, receiver)] -> {arrival round -> count}
    std::map<std::tuple<sim::Round, int, int>, std::map<sim::Round, int>> arrivals;
    for (int receiver = 0; receiver < kN; ++receiver) {
      for (const auto& [round, inbox] : probes[receiver]->by_round) {
        for (const sim::Delivery& d : inbox) {
          const sim::Id id = std::get<sim::IdMsg>(*d.payload).id;
          arrivals[{BurstProbe::sent_round(id), d.link, receiver}][round] += 1;
        }
      }
    }
    std::set<int> outcomes;
    for (sim::Round round = 1; round <= kSendRounds; ++round) {
      for (int sender = 0; sender < kN; ++sender) {
        for (int receiver = 0; receiver < kN; ++receiver) {
          const auto fate = injector.fate(round, sender, receiver);
          const auto& seen = arrivals[{round, sender, receiver}];
          if (fate.drop) {
            EXPECT_TRUE(seen.empty()) << "round " << round << " link " << sender << "->" << receiver;
            outcomes.insert(0);
            continue;
          }
          // All k messages (times their copies) land in one round.
          ASSERT_EQ(seen.size(), 1u) << "round " << round << " link " << sender << "->" << receiver;
          EXPECT_EQ(seen.begin()->first, round + fate.delay);
          EXPECT_EQ(seen.begin()->second, k * fate.copies);
          outcomes.insert(seen.begin()->second + 100 * fate.delay);
        }
      }
    }
    // A 50% rule must take both branches somewhere in the grid.
    EXPECT_EQ(outcomes.size(), 2u);
  }
}

TEST(FaultHarness, DropAllViolatesTerminationWithProvenance) {
  core::ScenarioConfig config;
  config.params = {.n = 7, .t = 2};
  config.seed = 11;
  config.fault_plan = sim::parse_fault_plan("drop:1.0");
  const core::ScenarioResult result = core::run_scenario(config);
  EXPECT_FALSE(result.report.all_ok());
  EXPECT_TRUE(result.report.has(core::ViolationClass::kTermination));
  ASSERT_FALSE(result.report.violations.empty());
  for (const core::ViolationRecord& record : result.report.violations) {
    if (record.cls != core::ViolationClass::kTermination) continue;
    EXPECT_GE(record.pid, 0);  // provenance: which process starved
  }
  EXPECT_NE(result.report.classes().find("termination"), std::string::npos);
}

TEST(FaultHarness, CrashingAFaultyProcessIsBenign) {
  core::ScenarioConfig config;
  config.params = {.n = 10, .t = 3};
  config.seed = 3;
  // Index 9 is on the Byzantine tail under the silent adversary; crashing
  // it changes nothing observable.
  config.fault_plan = sim::parse_fault_plan("crash:9@1");
  const core::ScenarioResult result = core::run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
}

TEST(FaultHarness, FaultedRunIsBitReproducible) {
  core::ScenarioConfig config;
  config.params = {.n = 10, .t = 3};
  config.adversary = "idflood";
  config.seed = 77;
  config.fault_plan = sim::parse_fault_plan("drop:0.15+dup:0.1");
  const core::ScenarioResult first = core::run_scenario(config);
  const core::ScenarioResult second = core::run_scenario(config);
  EXPECT_EQ(first.report.all_ok(), second.report.all_ok());
  EXPECT_EQ(first.report.classes(), second.report.classes());
  EXPECT_EQ(first.run.rounds, second.run.rounds);
  EXPECT_EQ(first.run.decisions, second.run.decisions);
  EXPECT_EQ(first.run.decide_rounds, second.run.decide_rounds);
  EXPECT_EQ(first.run.metrics.total_messages(), second.run.metrics.total_messages());
}

TEST(FaultHarness, OvershootExceedsDeclaredBudget) {
  core::ScenarioConfig config;
  config.params = {.n = 13, .t = 2};
  config.seed = 5;
  config.fault_plan = sim::parse_fault_plan("overshoot:1");
  // 3 actual faults against a declared budget of t=2: the run must
  // complete (whatever the verdict) rather than throw.
  const core::ScenarioResult result = core::run_scenario(config);
  EXPECT_EQ(result.named.size(), 10u);  // n - (t + overshoot) correct processes
}

TEST(FaultHarness, OvershootLeavingNoCorrectProcessThrows) {
  core::ScenarioConfig config;
  config.params = {.n = 4, .t = 1};
  config.fault_plan = sim::parse_fault_plan("overshoot:3");
  EXPECT_THROW((void)core::run_scenario(config), std::invalid_argument);
}

TEST(FaultPlan, ParsesForgeAndRestartEvents) {
  const sim::FaultPlan plan = sim::parse_fault_plan(
      "forge:3x0.5=replay@2..6+forge:0+restart:4@5,scramble+restart:0@1");
  ASSERT_EQ(plan.forges.size(), 2u);
  EXPECT_EQ(plan.forges[0].count, 3);
  EXPECT_DOUBLE_EQ(plan.forges[0].probability, 0.5);
  EXPECT_EQ(plan.forges[0].strategy, "replay");
  EXPECT_EQ(plan.forges[0].from_round, 2);
  EXPECT_EQ(plan.forges[0].to_round, 6);
  EXPECT_EQ(plan.forges[1].count, 0);  // k = 0 is a valid no-op rule
  EXPECT_DOUBLE_EQ(plan.forges[1].probability, 1.0);
  EXPECT_EQ(plan.forges[1].strategy, "ghost");
  ASSERT_EQ(plan.restarts.size(), 2u);
  EXPECT_EQ(plan.restarts[0].process, 4);
  EXPECT_EQ(plan.restarts[0].round, 5);
  EXPECT_EQ(plan.restarts[0].state, sim::RestartState::kScramble);
  EXPECT_EQ(plan.restarts[1].process, 0);
  EXPECT_EQ(plan.restarts[1].round, 1);
  EXPECT_EQ(plan.restarts[1].state, sim::RestartState::kReset);
  EXPECT_EQ(plan.event_count(), 4u);
  // The ISSUE's `state=` spelling is accepted too.
  EXPECT_EQ(sim::parse_fault_plan("restart:4@5,state=scramble"),
            sim::parse_fault_plan("restart:4@5,scramble"));
}

TEST(FaultPlan, ForgeAndRestartRoundTripThroughToSpec) {
  const char* specs[] = {
      "forge:1",
      "forge:0",
      "forge:2x0.5",
      "forge:1=replay",
      "forge:3x0.25=ranklie@2..6",
      "restart:3@5",
      "restart:0@2,scramble",
      "restart:1@1",
      "restart:1@4,reset",
      "drop:0.1+forge:2+restart:3@4,scramble+overshoot:1",
  };
  for (const char* spec : specs) {
    const sim::FaultPlan plan = sim::parse_fault_plan(spec);
    EXPECT_EQ(sim::parse_fault_plan(sim::to_spec(plan)), plan) << spec;
  }
}

TEST(FaultPlan, RejectsMalformedForgeAndRestartSpecs) {
  const char* bad[] = {
      "forge:-1",          // negative K
      "forge:1x1.5",       // probability out of [0, 1]
      "forge:1=",          // empty strategy name
      "forge:1@3",         // link-rule windows need the full r1..r2 form
      "restart:3",         // restart needs @R
      "restart:3@0",       // rounds start at 1
      "restart:3@2,bogus", // state must be scramble or reset
      "restart:x@2",       // non-numeric PID
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)sim::parse_fault_plan(spec), std::invalid_argument) << spec;
  }
}

TEST(FaultInjector, ForgedSlotsAreDeterministicBoundedAndSeedSensitive) {
  const sim::FaultPlan plan = sim::parse_fault_plan("forge:3x0.5@2..4");
  const sim::FaultInjector a(plan, 42);
  const sim::FaultInjector b(plan, 42);
  const sim::FaultInjector other(plan, 43);
  int fired = 0;
  int differs = 0;
  std::vector<sim::FaultInjector::ForgedMessage> out_a, out_b, out_other;
  for (sim::Round round = 1; round <= 6; ++round) {
    for (sim::ProcessIndex receiver = 0; receiver < 8; ++receiver) {
      out_a.clear();
      out_b.clear();
      out_other.clear();
      a.forged(round, receiver, /*n=*/8, out_a);
      b.forged(round, receiver, /*n=*/8, out_b);
      other.forged(round, receiver, /*n=*/8, out_other);
      // Same seed: identical decisions, identities, and entropy.
      ASSERT_EQ(out_a.size(), out_b.size());
      for (std::size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a[i].spoofed_sender, out_b[i].spoofed_sender);
        EXPECT_EQ(out_a[i].entropy, out_b[i].entropy);
        EXPECT_GE(out_a[i].spoofed_sender, 0);
        EXPECT_LT(out_a[i].spoofed_sender, 8);
      }
      EXPECT_LE(out_a.size(), 3u);  // at most K per receiver per round
      if (round < 2 || round > 4) {
        EXPECT_TRUE(out_a.empty());  // window closed
      }
      fired += static_cast<int>(out_a.size());
      if (out_a.size() != out_other.size()) differs += 1;
    }
  }
  EXPECT_GT(fired, 0);
  EXPECT_GT(differs, 0);

  // Degenerate rules inject nothing.
  std::vector<sim::FaultInjector::ForgedMessage> out;
  sim::FaultInjector(sim::parse_fault_plan("forge:0"), 1).forged(1, 0, 8, out);
  EXPECT_TRUE(out.empty());
  sim::FaultInjector(sim::parse_fault_plan("forge:3x0"), 1).forged(1, 0, 8, out);
  EXPECT_TRUE(out.empty());
  // Probability 1 fires every slot.
  sim::FaultInjector(sim::parse_fault_plan("forge:3"), 1).forged(1, 0, 8, out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(FaultInjector, RestartSkewIsDeterministicAndBounded) {
  const sim::FaultPlan plan = sim::parse_fault_plan("restart:2@7,scramble+restart:3@1,scramble");
  const sim::FaultInjector a(plan, 5);
  const sim::FaultInjector b(plan, 5);
  const int skew = a.restart_skew(0, plan.restarts[0]);
  EXPECT_EQ(skew, b.restart_skew(0, plan.restarts[0]));
  EXPECT_GE(skew, 0);
  EXPECT_LT(skew, 7);
  // A round-1 restart has no past to scramble into.
  EXPECT_EQ(a.restart_skew(1, plan.restarts[1]), 0);
}

TEST(FaultHarness, ForgeCountZeroMatchesTheUnfaultedRun) {
  core::ScenarioConfig config;
  config.params = {.n = 10, .t = 3};
  config.seed = 5;
  const core::ScenarioResult plain = core::run_scenario(config);
  config.fault_plan = sim::parse_fault_plan("forge:0");
  const core::ScenarioResult noop = core::run_scenario(config);
  EXPECT_TRUE(noop.report.all_ok());
  EXPECT_EQ(noop.run.rounds, plain.run.rounds);
  EXPECT_EQ(noop.run.decisions, plain.run.decisions);
  EXPECT_EQ(noop.run.metrics.total_messages(), plain.run.metrics.total_messages());
  EXPECT_EQ(noop.run.metrics.total_injected_forgeries(), 0u);
}

TEST(FaultHarness, ImpersonationPreservesSafetyWithSmallerMarginThanByzantine) {
  // The tentpole claim, measured: k-impersonation (Okun) is strictly
  // weaker than full Byzantine. The ghost strategy's single phantom
  // identity costs at most one extra name, while the Byzantine idflood
  // adversary drives the namespace to the tight N+t-1 bound.
  core::ScenarioConfig forged;
  forged.params = {.n = 13, .t = 4};
  forged.seed = 7;
  forged.fault_plan = sim::parse_fault_plan("forge:8");
  const core::ScenarioResult under_forge = core::run_scenario(forged);
  EXPECT_TRUE(under_forge.report.all_ok()) << under_forge.report.detail;
  EXPECT_GT(under_forge.run.metrics.total_injected_forgeries(), 0u);

  core::ScenarioConfig byzantine;
  byzantine.params = {.n = 13, .t = 4};
  byzantine.seed = 7;
  byzantine.adversary = "idflood";
  const core::ScenarioResult under_byzantine = core::run_scenario(byzantine);
  const auto max_name = [](const core::ScenarioResult& result) {
    sim::Name max = 0;
    for (const core::NamedProcess& p : result.named) {
      if (p.new_name.has_value()) max = std::max(max, *p.new_name);
    }
    return max;
  };
  // idflood saturates the namespace bound exactly (EXPERIMENTS T2);
  // impersonation stays strictly below it.
  EXPECT_EQ(max_name(under_byzantine), 16);  // N + t - 1
  EXPECT_LT(max_name(under_forge), max_name(under_byzantine));
}

TEST(FaultHarness, GhostAdmissionNeedsTheWeakQuorum) {
  // The ghost id is accepted only once the forged Ready links reach the
  // N-2t amplification quorum accumulated over selection steps 3..4 —
  // k=2 stays below it at n=13, t=4 (4 links < 5), k=4 crosses it.
  const auto accepted_at = [](int k) {
    core::ScenarioConfig config;
    config.params = {.n = 13, .t = 4};
    config.seed = 7;
    config.fault_plan = sim::parse_fault_plan("forge:" + std::to_string(k));
    return core::run_scenario(config).max_accepted;
  };
  EXPECT_EQ(accepted_at(2), 9u);   // the 9 correct ids only
  EXPECT_EQ(accepted_at(4), 10u);  // + the ghost
}

TEST(FaultHarness, UnknownForgeryStrategyThrows) {
  core::ScenarioConfig config;
  config.params = {.n = 7, .t = 2};
  config.fault_plan = sim::parse_fault_plan("forge:1=no-such-strategy");
  EXPECT_THROW((void)core::run_scenario(config), std::invalid_argument);
}

TEST(FaultHarness, RestartAtRoundOneRecovers) {
  // Restarting before anything was sent loses nothing: the process
  // re-runs the protocol from scratch, in lockstep with everyone else.
  core::ScenarioConfig config;
  config.params = {.n = 13, .t = 2};
  config.seed = 7;
  config.extra_rounds = 8;
  config.fault_plan = sim::parse_fault_plan("restart:3@1");
  const core::ScenarioResult result = core::run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_EQ(result.report.restarted, 1);
  EXPECT_EQ(result.report.recovered, 1);
  int restarted_named = 0;
  for (const core::NamedProcess& p : result.named) restarted_named += p.restarted ? 1 : 0;
  EXPECT_EQ(restarted_named, 1);
  EXPECT_EQ(result.run.metrics.total_injected_restarts(), 1u);
}

TEST(FaultHarness, MidProtocolRestartStarvesButStaysSafe) {
  // A restart after the one-shot id-announcement round has no rejoin
  // path in Alg. 1: the restarted process starves (termination loss for
  // it alone) while every safety class survives — the same fail-safe
  // shape the drop sweeps show (EXPERIMENTS.md).
  core::ScenarioConfig config;
  config.params = {.n = 13, .t = 2};
  config.seed = 7;
  config.extra_rounds = 8;
  config.fault_plan = sim::parse_fault_plan("restart:3@2");
  const core::ScenarioResult result = core::run_scenario(config);
  EXPECT_TRUE(result.report.has(core::ViolationClass::kTermination));
  EXPECT_FALSE(result.report.has(core::ViolationClass::kUniqueness));
  EXPECT_FALSE(result.report.has(core::ViolationClass::kOrder));
  EXPECT_FALSE(result.report.has(core::ViolationClass::kRange));
  EXPECT_EQ(result.report.restarted, 1);
  EXPECT_EQ(result.report.recovered, 0);
}

TEST(FaultHarness, RestartAfterTerminationIsANoOp) {
  // fast renaming finishes in 2 rounds; a restart scheduled for round 3
  // never fires because the run is already over.
  core::ScenarioConfig config;
  config.algorithm = core::Algorithm::kFastRenaming;
  config.params = {.n = 13, .t = 2};
  config.seed = 7;
  config.fault_plan = sim::parse_fault_plan("restart:3@3");
  const core::ScenarioResult result = core::run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_EQ(result.report.restarted, 0);
  EXPECT_EQ(result.run.metrics.total_injected_restarts(), 0u);
}

TEST(FaultHarness, ForgeDropDelayCompositionIsBitReproducible) {
  core::ScenarioConfig config;
  config.params = {.n = 13, .t = 4};
  config.adversary = "idflood";
  config.seed = 77;
  config.fault_plan =
      sim::parse_fault_plan("forge:2x0.5+drop:0.1+delay:0.5x2+restart:1@3,scramble");
  config.extra_rounds = 4;
  const core::ScenarioResult first = core::run_scenario(config);
  const core::ScenarioResult second = core::run_scenario(config);
  EXPECT_EQ(first.report.all_ok(), second.report.all_ok());
  EXPECT_EQ(first.report.classes(), second.report.classes());
  EXPECT_EQ(first.report.restarted, second.report.restarted);
  EXPECT_EQ(first.report.recovered, second.report.recovered);
  EXPECT_EQ(first.run.rounds, second.run.rounds);
  EXPECT_EQ(first.run.decisions, second.run.decisions);
  EXPECT_EQ(first.run.metrics.total_messages(), second.run.metrics.total_messages());
  EXPECT_EQ(first.run.metrics.total_injected_forgeries(),
            second.run.metrics.total_injected_forgeries());
  EXPECT_EQ(first.run.metrics.total_injected_restarts(),
            second.run.metrics.total_injected_restarts());
}

TEST(FaultHarness, AttachedEventLogChangesNoOutcome) {
  // Tracing only observes: with or without an event log, a clean and a
  // faulted run decide the same names in the same rounds, charge the
  // same per-round counters and get the same checker report.
  for (const char* plan : {"", "drop:0.1+dup:0.1+delay:0.1x1+forge:1"}) {
    SCOPED_TRACE(std::string("plan=") + plan);
    core::ScenarioConfig config;
    config.params = {.n = 13, .t = 4};
    config.adversary = "asymflood";
    config.seed = 17;
    config.fault_plan = sim::parse_fault_plan(plan);
    config.extra_rounds = 8;
    const core::ScenarioResult untraced = core::run_scenario(config);
    trace::EventLog log;
    config.event_log = &log;
    const core::ScenarioResult traced = core::run_scenario(config);

    EXPECT_FALSE(log.events().empty());
    EXPECT_EQ(traced.run.decisions, untraced.run.decisions);
    EXPECT_EQ(traced.run.decide_rounds, untraced.run.decide_rounds);
    EXPECT_EQ(traced.run.metrics.per_round(), untraced.run.metrics.per_round());
    EXPECT_EQ(traced.report.all_ok(), untraced.report.all_ok());
    EXPECT_EQ(traced.report.classes(), untraced.report.classes());
    EXPECT_EQ(traced.report.detail, untraced.report.detail);
    EXPECT_EQ(traced.report.max_name, untraced.report.max_name);
    EXPECT_EQ(traced.report.min_name, untraced.report.min_name);
    EXPECT_EQ(traced.report.violations.size(), untraced.report.violations.size());
  }
}

TEST(AdversaryRegistry, EveryListedNameResolvesAndUnknownThrows) {
  const std::vector<std::string> names = adversary::adversary_names();
  ASSERT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    EXPECT_NO_THROW((void)adversary::find_adversary(name)) << name;
  }
  EXPECT_THROW((void)adversary::find_adversary("no-such-strategy"), std::out_of_range);
}

TEST(AdversaryRegistry, EveryStrategyComposesWithAFaultPlan) {
  for (const std::string& name : adversary::adversary_names()) {
    core::ScenarioConfig config;
    config.params = {.n = 13, .t = 4};
    config.adversary = name;
    config.seed = 21;
    config.fault_plan = sim::parse_fault_plan("drop:0.05+dup:0.05+crash:1@2..3");
    core::ScenarioResult result;
    ASSERT_NO_THROW(result = core::run_scenario(config)) << name;
    // decide_rounds provenance is populated for every physical process.
    EXPECT_EQ(result.run.decide_rounds.size(), 13u) << name;
    EXPECT_EQ(result.named.size(), 9u) << name;
  }
}

}  // namespace
}  // namespace byzrename
