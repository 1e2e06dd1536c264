#ifndef BYZRENAME_SIM_FAULT_H
#define BYZRENAME_SIM_FAULT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace byzrename::sim {

/// The paper's model (Section II) assumes reliable lockstep links and at
/// most t faulty processes. The fault injector deliberately violates that
/// model at the link layer so experiments can measure *which* guarantee
/// degrades first and how gracefully (ISSUE 3; cf. Okun's channel-level
/// impersonation model, arXiv:1007.1086). Every decision is a pure
/// function of (seed, round, sender, receiver, rule), so a FaultPlan plus
/// a seed names the exact same perturbed execution on every machine and
/// composes deterministically with the Byzantine adversary strategies.

/// Probabilistic link fault applied while a round window is open. It is
/// decided once per (round, sender, receiver) link, and every message the
/// sender puts on that link in that round shares the decision.
enum class LinkFaultKind {
  kDrop,       ///< the link's messages silently vanish
  kDuplicate,  ///< the link's messages each arrive twice in the same round
  kDelay,      ///< the link's messages are postponed by delay_rounds rounds
};

struct LinkFaultRule {
  LinkFaultKind kind = LinkFaultKind::kDrop;
  /// Per-(round, sender, receiver) application probability in [0, 1].
  double probability = 0.0;
  /// Active window, inclusive; to_round == 0 leaves the window open.
  Round from_round = 1;
  Round to_round = 0;
  /// kDelay only: rounds the link's messages are postponed by (>= 1).
  int delay_rounds = 1;

  friend bool operator==(const LinkFaultRule&, const LinkFaultRule&) = default;
};

/// Crash-recovery: the process neither sends nor receives during
/// [from_round, to_round] and resumes afterwards (to_round == 0 means it
/// never recovers). Applies to any physical index, so crashes compose
/// with Byzantine team members too.
struct CrashEvent {
  ProcessIndex process = 0;
  Round from_round = 1;
  Round to_round = 0;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// Transient partition: during [from_round, to_round] the island of
/// processes [lo, hi] exchanges no messages with the rest of the system
/// (traffic inside the island, and inside the complement, still flows).
struct PartitionEvent {
  ProcessIndex lo = 0;
  ProcessIndex hi = 0;
  Round from_round = 1;
  Round to_round = 0;

  friend bool operator==(const PartitionEvent&, const PartitionEvent&) = default;
};

/// Impersonation (Okun, arXiv:1007.1086): an external adversary that may
/// insert up to `count` forged-sender messages per correct receiver per
/// round — strictly weaker than Byzantine, because it cannot read or
/// suppress honest traffic, only add lies on existing links. The forged
/// payload comes from a named forgery strategy (adversary/strategies/
/// forgery.h); the spoofed sender is hash-derived, so the forged
/// delivery arrives on the exact link a real message from that sender
/// would use and is indistinguishable at the receiver.
struct ForgeRule {
  /// Max forged messages injected per correct receiver per round (k of
  /// Okun's model). 0 is a valid no-op rule.
  int count = 1;
  /// Per-slot firing probability in [0, 1]; 1 fires every slot.
  double probability = 1.0;
  /// Forgery-strategy name; resolved against the forgery registry by the
  /// harness. "ghost" is the default phantom-process strategy.
  std::string strategy = "ghost";
  /// Active window, inclusive; to_round == 0 leaves the window open.
  Round from_round = 1;
  Round to_round = 0;

  friend bool operator==(const ForgeRule&, const ForgeRule&) = default;
};

/// What a restarted process remembers about its own round counter
/// (Lenzen–Rybicki, arXiv:1503.06702: transient faults corrupt state,
/// including clocks).
enum class RestartState {
  kReset,     ///< clean reboot: the local round counter restarts at 1
  kScramble,  ///< corrupted counter: resumes at a hash-derived wrong round
};

/// Transient restart: at the START of `round` the process is
/// re-initialized mid-protocol — fresh behavior state, cleared inbox,
/// in-flight (delayed) deliveries to it lost, decision forgotten. Only
/// correct processes restart (a Byzantine process gains nothing from
/// losing state). The checker reports whether restarted processes
/// re-joined and decided correctly (CheckReport::recovered).
struct RestartEvent {
  ProcessIndex process = 0;
  Round round = 1;
  RestartState state = RestartState::kReset;

  friend bool operator==(const RestartEvent&, const RestartEvent&) = default;
};

/// Declarative model-violation plan. Compact spec grammar (see
/// docs/FAULTS.md), events joined by '+':
///
///   drop:P[@r1..r2]      drop a link's messages with probability P
///   dup:P[@r1..r2]       duplicate a link's messages with probability P
///   delay:PxK[@r1..r2]   postpone a link's messages by K rounds, prob. P
///   crash:PID@r1[..r2]   process PID down for rounds r1..r2 (or forever)
///   part:LO-HI@r1..r2    island [LO..HI] partitioned off during r1..r2
///   overshoot:K          K extra Byzantine processes beyond the declared
///                        budget — the f > t model violation
///   forge:K[xP][=STRAT][@r1..r2]
///                        up to K forged-sender messages per correct
///                        receiver per round (impersonation), each slot
///                        firing with probability P (default 1), payload
///                        from forgery strategy STRAT (default "ghost")
///   restart:PID@R[,scramble|reset]
///                        process PID re-initialized at the start of
///                        round R; "scramble" corrupts its round counter
struct FaultPlan {
  std::vector<LinkFaultRule> links;
  std::vector<CrashEvent> crashes;
  std::vector<PartitionEvent> partitions;
  std::vector<ForgeRule> forges;
  std::vector<RestartEvent> restarts;
  /// Extra faulty processes beyond ScenarioConfig::actual_faults; the
  /// harness converts that many more correct processes to Byzantine,
  /// deliberately exceeding t.
  int fault_overshoot = 0;

  [[nodiscard]] bool empty() const noexcept {
    return links.empty() && crashes.empty() && partitions.empty() && forges.empty() &&
           restarts.empty() && fault_overshoot == 0;
  }
  /// Number of declared events; the shrinker's size contribution.
  [[nodiscard]] std::size_t event_count() const noexcept {
    return links.size() + crashes.size() + partitions.size() + forges.size() +
           restarts.size() + static_cast<std::size_t>(fault_overshoot > 0 ? 1 : 0);
  }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Parses the compact spec grammar above. Throws std::invalid_argument
/// with a human-readable message on malformed input. An empty string is
/// the empty plan.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view spec);

/// Canonical spec string; parse_fault_plan(to_spec(p)) == p.
[[nodiscard]] std::string to_spec(const FaultPlan& plan);

/// Applies a FaultPlan at the link layer of the lockstep network. All
/// methods are const and decisions are hash-derived, never drawn from
/// sequential RNG state, so fate(round, s, r) is independent of the order
/// deliveries are evaluated in — the property the campaign engine's
/// bit-determinism gate relies on.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), seed_(seed) {}

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// True while @p process is inside a crash window at @p round.
  [[nodiscard]] bool crashed(ProcessIndex process, Round round) const noexcept;

  /// Combined fate of the (round, sender, receiver) link: it applies to
  /// every message @p sender sends @p receiver in @p round, so the network
  /// evaluates it once per link, not per message. Drop dominates;
  /// duplication and delay from multiple matching rules accumulate.
  struct Fate {
    bool drop = false;  ///< partition cut, crashed receiver, or drop rule
    int copies = 1;     ///< 1 + accepted duplication rules
    int delay = 0;      ///< summed delay rounds of accepted delay rules
  };
  [[nodiscard]] Fate fate(Round round, ProcessIndex sender, ProcessIndex receiver) const;

  /// One forged-sender message the impersonation adversary injects.
  struct ForgedMessage {
    ProcessIndex spoofed_sender = 0;  ///< hash-derived, in [0, n)
    std::size_t rule = 0;             ///< index into plan().forges
    std::uint64_t entropy = 0;        ///< per-slot hash for the strategy
  };
  /// Appends the forged deliveries aimed at @p receiver in @p round, in
  /// deterministic (rule, slot) order. @p n bounds the spoofed-sender
  /// index. Pure per-(round, receiver): independent of evaluation order,
  /// like fate().
  void forged(Round round, ProcessIndex receiver, int n,
              std::vector<ForgedMessage>& out) const;

  /// Round-counter skew of a kScramble restart, in [0, event.round - 1]:
  /// the restarted process resumes believing it is `skew` rounds further
  /// along than a clean reset would be. Pure hash of the event
  /// coordinates; @p rule is the event's index in plan().restarts.
  [[nodiscard]] int restart_skew(std::size_t rule, const RestartEvent& event) const noexcept;

 private:
  FaultPlan plan_;
  std::uint64_t seed_;
};

}  // namespace byzrename::sim

#endif  // BYZRENAME_SIM_FAULT_H
