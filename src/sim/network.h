#ifndef BYZRENAME_SIM_NETWORK_H
#define BYZRENAME_SIM_NETWORK_H

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/payload.h"
#include "sim/process.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace byzrename::trace {
class EventLog;
}  // namespace byzrename::trace

namespace byzrename::sim {

/// Supplies payloads for the impersonation adversary's forged-sender
/// messages (ForgeRule in sim/fault.h). Lives at the network layer so
/// fault.h stays payload-free; the adversary registry implements it
/// (adversary/strategies/forgery.h). Implementations must be pure in
/// (round, spoofed_sender, receiver, strategy, entropy) — no internal
/// state — to preserve the campaign engine's order-independence.
class ForgerySource {
 public:
  virtual ~ForgerySource() = default;
  /// Payload of one forged delivery, or an empty ref to decline the slot.
  [[nodiscard]] virtual PayloadRef forge(Round round, ProcessIndex spoofed_sender,
                                         ProcessIndex receiver, const std::string& strategy,
                                         std::uint64_t entropy) = 0;
};

/// Fully connected synchronous network of N processes.
///
/// Realizes the model of Section II of the paper:
///  - computation proceeds in lockstep rounds: all round-r messages are
///    delivered before any process takes a round-(r+1) action;
///  - each pair of processes is connected by a reliable link, and every
///    process has a self-loop;
///  - a receiver learns only the (stable) label of the link a message
///    arrived on, never the sender's identity. Link labels are scrambled
///    with a per-receiver random permutation so no algorithm can cheat by
///    decoding sender indices out of labels;
///  - Byzantine processes may send arbitrary, per-destination payloads.
class Network {
 public:
  /// @param behaviors one behavior per process; index is the physical
  ///        process index (hidden from correct behaviors).
  /// @param byzantine byzantine[i] marks process i faulty: it gains
  ///        targeted sends and is excluded from termination/decisions.
  /// @param rng source for the link-label scrambling.
  /// @param scramble_links when true (default, the paper's model) each
  ///        receiver's link labels are a random permutation of the peers;
  ///        when false link label == sender index, modelling the stronger
  ///        sender-authenticated setting that the reliable-broadcast and
  ///        consensus substrates presuppose (see DESIGN.md).
  Network(std::vector<std::unique_ptr<ProcessBehavior>> behaviors, std::vector<bool> byzantine,
          Rng rng, bool scramble_links = true);

  /// Executes one synchronous round (send phase then receive phase).
  void run_round(Round round);

  [[nodiscard]] int size() const noexcept { return static_cast<int>(behaviors_.size()); }
  [[nodiscard]] bool is_byzantine(ProcessIndex i) const { return byzantine_.at(static_cast<std::size_t>(i)); }

  /// True once every correct process reports done().
  [[nodiscard]] bool all_correct_done() const;

  [[nodiscard]] ProcessBehavior& behavior(ProcessIndex i) { return *behaviors_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const ProcessBehavior& behavior(ProcessIndex i) const {
    return *behaviors_.at(static_cast<std::size_t>(i));
  }

  /// Link label on which @p receiver hears from @p sender. Exposed for
  /// tests and full-information adversaries; the latter call this inside
  /// per-message loops, so indexing is unchecked (both tables are built
  /// and validated once in the constructor).
  [[nodiscard]] LinkIndex link_of(ProcessIndex receiver, ProcessIndex sender) const {
    return link_of_sender_[static_cast<std::size_t>(receiver)][static_cast<std::size_t>(sender)];
  }

  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Round in which process @p i was first observed done(), or 0 if it
  /// never decided. Feeds the checker's violation provenance.
  [[nodiscard]] Round decided_round(ProcessIndex i) const {
    return decided_round_.at(static_cast<std::size_t>(i));
  }

  /// Attaches a structured event trace (sends and deliveries); pass
  /// nullptr to detach. The log sees physical indices — it is the
  /// omniscient observer's view, not any process's.
  void attach_event_log(trace::EventLog* log) noexcept { event_log_ = log; }

  /// Attaches a model-violation injector (sim/fault.h); pass nullptr to
  /// detach. Non-owning — the injector must outlive the run. With none
  /// attached (the default) the network realizes the paper's reliable
  /// lockstep model exactly.
  void attach_fault_injector(const FaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }

  /// Attaches the payload supplier for forge rules; pass nullptr to
  /// detach. Non-owning. Without one, forged slots fall back to a phantom
  /// IdMsg carrying the entropy hash as its id — enough for standalone
  /// sim tests, while the harness always attaches the registry source.
  void attach_forgery_source(ForgerySource* source) noexcept { forgery_source_ = source; }

  /// Factory producing a fresh behavior for process @p i, used by restart
  /// events to re-initialize a correct process mid-protocol. Restart
  /// events targeting correct processes are ignored until one is attached
  /// (the harness always attaches it when the plan has restarts).
  using BehaviorFactory = std::function<std::unique_ptr<ProcessBehavior>(ProcessIndex)>;
  void attach_behavior_factory(BehaviorFactory factory) { behavior_factory_ = std::move(factory); }

  /// True if process @p i was re-initialized by a restart event at any
  /// point in the run. Feeds the checker's recovered verdict.
  [[nodiscard]] bool was_restarted(ProcessIndex i) const {
    return restarted_.at(static_cast<std::size_t>(i));
  }

 private:
  /// Delivers one outbox entry to its receivers (every process for a
  /// broadcast, the destination of a send_to), each as its link's fate
  /// says, and charges the entry's messages and bits to @p metrics.
  void fan_out(Round round, std::size_t sender, const Outbox::Entry& entry,
               RoundMetrics& metrics);

  std::vector<std::unique_ptr<ProcessBehavior>> behaviors_;
  std::vector<bool> byzantine_;
  /// Which processes have been observed done(); drives decide events.
  std::vector<bool> done_;
  /// Round of each process's done() transition (0 = not yet).
  std::vector<Round> decided_round_;
  /// link_of_sender_[receiver][sender] -> link label at the receiver.
  std::vector<std::vector<LinkIndex>> link_of_sender_;
  /// Deliveries the injector postponed to one future round. Batches are
  /// few (delay rules are rare), so a flat vector with linear lookup
  /// beats std::map's node allocations on the per-round fast path.
  struct DelayedBatch {
    Round due = 0;
    std::vector<std::pair<std::size_t, Delivery>> entries;
  };
  std::vector<DelayedBatch> delayed_;
  /// Per-receiver inbox buffers, pooled across rounds: cleared (capacity
  /// kept) rather than reallocated, so steady-state rounds do not touch
  /// the heap for delivery storage.
  std::vector<Inbox> inboxes_;
  /// Scratch for the counting sort that orders each inbox by link label.
  std::vector<Delivery> sort_scratch_;
  std::vector<std::uint32_t> link_offsets_;
  Metrics metrics_;
  trace::EventLog* event_log_ = nullptr;
  const FaultInjector* fault_injector_ = nullptr;
  ForgerySource* forgery_source_ = nullptr;
  BehaviorFactory behavior_factory_;
  /// Processes re-initialized by a restart event at some earlier round.
  std::vector<bool> restarted_;
  /// Per-process local-round skew: a restarted process believes the
  /// current round is round + round_offset_[i] (<= the global round).
  /// 0 for never-restarted processes, so their view is unchanged.
  std::vector<int> round_offset_;
  /// Scratch for FaultInjector::forged, pooled across rounds.
  std::vector<FaultInjector::ForgedMessage> forged_scratch_;
  /// The current sender's fate per receiver, filled on each link's first
  /// delivery of the round; pooled across senders and rounds.
  std::vector<std::optional<FaultInjector::Fate>> fate_row_;
};

}  // namespace byzrename::sim

#endif  // BYZRENAME_SIM_NETWORK_H
