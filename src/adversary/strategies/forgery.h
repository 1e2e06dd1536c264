#ifndef BYZRENAME_ADVERSARY_STRATEGIES_FORGERY_H
#define BYZRENAME_ADVERSARY_STRATEGIES_FORGERY_H

#include <array>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "sim/network.h"

namespace byzrename::adversary {

/// Forgery strategies for the impersonation adversary (ForgeRule in
/// sim/fault.h; Okun, arXiv:1007.1086). Unlike the Byzantine strategies
/// above, these do not control any process: they only choose the payload
/// of externally injected forged-sender messages. Every strategy is a
/// pure function of its inputs, so forged runs stay order-independent.
///
///   ghost    a stable phantom process at an order boundary of the real
///            id space announces itself and pushes its id through the
///            Echo/Ready waves — the canonical "insert a fake
///            participant" impersonation attack
///   replay   re-announces the spoofed sender's REAL id — consistent
///            impersonation that a correct protocol must tolerate
///            trivially (the real sender broadcasts the same)
///   ranklie  once the voting phase starts, votes the reversal of the
///            correct ranking in the spoofed sender's name — the
///            strongest order attack expressible without equivocation
///
/// All registered strategy names, sorted.
[[nodiscard]] std::vector<std::string> forgery_strategy_names();

/// True if @p name is a registered forgery strategy. The harness
/// validates every ForgeRule's strategy up front with this.
[[nodiscard]] bool has_forgery_strategy(const std::string& name);

/// The registry-backed payload supplier the harness attaches to the
/// network when the fault plan contains forge rules. Stateless after
/// construction: forge() is a pure function of its arguments and the
/// environment captured here, and the ghost payloads, which never vary,
/// are built here once and shared by every slot.
class RegistryForgerySource final : public sim::ForgerySource {
 public:
  explicit RegistryForgerySource(const AdversaryEnv& env);

  [[nodiscard]] sim::PayloadRef forge(sim::Round round, sim::ProcessIndex spoofed_sender,
                                      sim::ProcessIndex receiver, const std::string& strategy,
                                      std::uint64_t entropy) override;

 private:
  core::Algorithm algorithm_;
  /// Original id of every physical index (correct and Byzantine), so a
  /// replay forgery can speak with the spoofed sender's real identity.
  std::vector<sim::Id> id_of_index_;
  /// The ghost phantom's id: the midpoint of the median gap of the real
  /// id space (an order boundary), guaranteed fresh.
  sim::Id ghost_id_ = 0;
  /// The ghost's IdMsg, EchoMsg and ReadyMsg of ghost_id_, for round 1,
  /// round 2 and every later round.
  std::array<sim::PayloadRef, 3> ghost_;
  /// Correct ids sorted ascending; basis of the ranklie reversal.
  std::vector<sim::Id> sorted_ids_;
};

}  // namespace byzrename::adversary

#endif  // BYZRENAME_ADVERSARY_STRATEGIES_FORGERY_H
