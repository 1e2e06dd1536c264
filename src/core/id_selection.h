#ifndef BYZRENAME_CORE_ID_SELECTION_H
#define BYZRENAME_CORE_ID_SELECTION_H

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "numeric/fixed_rank.h"
#include "sim/payload.h"
#include "sim/process.h"
#include "sim/types.h"

namespace byzrename::core {

/// The 4-step id selection phase of Alg. 1 (steps 1-4).
///
/// Bounds the number of identifiers Byzantine processes can smuggle into
/// the computation without solving consensus on the id set. After step 4
/// the phase guarantees (Lemmas IV.1-IV.3 of the paper):
///   - every correct id is in the `timely` set of every correct process;
///   - timely_p (of any correct p) is a subset of accepted_q (of any
///     correct q);
///   - |accepted| <= N + floor(t^2 / (N - 2t)) <= N + t - 1 for N > 3t.
///
/// The message pattern is Bracha-style Echo/Ready, cut to exactly four
/// steps, with all counting done over *distinct link labels* because the
/// receiver never knows sender identities. A step's tally packs each
/// (link, id) pair link-major into a flat key vector, makes it sorted and
/// duplicate-free, then counts each id's keys in a table local to the
/// step: one key per distinct pair, so an id's key count is its
/// distinct-link count.
///
/// The network hands each inbox over ordered by link label
/// (sim::ProcessBehavior::on_receive), so the keys arrive grouped by link
/// and only a link whose ids are not already ascending needs sorting;
/// correct senders broadcast from a sorted, duplicate-free id vector, so
/// theirs are strictly ascending. The tally stays
/// total for any inbox: one descending link in the append pass falls
/// back to sorting the whole step's keys.
class IdSelection {
 public:
  IdSelection(sim::SystemParams params, sim::Id my_id);

  /// Emits this step's broadcasts; @p step must be 1..4.
  void on_send(sim::Round step, sim::Outbox& out);

  /// Consumes this step's inbox; @p step must be 1..4.
  void on_receive(sim::Round step, const sim::Inbox& inbox);

  /// Ids for which N-t Ready messages arrived by step 3 (the paper's
  /// `timely` set). Valid after step 3 (extended in step 4 only via
  /// accepted); stable after step 4.
  [[nodiscard]] const std::set<sim::Id>& timely() const noexcept { return timely_; }

  /// Ids accepted at the end of step 4 (the paper's `accepted` set).
  [[nodiscard]] const std::set<sim::Id>& accepted() const noexcept { return accepted_; }

  [[nodiscard]] sim::Id my_id() const noexcept { return my_id_; }

 private:
  /// (link, id) packed into one 128-bit key — link in the top 64 bits,
  /// sign-biased id in the low 64 — so link-major, id-minor pair order is
  /// plain unsigned order and inbox order already groups keys by link.
  using LinkId = numeric::uwide_t;

  sim::SystemParams params_;
  sim::Id my_id_;

  /// Working id set carried between steps (the paper's `Ids` variable):
  /// sorted and duplicate-free, rebuilt in place each step so its
  /// capacity carries over.
  std::vector<sim::Id> ids_;
  /// Step 3's distinct (link, id) Ready keys, sorted; step 4 counts their
  /// linear merge with its own keys, so a pair Readied in both steps
  /// counts once, then releases them.
  std::vector<LinkId> ready_pairs_;
  /// Ids this process broadcast Ready for in step 3 (step 2's `ids_`,
  /// sorted and duplicate-free); step 3's receive keeps them out of
  /// step 4's Readys.
  std::vector<sim::Id> ready_sent_;

  std::set<sim::Id> timely_;
  std::set<sim::Id> accepted_;
};

}  // namespace byzrename::core

#endif  // BYZRENAME_CORE_ID_SELECTION_H
