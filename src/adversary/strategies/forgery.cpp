#include "adversary/strategies/forgery.h"

#include <algorithm>
#include <array>
#include <cstddef>

namespace byzrename::adversary {

namespace {

constexpr std::array<const char*, 3> kForgeryStrategies = {"ghost", "ranklie", "replay"};

/// Rounds the op-family protocols spend in id selection (ID, Echo, two
/// Ready waves); forged selection traffic only makes sense inside them.
int selection_rounds(core::Algorithm algorithm) {
  switch (algorithm) {
    case core::Algorithm::kOpRenaming:
    case core::Algorithm::kOpRenamingConstantTime:
    case core::Algorithm::kBitRenaming:
      return 4;
    default:
      return 1;
  }
}

}  // namespace

std::vector<std::string> forgery_strategy_names() {
  return {kForgeryStrategies.begin(), kForgeryStrategies.end()};
}

bool has_forgery_strategy(const std::string& name) {
  return std::find(kForgeryStrategies.begin(), kForgeryStrategies.end(), name) !=
         kForgeryStrategies.end();
}

RegistryForgerySource::RegistryForgerySource(const AdversaryEnv& env)
    : algorithm_(env.algorithm) {
  id_of_index_.assign(static_cast<std::size_t>(env.params.n), 0);
  std::vector<sim::Id> all_ids;
  for (const auto& [index, id] : env.correct) {
    id_of_index_.at(static_cast<std::size_t>(index)) = id;
    sorted_ids_.push_back(id);
    all_ids.push_back(id);
  }
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    id_of_index_.at(static_cast<std::size_t>(env.byz_indices[i])) = env.byz_ids[i];
    all_ids.push_back(env.byz_ids[i]);
  }
  std::sort(sorted_ids_.begin(), sorted_ids_.end());
  std::sort(all_ids.begin(), all_ids.end());
  // The phantom slots into the median gap of the real id space — the
  // order boundary where a wrongly accepted id displaces the most
  // relative ranks — falling back past the maximum when the gap has no
  // fresh integer.
  if (all_ids.size() >= 2) {
    const std::size_t mid = all_ids.size() / 2;
    const sim::Id lo = all_ids[mid - 1];
    const sim::Id hi = all_ids[mid];
    ghost_id_ = (hi - lo > 1) ? lo + (hi - lo) / 2 : all_ids.back() + 1;
  } else {
    ghost_id_ = all_ids.empty() ? 1 : all_ids.back() + 1;
  }
  ghost_ = {sim::IdMsg{ghost_id_}, sim::EchoMsg{ghost_id_}, sim::ReadyMsg{ghost_id_}};
}

sim::PayloadRef RegistryForgerySource::forge(sim::Round round, sim::ProcessIndex spoofed_sender,
                                             sim::ProcessIndex receiver,
                                             const std::string& strategy,
                                             std::uint64_t entropy) {
  (void)receiver;
  const int selection = selection_rounds(algorithm_);
  if (strategy == "ghost") {
    // A phantom process walks the selection protocol: announce, echo
    // itself, stay Ready forever. Stable across rounds and receivers so
    // the phantom looks like one persistent (forged) participant, so
    // every slot shares the payloads built once in the constructor.
    if (round == 1) return ghost_[0];
    if (round == 2) return ghost_[1];
    return ghost_[2];
  }
  if (strategy == "replay") {
    // Consistent impersonation: say exactly what the spoofed sender
    // would say about its own id. A correct protocol tolerates this
    // trivially — the margin measurement's control strategy.
    const auto index = static_cast<std::size_t>(spoofed_sender);
    const sim::Id id = index < id_of_index_.size() ? id_of_index_[index] : 0;
    if (round == 1) return sim::IdMsg{id};
    if (round == 2) return sim::EchoMsg{id};
    return sim::ReadyMsg{id};
  }
  if (strategy == "ranklie") {
    // Quiet through selection, then vote the exact reversal of the
    // correct ranking in the spoofed sender's name. The entropy bit
    // jitters the reversal's scale so consecutive slots are not
    // byte-identical votes.
    if (round <= selection) return {};
    sim::RanksMsg msg;
    msg.entries.reserve(sorted_ids_.size());
    const auto m = static_cast<std::int64_t>(sorted_ids_.size());
    const std::int64_t stretch = 1 + static_cast<std::int64_t>(entropy & 1);
    for (std::size_t i = 0; i < sorted_ids_.size(); ++i) {
      const std::int64_t reversed = m - static_cast<std::int64_t>(i);
      msg.entries.push_back({sorted_ids_[i], numeric::Rational(reversed * stretch)});
    }
    return msg;
  }
  return {};  // unknown strategy: decline every slot (harness validates up front)
}

}  // namespace byzrename::adversary
