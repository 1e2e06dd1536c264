#include "core/id_selection.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/rng.h"

namespace byzrename::core {

using sim::Delivery;
using sim::EchoMsg;
using sim::Id;
using sim::IdMsg;
using sim::Inbox;
using sim::LinkIndex;
using sim::Outbox;
using sim::ReadyMsg;
using sim::Round;

namespace {

/// IdSelection::LinkId: (link, id) packed link-major.
using LinkId = numeric::uwide_t;

constexpr std::uint64_t kIdBias = std::uint64_t{1} << 63;

LinkId pack(LinkIndex link, Id id) {
  return (static_cast<LinkId>(static_cast<std::uint32_t>(link)) << 64) |
         (static_cast<std::uint64_t>(id) ^ kIdBias);
}
Id id_of(LinkId key) { return static_cast<Id>(static_cast<std::uint64_t>(key) ^ kIdBias); }
std::uint64_t link_of(LinkId key) { return static_cast<std::uint64_t>(key >> 64); }

/// Appends the (link, id) key of every @p Msg in @p inbox to the empty
/// @p keys, leaving them sorted and duplicate-free. In a link-ordered
/// inbox only links whose ids are not already ascending are sorted; a
/// descending link breaks that precondition and sorts everything.
template <typename Msg>
void canonical_keys(const Inbox& inbox, std::vector<LinkId>& keys) {
  bool sorted = true;
  bool link_ordered = true;
  for (const Delivery& d : inbox) {
    const auto* msg = std::get_if<Msg>(&*d.payload);
    if (msg == nullptr) continue;
    const LinkId key = pack(d.link, msg->id);
    if (!keys.empty() && key < keys.back()) {
      sorted = false;
      if (link_of(key) != link_of(keys.back())) link_ordered = false;
    }
    keys.push_back(key);
  }
  if (!link_ordered) {
    std::sort(keys.begin(), keys.end());
  } else if (!sorted) {
    for (auto run = keys.begin(); run != keys.end();) {
      const std::uint64_t link = link_of(*run);
      const auto next =
          std::find_if(run, keys.end(), [link](LinkId key) { return link_of(key) != link; });
      if (!std::is_sorted(run, next)) std::sort(run, next);
      run = next;
    }
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

/// Per-id key counts: open addressing over a power-of-two table that
/// lives for one step's tally only.
class LinkCounts {
 public:
  explicit LinkCounts(std::size_t expected_ids)
      : slots_(std::bit_ceil(std::max<std::size_t>(16, 2 * (expected_ids + 1)))) {}

  void add(Id id) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    Slot& slot = find(id);
    if (slot.links == 0) {
      slot.id = id;
      ++used_;
    }
    ++slot.links;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.links > 0) fn(slot.id, slot.links);
    }
  }

 private:
  struct Slot {
    Id id = 0;
    int links = 0;  ///< 0 marks an empty slot
  };

  Slot& find(Id id) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = sim::splitmix64(static_cast<std::uint64_t>(id)) & mask;;
         i = (i + 1) & mask) {
      if (slots_[i].links == 0 || slots_[i].id == id) return slots_[i];
    }
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.links > 0) find(slot.id) = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

/// Distinct links per id over the union of two sorted, duplicate-free
/// key vectors. The linear merge visits a key present in both once.
/// @p links sizes the table: a correct sender's link carries about the
/// whole id set, so keys per link estimate the distinct ids.
LinkCounts count_links(int links, const std::vector<LinkId>& a,
                       const std::vector<LinkId>& b = {}) {
  LinkCounts counts((a.size() + b.size()) / static_cast<std::size_t>(std::max(1, links)));
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      counts.add(id_of(a[i++]));
    } else {
      if (!(b[j] < a[i])) ++i;
      counts.add(id_of(b[j++]));
    }
  }
  for (; i < a.size(); ++i) counts.add(id_of(a[i]));
  for (; j < b.size(); ++j) counts.add(id_of(b[j]));
  return counts;
}

}  // namespace

IdSelection::IdSelection(sim::SystemParams params, Id my_id) : params_(params), my_id_(my_id) {}

void IdSelection::on_send(Round step, Outbox& out) {
  switch (step) {
    case 1:
      out.broadcast(IdMsg{my_id_});
      break;
    case 2:
      for (const Id id : ids_) out.broadcast(EchoMsg{id});
      break;
    case 3:
      for (const Id id : ids_) {
        out.broadcast(ReadyMsg{id});
        ready_sent_.insert(id);
      }
      break;
    case 4:
      for (const Id id : ids_) {
        out.broadcast(ReadyMsg{id});
        ready_sent_.insert(id);
      }
      break;
    default:
      throw std::logic_error("IdSelection::on_send: step out of range");
  }
}

void IdSelection::on_receive(Round step, const Inbox& inbox) {
  const int quorum = params_.n - params_.t;           // N - t
  const int weak_quorum = params_.n - 2 * params_.t;  // N - 2t

  switch (step) {
    case 1: {
      // One id per link: a link that announces several "own" ids is
      // provably faulty and only its first announcement counts. This is
      // what caps Byzantine step-1 injections at t*(N-t) id slots
      // (Lemma A.1's counting argument).
      std::vector<unsigned char> seen_links(static_cast<std::size_t>(params_.n), 0);
      ids_.clear();
      for (const Delivery& d : inbox) {
        const auto* msg = std::get_if<IdMsg>(&*d.payload);
        if (msg == nullptr) continue;
        auto& seen = seen_links[static_cast<std::size_t>(d.link)];
        if (seen != 0) continue;
        seen = 1;
        ids_.insert(msg->id);
      }
      break;
    }
    case 2: {
      std::vector<LinkId> echo_pairs;
      echo_pairs.reserve(inbox.size());
      canonical_keys<EchoMsg>(inbox, echo_pairs);
      ids_.clear();
      count_links(params_.n, echo_pairs).for_each([&](Id id, int count) {
        if (count >= quorum) ids_.insert(id);
      });
      break;
    }
    case 3: {
      ready_pairs_.clear();
      ready_pairs_.reserve(inbox.size());
      canonical_keys<ReadyMsg>(inbox, ready_pairs_);
      ids_.clear();
      count_links(params_.n, ready_pairs_).for_each([&](Id id, int count) {
        if (count >= quorum) timely_.insert(id);
        // Amplification: a weak quorum of Readys means at least one
        // correct process observed an Echo quorum, so join in step 4.
        if (count >= weak_quorum && !ready_sent_.contains(id)) ids_.insert(id);
      });
      break;
    }
    case 4: {
      // Ready counts accumulate over steps 3 and 4 (paper, lines 24-25).
      std::vector<LinkId> step4_pairs;
      step4_pairs.reserve(inbox.size());
      canonical_keys<ReadyMsg>(inbox, step4_pairs);
      count_links(params_.n, ready_pairs_, step4_pairs).for_each([&](Id id, int count) {
        if (count >= quorum) accepted_.insert(id);
      });
      // The selection phase is over; release the O(N^2) tally buffer so
      // long voting phases (and N=1024 instances) do not pin it.
      ready_pairs_ = std::vector<LinkId>();
      break;
    }
    default:
      throw std::logic_error("IdSelection::on_receive: step out of range");
  }
}

}  // namespace byzrename::core
