#include "sim/network.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/codec.h"
#include "trace/event_log.h"

namespace byzrename::sim {

void Outbox::send_to(ProcessIndex dest, PayloadRef payload) {
  if (!targeted_allowed_) {
    throw std::logic_error("Outbox::send_to: correct processes may only broadcast");
  }
  entries_.push_back({dest, std::move(payload)});
}

Network::Network(std::vector<std::unique_ptr<ProcessBehavior>> behaviors,
                 std::vector<bool> byzantine, Rng rng, bool scramble_links)
    : behaviors_(std::move(behaviors)), byzantine_(std::move(byzantine)) {
  if (behaviors_.empty()) throw std::invalid_argument("Network: no processes");
  if (byzantine_.size() != behaviors_.size()) {
    throw std::invalid_argument("Network: byzantine flag count mismatch");
  }
  const std::size_t n = behaviors_.size();
  done_.assign(n, false);
  decided_round_.assign(n, 0);
  link_of_sender_.resize(n);
  for (std::size_t receiver = 0; receiver < n; ++receiver) {
    std::vector<LinkIndex>& links = link_of_sender_[receiver];
    links.resize(n);
    std::iota(links.begin(), links.end(), 0);
    // Scramble so a link label reveals nothing about the peer behind it.
    if (scramble_links) std::shuffle(links.begin(), links.end(), rng.engine());
  }
  inboxes_.resize(n);
  link_offsets_.resize(n + 1);
  restarted_.assign(n, false);
  round_offset_.assign(n, 0);
}

void Network::run_round(Round round) {
  const std::size_t n = behaviors_.size();
  // Reuse the per-receiver buffers: clear drops last round's payload refs
  // but keeps each vector's capacity, so steady-state rounds perform no
  // inbox (re)allocation at all.
  for (Inbox& inbox : inboxes_) inbox.clear();
  RoundMetrics round_metrics;

  // Transient restarts (Lenzen–Rybicki): at the START of the event's
  // round the process is handed a fresh behavior, forgets any decision,
  // and loses every in-flight delayed delivery addressed to it. Its
  // local round counter resets to 1 (kReset) or to a hash-derived wrong
  // value in [1, round] (kScramble). Processed before the delayed flush
  // so deliveries due this very round are lost too.
  if (fault_injector_ != nullptr && behavior_factory_) {
    const std::vector<RestartEvent>& restarts = fault_injector_->plan().restarts;
    for (std::size_t e = 0; e < restarts.size(); ++e) {
      const RestartEvent& event = restarts[e];
      const auto pid = static_cast<std::size_t>(event.process);
      if (event.round != round || pid >= n || byzantine_[pid]) continue;
      behaviors_[pid] = behavior_factory_(event.process);
      restarted_[pid] = true;
      done_[pid] = false;
      decided_round_[pid] = 0;
      int skew = 0;
      if (event.state == RestartState::kScramble) {
        skew = fault_injector_->restart_skew(e, event);
      }
      round_offset_[pid] = 1 - static_cast<int>(round) + skew;
      for (DelayedBatch& batch : delayed_) {
        const std::size_t lost = std::erase_if(
            batch.entries, [&](const auto& entry) { return entry.first == pid; });
        round_metrics.injected_drops += lost;
      }
      round_metrics.injected_restarts += 1;
      if (event_log_ != nullptr) {
        std::string note = "restart: reset";
        if (event.state == RestartState::kScramble) {
          note = "restart: scramble +" + std::to_string(skew);
        }
        event_log_->record({round, trace::Event::Kind::kFault, event.process, std::nullopt,
                            -1, false, std::move(note)});
      }
    }
  }

  // Deliveries a delay rule postponed to this round. Their message/bit
  // cost was charged in the round they were sent; a receiver that has
  // crashed in the meantime loses them for good.
  for (auto it = delayed_.begin(); it != delayed_.end(); ++it) {
    if (it->due != round) continue;
    for (auto& [receiver, delivery] : it->entries) {
      if (fault_injector_ != nullptr &&
          fault_injector_->crashed(static_cast<ProcessIndex>(receiver), round)) {
        round_metrics.injected_drops += 1;
        if (event_log_ != nullptr) {
          event_log_->record({round, trace::Event::Kind::kFault,
                              static_cast<ProcessIndex>(receiver), std::nullopt,
                              delivery.link, byzantine_[receiver],
                              "crash: delayed delivery lost"});
        }
        continue;
      }
      inboxes_[receiver].push_back(std::move(delivery));
    }
    delayed_.erase(it);
    break;  // at most one batch per round by construction
  }

  for (std::size_t sender = 0; sender < n; ++sender) {
    // A crashed process takes no send action at all; on recovery it
    // resumes the protocol from its pre-crash state.
    if (fault_injector_ != nullptr &&
        fault_injector_->crashed(static_cast<ProcessIndex>(sender), round)) {
      if (event_log_ != nullptr) {
        event_log_->record({round, trace::Event::Kind::kFault,
                            static_cast<ProcessIndex>(sender), std::nullopt, -1,
                            byzantine_[sender], "crash: no send"});
      }
      continue;
    }
    Outbox out(byzantine_[sender]);
    // A restarted process acts on its own (skewed) view of the round.
    behaviors_[sender]->on_send(round + round_offset_[sender], out);
    // A fate is per (round, sender, receiver) link, so every message this
    // sender puts on one link this round shares it: evaluate it on the
    // link's first delivery and read it back for the rest.
    if (fault_injector_ != nullptr && !out.entries().empty()) fate_row_.assign(n, std::nullopt);
    for (const Outbox::Entry& entry : out.entries()) fan_out(round, sender, entry, round_metrics);
  }

  // Impersonation (Okun): the external adversary appends up to k forged
  // deliveries per correct receiver, each arriving on the exact link the
  // spoofed sender's real messages use. Forgeries are not charged to
  // messages/bits — the impersonator is outside the system, and those
  // counters feed the paper's complexity budgets.
  if (fault_injector_ != nullptr && !fault_injector_->plan().forges.empty()) {
    const std::vector<ForgeRule>& forges = fault_injector_->plan().forges;
    for (std::size_t receiver = 0; receiver < n; ++receiver) {
      if (byzantine_[receiver]) continue;
      if (fault_injector_->crashed(static_cast<ProcessIndex>(receiver), round)) continue;
      forged_scratch_.clear();
      fault_injector_->forged(round, static_cast<ProcessIndex>(receiver),
                              static_cast<int>(n), forged_scratch_);
      for (const FaultInjector::ForgedMessage& forged : forged_scratch_) {
        PayloadRef payload;
        if (forgery_source_ != nullptr) {
          payload = forgery_source_->forge(round, forged.spoofed_sender,
                                           static_cast<ProcessIndex>(receiver),
                                           forges[forged.rule].strategy, forged.entropy);
        } else {
          // Standalone-sim fallback: a phantom process announcing a
          // hash-derived id far outside any real id range.
          payload = IdMsg{static_cast<Id>(forged.entropy >> 32)};
        }
        if (!payload) continue;  // strategy declined the slot
        const std::size_t spoofed = static_cast<std::size_t>(forged.spoofed_sender);
        inboxes_[receiver].push_back({link_of_sender_[receiver][spoofed], payload});
        round_metrics.injected_forgeries += 1;
        if (event_log_ != nullptr) {
          event_log_->record({round, trace::Event::Kind::kFault,
                              static_cast<ProcessIndex>(receiver), std::nullopt,
                              link_of_sender_[receiver][spoofed], byzantine_[receiver],
                              "forge: as p" + std::to_string(forged.spoofed_sender) + " " +
                                  describe(*payload)});
        }
      }
    }
  }
  metrics_.add_round(round_metrics);

  for (std::size_t receiver = 0; receiver < n; ++receiver) {
    // A crashed process takes no receive action either; its (empty)
    // inbox for this round is gone for good.
    if (fault_injector_ != nullptr &&
        fault_injector_->crashed(static_cast<ProcessIndex>(receiver), round)) {
      if (event_log_ != nullptr) {
        event_log_->record({round, trace::Event::Kind::kFault,
                            static_cast<ProcessIndex>(receiver), std::nullopt, -1,
                            byzantine_[receiver], "crash: no receive"});
      }
      continue;
    }
    Inbox& inbox = inboxes_[receiver];
    // Stable order by link label: receiver-local, carries no sender info.
    // Link labels live in [0, N), so a counting sort places each delivery
    // in O(1) — O(N + M) total versus stable_sort's O(M log M) compares —
    // and the scratch buffer is pooled across rounds like the inboxes.
    if (inbox.size() > 1) {
      std::fill(link_offsets_.begin(), link_offsets_.end(), 0u);
      for (const Delivery& d : inbox) {
        link_offsets_[static_cast<std::size_t>(d.link) + 1] += 1;
      }
      for (std::size_t l = 1; l <= n; ++l) link_offsets_[l] += link_offsets_[l - 1];
      sort_scratch_.resize(inbox.size());
      for (Delivery& d : inbox) {
        sort_scratch_[link_offsets_[static_cast<std::size_t>(d.link)]++] = std::move(d);
      }
      inbox.swap(sort_scratch_);
    }
    if (event_log_ != nullptr) {
      for (const Delivery& d : inbox) {
        event_log_->record({round, trace::Event::Kind::kDeliver,
                            static_cast<ProcessIndex>(receiver), std::nullopt, d.link,
                            byzantine_[receiver], describe(*d.payload)});
      }
    }
    behaviors_[receiver]->on_receive(round + round_offset_[receiver], inbox);
  }

  // Decision transitions: always tracked (the checker's provenance needs
  // decide rounds) and additionally fed to the trace (the trace-event
  // exporter's decide slices) when a log is attached; byzantine behaviors
  // have no meaningful done() state.
  for (std::size_t i = 0; i < n; ++i) {
    if (byzantine_[i] || done_[i] || !behaviors_[i]->done()) continue;
    done_[i] = true;
    decided_round_[i] = round;
    if (event_log_ != nullptr) {
      const std::optional<Name> name = behaviors_[i]->decision();
      event_log_->record({round, trace::Event::Kind::kDecide, static_cast<ProcessIndex>(i),
                          std::nullopt, -1, false,
                          name.has_value() ? "name=" + std::to_string(*name) : "(no name)"});
    }
  }
}

void Network::fan_out(Round round, std::size_t sender, const Outbox::Entry& entry,
                      RoundMetrics& metrics) {
  if (event_log_ != nullptr) {
    event_log_->record({round, trace::Event::Kind::kSend,
                        static_cast<ProcessIndex>(sender), entry.dest, -1,
                        byzantine_[sender], describe(*entry.payload)});
  }
  // Charge the exact size the binary codec produces, so the paper's
  // bit-complexity bounds are checked against a real encoding.
  const std::size_t payload_bits = encoded_bits(*entry.payload);
  if (entry.dest.has_value() && byzantine_[sender]) metrics.equivocating_sends += 1;
  // A broadcast fans out to every receiver, a targeted send to one.
  std::size_t first = 0;
  std::size_t last = behaviors_.size();
  if (entry.dest.has_value()) {
    first = static_cast<std::size_t>(*entry.dest);
    if (first >= last) throw std::out_of_range("Network: send_to destination out of range");
    last = first + 1;
  }
  std::size_t delivered = 0;
  for (std::size_t receiver = first; receiver < last; ++receiver) {
    // The link's fate is all that separates a faulted run from the
    // paper's reliable model, where every link's fate is Fate{}. The
    // branch hints keep that model's path a tight loop.
    FaultInjector::Fate fate;
    if (fault_injector_ != nullptr) [[unlikely]] {
      std::optional<FaultInjector::Fate>& known = fate_row_[receiver];
      if (!known) {
        known = fault_injector_->fate(round, static_cast<ProcessIndex>(sender),
                                      static_cast<ProcessIndex>(receiver));
      }
      fate = *known;
    }
    const LinkIndex link = link_of_sender_[receiver][sender];
    // A drop dominates: a dropped link carries no duplicates either.
    if (fate.drop) [[unlikely]] {
      metrics.injected_drops += 1;
      if (event_log_ != nullptr) {
        event_log_->record({round, trace::Event::Kind::kFault,
                            static_cast<ProcessIndex>(receiver), std::nullopt, link,
                            byzantine_[receiver], "drop"});
      }
      continue;
    }
    delivered += 1;
    // Sharing, not copying: each delivery aliases the sender's single
    // payload object behind a refcount bump.
    if (fate.copies == 1 && fate.delay == 0) [[likely]] {  // the reliable model's fate
      inboxes_[receiver].push_back({link, entry.payload});
      continue;
    }
    if (event_log_ != nullptr) {
      std::string note;
      if (fate.copies > 1) note = "dup x" + std::to_string(fate.copies);
      if (fate.delay > 0) {
        if (!note.empty()) note += ", ";
        note += "delay +" + std::to_string(fate.delay);
      }
      event_log_->record({round, trace::Event::Kind::kFault,
                          static_cast<ProcessIndex>(receiver), std::nullopt, link,
                          byzantine_[receiver], std::move(note)});
    }
    metrics.injected_duplicates += static_cast<std::size_t>(fate.copies - 1);
    if (fate.delay == 0) {
      for (int copy = 0; copy < fate.copies; ++copy) {
        inboxes_[receiver].push_back({link, entry.payload});
      }
      continue;
    }
    // A delayed delivery keeps its extra copies: they travel with it.
    metrics.injected_delays += 1;
    const Round due = round + fate.delay;
    auto batch = std::find_if(delayed_.begin(), delayed_.end(),
                              [due](const DelayedBatch& b) { return b.due == due; });
    if (batch == delayed_.end()) batch = delayed_.insert(delayed_.end(), {due, {}});
    for (int copy = 0; copy < fate.copies; ++copy) {
      batch->entries.emplace_back(receiver, Delivery{link, entry.payload});
    }
  }
  // Dropped links cost nothing; delayed ones are charged now, in the
  // round they were sent.
  if (delivered == 0) return;
  metrics.messages += delivered;
  metrics.bits += delivered * payload_bits;
  metrics.max_message_bits = std::max(metrics.max_message_bits, payload_bits);
  if (!byzantine_[sender]) {
    metrics.correct_messages += delivered;
    metrics.correct_bits += delivered * payload_bits;
    metrics.max_correct_message_bits =
        std::max(metrics.max_correct_message_bits, payload_bits);
  }
}

bool Network::all_correct_done() const {
  for (std::size_t i = 0; i < behaviors_.size(); ++i) {
    if (!byzantine_[i] && !behaviors_[i]->done()) return false;
  }
  return true;
}

}  // namespace byzrename::sim
