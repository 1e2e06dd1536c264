#ifndef BYZRENAME_SIM_METRICS_H
#define BYZRENAME_SIM_METRICS_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace byzrename::sim {

/// Message/bit counters for one synchronous round. A broadcast counts as
/// N point-to-point messages, matching the paper's "all-to-all
/// communication" accounting in Sections IV-D and VI-B.
struct RoundMetrics {
  std::size_t messages = 0;
  std::size_t bits = 0;
  std::size_t correct_messages = 0;
  std::size_t correct_bits = 0;
  /// Targeted sends by Byzantine processes — the capability equivocation
  /// requires (correct processes may only broadcast).
  std::size_t equivocating_sends = 0;
  /// Model-violation counters (sim/fault.h): deliveries the injector
  /// dropped (link rule, partition cut, or crashed endpoint), extra
  /// copies it delivered, and deliveries it postponed to a later round.
  std::size_t injected_drops = 0;
  std::size_t injected_duplicates = 0;
  std::size_t injected_delays = 0;
  /// Forged-sender messages the impersonation adversary inserted and
  /// correct-process restarts triggered this round. Forgeries are NOT
  /// folded into messages/bits: those count what processes actually
  /// transmit, which the complexity auditor checks against the paper's
  /// budgets, and the impersonator is external to the system.
  std::size_t injected_forgeries = 0;
  std::size_t injected_restarts = 0;
  /// Largest single message charged in this round (any sender / correct
  /// senders only). Per-round so the bit-size trajectory of the voting
  /// phase is observable, not just the whole-run maximum.
  std::size_t max_message_bits = 0;
  std::size_t max_correct_message_bits = 0;

  friend bool operator==(const RoundMetrics&, const RoundMetrics&) = default;
};

/// Aggregated communication metrics for a whole run. Totals are
/// maintained incrementally as rounds are recorded, so the total_*()
/// accessors are O(1) — benches call them inside sweep loops.
class Metrics {
 public:
  /// Records one finished round and folds it into the running totals.
  /// The only mutation path, so totals can never drift from per_round().
  void add_round(const RoundMetrics& round) {
    per_round_.push_back(round);
    totals_.messages += round.messages;
    totals_.bits += round.bits;
    totals_.correct_messages += round.correct_messages;
    totals_.correct_bits += round.correct_bits;
    totals_.equivocating_sends += round.equivocating_sends;
    totals_.injected_drops += round.injected_drops;
    totals_.injected_duplicates += round.injected_duplicates;
    totals_.injected_delays += round.injected_delays;
    totals_.injected_forgeries += round.injected_forgeries;
    totals_.injected_restarts += round.injected_restarts;
    // Max folds are idempotent with note_message_bits, so rounds built
    // either way (per-message notes or per-round maxima) agree.
    max_message_bits_ = std::max(max_message_bits_, round.max_message_bits);
    max_correct_message_bits_ =
        std::max(max_correct_message_bits_, round.max_correct_message_bits);
  }

  /// Tracks the largest single message seen on the wire.
  void note_message_bits(std::size_t bits, bool correct_sender) {
    max_message_bits_ = std::max(max_message_bits_, bits);
    if (correct_sender) {
      max_correct_message_bits_ = std::max(max_correct_message_bits_, bits);
    }
  }

  [[nodiscard]] const std::vector<RoundMetrics>& per_round() const noexcept { return per_round_; }
  [[nodiscard]] std::size_t rounds() const noexcept { return per_round_.size(); }

  [[nodiscard]] std::size_t total_messages() const noexcept { return totals_.messages; }
  [[nodiscard]] std::size_t total_bits() const noexcept { return totals_.bits; }
  [[nodiscard]] std::size_t total_correct_messages() const noexcept {
    return totals_.correct_messages;
  }
  [[nodiscard]] std::size_t total_correct_bits() const noexcept { return totals_.correct_bits; }
  [[nodiscard]] std::size_t total_equivocating_sends() const noexcept {
    return totals_.equivocating_sends;
  }
  [[nodiscard]] std::size_t total_injected_drops() const noexcept {
    return totals_.injected_drops;
  }
  [[nodiscard]] std::size_t total_injected_duplicates() const noexcept {
    return totals_.injected_duplicates;
  }
  [[nodiscard]] std::size_t total_injected_delays() const noexcept {
    return totals_.injected_delays;
  }
  [[nodiscard]] std::size_t total_injected_forgeries() const noexcept {
    return totals_.injected_forgeries;
  }
  [[nodiscard]] std::size_t total_injected_restarts() const noexcept {
    return totals_.injected_restarts;
  }

  /// Largest single message (any sender).
  [[nodiscard]] std::size_t max_message_bits() const noexcept { return max_message_bits_; }
  /// Largest single message from a correct sender.
  [[nodiscard]] std::size_t max_correct_message_bits() const noexcept {
    return max_correct_message_bits_;
  }

 private:
  std::vector<RoundMetrics> per_round_;
  RoundMetrics totals_;
  std::size_t max_message_bits_ = 0;
  std::size_t max_correct_message_bits_ = 0;
};

}  // namespace byzrename::sim

#endif  // BYZRENAME_SIM_METRICS_H
