#include "aa/byzantine_aa.h"

#include <algorithm>
#include <stdexcept>

namespace byzrename::aa {

using numeric::BigInt;
using numeric::FixedConvert;
using numeric::limb_t;
using numeric::Rational;

ByzantineAAProcess::ByzantineAAProcess(sim::SystemParams params, Rational initial, int rounds,
                                       std::size_t max_value_bits, core::RankKernel kernel)
    : params_(params),
      value_(std::move(initial)),
      rounds_left_(rounds),
      max_value_bits_(max_value_bits),
      kernel_(kernel),
      spec_(kernel == core::RankKernel::kExact
                ? numeric::FixedSpec{}
                : numeric::derive_fixed_spec(params.n, params.t, rounds)) {
  if (params.n <= 3 * params.t) {
    throw std::invalid_argument("ByzantineAAProcess: requires N > 3t");
  }
  if (rounds < 0) throw std::invalid_argument("ByzantineAAProcess: negative round count");
  if (!spec_.ok) kernel_ = core::RankKernel::kExact;
  link_stamp_.assign(static_cast<std::size_t>(params.n), 0);
}

void ByzantineAAProcess::on_send(sim::Round, sim::Outbox& out) {
  if (done()) return;
  out.broadcast(sim::AAValueMsg{value_});
}

void ByzantineAAProcess::on_receive(sim::Round, const sim::Inbox& inbox) {
  if (done()) return;
  const int n = params_.n;
  const int t = params_.t;

  // One value per link; spamming links are provably faulty and their
  // extra messages are discarded, as is any value whose encoding exceeds
  // the wire budget (Byzantine denominator inflation). First value per
  // link wins, exactly like the historical per-link map.
  ++round_serial_;
  admitted_.clear();
  for (const sim::Delivery& d : inbox) {
    const auto* msg = std::get_if<sim::AAValueMsg>(&*d.payload);
    if (msg == nullptr) continue;
    if (msg->value.encoded_bits() > max_value_bits_) continue;
    auto& stamp = link_stamp_[static_cast<std::size_t>(d.link)];
    if (stamp == round_serial_) continue;
    stamp = round_serial_;
    admitted_.push_back(&msg->value);
  }
  // More than N entries cannot happen: links are distinct and there are N.

  // select_t of the t/t-trimmed sorted ballot: global 0-based positions
  // t, 2t, ..., and for t == 0 the entire ballot.
  const std::int64_t picks = t > 0 ? (n - 2 * t - 1) / t + 1 : n;

  // Fixed lane: every admitted value (and the pad value) on the 1/S
  // grid within width — the steady state of integer-seeded AA.
  bool have_fixed = false;
  Rational fixed_value;
  if (kernel_ != core::RankKernel::kExact) {
    const int w = spec_.width;
    ballot_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(w));
    bool all_on_grid = true;
    int count = 0;
    for (const Rational* v : admitted_) {
      if (numeric::rational_to_fixed(*v, spec_,
                                     ballot_.data() + static_cast<std::size_t>(count) * w) !=
          FixedConvert::kOk) {
        all_on_grid = false;
        break;
      }
      ++count;
    }
    if (all_on_grid && count < n) {
      limb_t own[numeric::kFixedRankLimbs];
      if (numeric::rational_to_fixed(value_, spec_, own) == FixedConvert::kOk) {
        while (count < n) {
          for (int i = 0; i < w; ++i) ballot_[static_cast<std::size_t>(count) * w + i] = own[i];
          ++count;
        }
      } else {
        all_on_grid = false;
      }
    }
    if (all_on_grid) {
      limb_t result[numeric::kFixedRankLimbs];
      BigInt sum;
      if (ballot_kernel_.average(spec_, ballot_.data(), n, result, sum) ==
          core::FixedBallotKernel::Outcome::kOk) {
        fixed_value = numeric::fixed_to_rational(result, w, spec_.scale_big);
      } else {
        fixed_value = Rational(sum, BigInt(spec_.select_count) * spec_.scale_big);
      }
      have_fixed = true;
    }
  }

  if (have_fixed) {
    value_ = std::move(fixed_value);
  } else {
    exact_ballot_.clear();
    for (const Rational* v : admitted_) exact_ballot_.push_back(*v);
    while (static_cast<int>(exact_ballot_.size()) < n) exact_ballot_.push_back(value_);
    std::sort(exact_ballot_.begin(), exact_ballot_.end());
    Rational sum;
    for (std::int64_t j = 0; j < picks; ++j) {
      sum += exact_ballot_[t > 0 ? static_cast<std::size_t>(t) * static_cast<std::size_t>(1 + j)
                                 : static_cast<std::size_t>(j)];
    }
    value_ = sum / Rational(picks);
  }

  --rounds_left_;
}

}  // namespace byzrename::aa
