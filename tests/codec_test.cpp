#include "sim/codec.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <random>

#include "numeric/bigint.h"
#include "numeric/fixed_rank.h"
#include "numeric/rational.h"

namespace byzrename::sim {
namespace {

using numeric::BigInt;
using numeric::limb_t;
using numeric::Rational;

void expect_round_trip(const Payload& payload) {
  const std::vector<std::uint8_t> bytes = encode(payload);
  const std::optional<Payload> decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value()) << describe(payload);
  EXPECT_EQ(*decoded, payload) << describe(payload);
}

TEST(Codec, RoundTripsSimpleMessages) {
  expect_round_trip(IdMsg{0});
  expect_round_trip(IdMsg{1});
  expect_round_trip(IdMsg{-1});
  expect_round_trip(IdMsg{std::numeric_limits<std::int64_t>::max()});
  expect_round_trip(IdMsg{std::numeric_limits<std::int64_t>::min()});
  expect_round_trip(EchoMsg{123456789});
  expect_round_trip(ReadyMsg{987654321});
}

TEST(Codec, RoundTripsRanks) {
  expect_round_trip(RanksMsg{});
  expect_round_trip(RanksMsg{{{5, Rational::of(41, 40)}}});
  RanksMsg big;
  for (int i = 0; i < 100; ++i) {
    big.entries.push_back({1000 + i, Rational::of(i * 41 + 1, 40)});
  }
  expect_round_trip(big);
}

TEST(Codec, RoundTripsNegativeAndHugeRationals) {
  expect_round_trip(AAValueMsg{Rational(0)});
  expect_round_trip(AAValueMsg{Rational(-7)});
  expect_round_trip(AAValueMsg{Rational::of(-22, 7)});
  const BigInt huge = (BigInt(1) << 300) + BigInt(12345);
  expect_round_trip(AAValueMsg{Rational(huge, (BigInt(1) << 128) + BigInt(1))});
  expect_round_trip(AAValueMsg{Rational(-huge, BigInt(3))});
}

TEST(Codec, RoundTripsMultiEchoAndWords) {
  expect_round_trip(MultiEchoMsg{});
  expect_round_trip(MultiEchoMsg{{1, 2, 3, -5, 1'000'000'000'000}});
  expect_round_trip(WordMsg{0, {}});
  expect_round_trip(WordMsg{-42, {1, -2, 3, std::numeric_limits<std::int64_t>::min()}});
}

TEST(Codec, SmallMessagesEncodeSmall) {
  // Varint efficiency: a 1-digit id costs 2 bytes total, not 9.
  EXPECT_EQ(encode(IdMsg{5}).size(), 2u);
  EXPECT_LE(encode(RanksMsg{{{3, Rational::of(41, 40)}}}).size(), 8u);
}

TEST(Codec, RejectsEmptyAndUnknownKind) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode({0x00}).has_value());
  EXPECT_FALSE(decode({0xFF, 0x01}).has_value());
}

TEST(Codec, RejectsTruncation) {
  const std::vector<std::uint8_t> good = encode(RanksMsg{{{5, Rational::of(41, 40)}}});
  for (std::size_t cut = 1; cut < good.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(good.begin(),
                                              good.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode(truncated).has_value()) << "cut at " << cut;
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = encode(IdMsg{7});
  bytes.push_back(0x00);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsZeroDenominator) {
  // AAValue with numerator 1 and denominator of zero length.
  std::vector<std::uint8_t> bytes;
  bytes.push_back(6);     // kAAValue
  bytes.push_back(0x02);  // numerator header: 1 byte, positive
  bytes.push_back(0x01);  // numerator magnitude = 1
  bytes.push_back(0x00);  // denominator length 0 => zero
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsNonCanonicalBigintPadding) {
  // A magnitude with a trailing zero byte must be rejected so equal
  // values have exactly one encoding (no malleability).
  std::vector<std::uint8_t> bytes;
  bytes.push_back(6);     // kAAValue
  bytes.push_back(0x04);  // numerator header: 2 bytes, positive
  bytes.push_back(0x01);  // 1
  bytes.push_back(0x00);  // padded high byte
  bytes.push_back(0x01);  // denominator length 1
  bytes.push_back(0x01);  // denominator 1
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsNonMinimalVarints) {
  // 0x80 0x00 is a padded encoding of 0; only 0x00 is canonical.
  EXPECT_FALSE(decode({1 /*kId*/, 0x80, 0x00}).has_value());
  EXPECT_TRUE(decode({1 /*kId*/, 0x00}).has_value());
}

TEST(Codec, RejectsAbsurdVectorCounts) {
  std::vector<std::uint8_t> bytes;
  bytes.push_back(5);  // kMultiEcho
  // count = 2^40 as varint
  for (int i = 0; i < 5; ++i) bytes.push_back(0x80);
  bytes.push_back(0x10);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, FuzzDecodeNeverCrashes) {
  // Byzantine processes control every byte: decode must be total.
  std::mt19937_64 rng(20130707);
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> bytes(rng() % 64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    const auto decoded = decode(bytes);  // must not crash or throw
    if (decoded.has_value()) {
      // Whatever decodes must re-encode to the same bytes (canonicality).
      EXPECT_EQ(encode(*decoded), bytes);
    }
  }
}

TEST(Codec, FuzzRoundTripRandomPayloads) {
  std::mt19937_64 rng(424242);
  for (int i = 0; i < 2000; ++i) {
    Payload payload;
    switch (rng() % 5) {
      case 0:
        payload = IdMsg{static_cast<std::int64_t>(rng())};
        break;
      case 1: {
        MultiEchoMsg msg;
        for (std::uint64_t k = rng() % 10; k > 0; --k) {
          msg.ids.push_back(static_cast<std::int64_t>(rng()));
        }
        payload = std::move(msg);
        break;
      }
      case 2: {
        RanksMsg msg;
        for (std::uint64_t k = rng() % 6; k > 0; --k) {
          msg.entries.push_back(
              {static_cast<std::int64_t>(rng() % 100000),
               Rational::of(static_cast<std::int64_t>(rng() % 2001) - 1000,
                            static_cast<std::int64_t>(rng() % 999) + 1)});
        }
        payload = std::move(msg);
        break;
      }
      case 3: {
        WordMsg msg{static_cast<std::int64_t>(rng() % 1000), {}};
        for (std::uint64_t k = rng() % 8; k > 0; --k) {
          msg.words.push_back(static_cast<std::int64_t>(rng()));
        }
        payload = std::move(msg);
        break;
      }
      default:
        payload = AAValueMsg{Rational::of(static_cast<std::int64_t>(rng()) / 1024,
                                          static_cast<std::int64_t>(rng() % 4095) + 1)};
        break;
    }
    const auto decoded = decode(encode(payload));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, payload);
  }
}

// ---------------------------------------------------------------------------
// encoded_bits sizes every payload without encoding it; these pin it to
// 8 * encode().size() for every alternative, and a FixedRanksMsg's bytes
// to those of the exact RanksMsg it equals.

void expect_sized_exactly(const Payload& payload) {
  EXPECT_EQ(encoded_bits(payload), 8 * encode(payload).size()) << describe(payload);
}

/// A `width`-limb two's-complement numerator of magnitude @p magnitude.
std::vector<limb_t> signed_limbs(int width, const std::array<limb_t, 4>& magnitude,
                                 bool negative) {
  std::vector<limb_t> out(magnitude.begin(), magnitude.begin() + width);
  if (negative) numeric::limb_neg(out.data(), out.data(), width);
  return out;
}

FixedRanksMsg fixed_msg(int width, const std::array<limb_t, 4>& scale,
                        const std::vector<std::vector<limb_t>>& nums) {
  FixedRanksMsg msg;
  msg.width = width;
  msg.scale = scale;
  for (std::size_t i = 0; i < nums.size(); ++i) {
    msg.ids.push_back(static_cast<Id>(10 * i) - 3);
    msg.nums.insert(msg.nums.end(), nums[i].begin(), nums[i].end());
  }
  return msg;
}

/// Encodes as its exact twin byte for byte, and sizes exactly.
void expect_fixed_matches_exact(const FixedRanksMsg& msg) {
  const Payload fixed = msg;
  const Payload exact = to_ranks_msg(msg);
  EXPECT_EQ(encode(fixed), encode(exact)) << describe(exact);
  expect_sized_exactly(fixed);
  EXPECT_EQ(encoded_bits(fixed), encoded_bits(exact));
}

TEST(Codec, EncodedBitsMatchesEncodeSize) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t id : {kMin, kMin + 1, std::int64_t{-64}, std::int64_t{-1},
                                std::int64_t{0}, std::int64_t{63}, std::int64_t{64}, kMax}) {
    expect_sized_exactly(IdMsg{id});
    expect_sized_exactly(EchoMsg{id});
    expect_sized_exactly(ReadyMsg{id});
    expect_sized_exactly(WordMsg{id, {id, id / 2}});
    expect_sized_exactly(WrappedEchoMsg{id, id / 3, {}});
  }
  expect_sized_exactly(RanksMsg{});
  expect_sized_exactly(MultiEchoMsg{});
  expect_sized_exactly(WordMsg{0, {}});
  expect_sized_exactly(WrappedCastMsg{0, {}});
  expect_sized_exactly(AAValueMsg{Rational(0)});
  expect_sized_exactly(AAValueMsg{Rational::of(-22, 7)});
  const BigInt huge = (BigInt(1) << 300) + BigInt(12345);
  expect_sized_exactly(AAValueMsg{Rational(-huge, (BigInt(1) << 128) + BigInt(1))});
  expect_sized_exactly(RanksMsg{{{5, Rational::of(41, 40)}, {9, Rational::of(82, 40)},
                                 {kMin, Rational(huge, BigInt(3))}, {kMax, Rational(0)}}});
  // Vector and blob lengths on both sides of the one- and two-byte
  // varint boundaries.
  for (const std::size_t length : {127u, 128u, 16383u, 16384u}) {
    expect_sized_exactly(MultiEchoMsg{std::vector<Id>(length, 1)});
    expect_sized_exactly(WordMsg{-1, std::vector<std::int64_t>(length, kMin)});
    expect_sized_exactly(WrappedCastMsg{7, std::vector<std::uint8_t>(length, 0xAB)});
    expect_sized_exactly(WrappedEchoMsg{3, 7, std::vector<std::uint8_t>(length, 0x00)});
    RanksMsg ranks;
    for (std::size_t i = 0; i < length; ++i) {
      ranks.entries.push_back({static_cast<Id>(i), Rational::of(static_cast<std::int64_t>(i), 7)});
    }
    expect_sized_exactly(ranks);
  }
}

TEST(Codec, FixedRanksSizeAndEncodeAsTheirReducedRationals) {
  // Scales of real instances at each width: S = 3(N+t) * c^I.
  for (const int iterations : {20, 80, 150}) {
    const numeric::FixedSpec spec = numeric::derive_fixed_spec(13, 4, iterations);
    ASSERT_TRUE(spec.ok);
    const int w = spec.width;
    std::array<limb_t, 4> s = spec.scale;
    std::array<limb_t, 4> twice{};
    numeric::limb_add_n(twice.data(), s.data(), s.data(), 4);
    std::array<limb_t, 4> s_minus_one = s;
    s_minus_one[0] -= 1;  // S is even: no borrow
    std::vector<std::vector<limb_t>> nums;
    for (const bool negative : {false, true}) {
      nums.push_back(signed_limbs(w, {0, 0, 0, 0}, negative));       // zero: 0/1, no sign
      nums.push_back(signed_limbs(w, s, negative));                  // fully reducible: +-1/1
      nums.push_back(signed_limbs(w, twice, negative));              // +-2/1
      nums.push_back(signed_limbs(w, {51, 0, 0, 0}, negative));      // shares 3 * 17 with S
      nums.push_back(signed_limbs(w, {1, 0, 0, 0}, negative));       // 1/S: non-reducible
      nums.push_back(signed_limbs(w, s_minus_one, negative));        // odd, coprime to 2
      nums.push_back(signed_limbs(w, {~limb_t{0}, ~limb_t{0} >> 1, 0, 0}, negative));
    }
    nums.push_back(std::vector<limb_t>(static_cast<std::size_t>(w), ~limb_t{0}));  // -1
    std::vector<limb_t> most_negative(static_cast<std::size_t>(w), 0);
    most_negative.back() = limb_t{1} << 63;  // -2^(64w-1): magnitude uses the top bit
    nums.push_back(most_negative);
    expect_fixed_matches_exact(fixed_msg(w, s, nums));
  }
  // A scale that uses every limb, under each width.
  const std::array<limb_t, 4> full = {0x9E3779B97F4A7C15ull * 12, 0x0123456789ABCDEFull,
                                      0xFEDCBA9876543210ull, 0x8000000000000001ull};
  for (const int width : {2, 3, 4}) {
    expect_fixed_matches_exact(fixed_msg(
        width, full,
        {signed_limbs(width, {12, 0, 0, 0}, false), signed_limbs(width, {96, 0, 0, 0}, true),
         signed_limbs(width, {0, 0, 0, 0}, false), signed_limbs(width, {7, 1, 1, 0}, true)}));
  }
  expect_fixed_matches_exact(fixed_msg(2, {36, 0, 0, 0}, {}));  // no entries
}

TEST(Codec, EncodedBitsMatchesEncodeSizeRandomSweep) {
  std::mt19937_64 rng(20131015);
  const auto random_id = [&rng]() -> Id {
    switch (rng() % 3) {
      case 0:
        return static_cast<Id>(rng());
      case 1:
        return static_cast<Id>(rng() % 4096) - 2048;
      default:
        return static_cast<Id>(rng() >> (rng() % 64));
    }
  };
  const auto random_rational = [&rng]() {
    BigInt num(static_cast<std::int64_t>(rng() >> (rng() % 64)));
    if (rng() % 4 == 0) num = (num << static_cast<unsigned>(rng() % 300)) + BigInt(1);
    if (rng() % 2 == 0) num = -num;
    BigInt den(static_cast<std::int64_t>((rng() >> (1 + rng() % 63)) | 1));
    if (rng() % 4 == 0) den <<= static_cast<unsigned>(rng() % 200);
    return Rational(num, den);
  };
  const auto random_blob = [&rng]() {
    std::vector<std::uint8_t> blob(rng() % 300);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
    return blob;
  };
  for (int i = 0; i < 3000; ++i) {
    Payload payload;
    const std::size_t count = rng() % 12;
    switch (rng() % 10) {
      case 0:
        payload = IdMsg{random_id()};
        break;
      case 1:
        payload = EchoMsg{random_id()};
        break;
      case 2:
        payload = ReadyMsg{random_id()};
        break;
      case 3: {
        RanksMsg msg;
        for (std::size_t k = 0; k < count; ++k) msg.entries.push_back({random_id(), random_rational()});
        payload = std::move(msg);
        break;
      }
      case 4: {
        MultiEchoMsg msg;
        for (std::size_t k = 0; k < count; ++k) msg.ids.push_back(random_id());
        payload = std::move(msg);
        break;
      }
      case 5:
        payload = AAValueMsg{random_rational()};
        break;
      case 6: {
        WordMsg msg{random_id(), {}};
        for (std::size_t k = 0; k < count; ++k) msg.words.push_back(random_id());
        payload = std::move(msg);
        break;
      }
      case 7:
        payload = WrappedCastMsg{random_id(), random_blob()};
        break;
      case 8:
        payload = WrappedEchoMsg{random_id(), random_id(), random_blob()};
        break;
      default: {
        FixedRanksMsg msg;
        msg.width = 2 + static_cast<int>(rng() % 3);
        const int scale_limbs = 1 + static_cast<int>(rng() % 4);
        for (int l = 0; l < scale_limbs; ++l) msg.scale[static_cast<std::size_t>(l)] = rng();
        // Smooth scales (many small factors) make reductions common.
        if (rng() % 2 == 0) msg.scale = {3 * 17 * (std::uint64_t{1} << (rng() % 50)), 0, 0, 0};
        if (numeric::limb_is_zero(msg.scale.data(), 4)) msg.scale[0] = 1;
        for (std::size_t k = 0; k < count; ++k) {
          msg.ids.push_back(random_id());
          for (int l = 0; l < msg.width; ++l) {
            // Sparse limbs and small multiples of small factors both occur.
            const std::uint64_t limb = rng() % 3 == 0 ? 0 : rng() >> (rng() % 64);
            msg.nums.push_back(l == 0 && rng() % 2 == 0 ? (limb % 1000) * 51 : limb);
          }
        }
        expect_fixed_matches_exact(msg);
        payload = std::move(msg);
        break;
      }
    }
    expect_sized_exactly(payload);
    const auto decoded = decode(encode(payload));
    ASSERT_TRUE(decoded.has_value()) << describe(payload);
  }
}

TEST(BigIntBytes, MagnitudeRoundTrip) {
  for (const char* text : {"0", "1", "255", "256", "4294967295", "4294967296",
                           "340282366920938463463374607431768211457"}) {
    const BigInt value = BigInt::from_string(text);
    EXPECT_EQ(BigInt::from_magnitude_bytes(value.magnitude_bytes(), false), value) << text;
    EXPECT_EQ(BigInt::from_magnitude_bytes(value.magnitude_bytes(), true),
              value.is_zero() ? value : -value)
        << text;
  }
}

TEST(BigIntBytes, ToleratesTrailingZeroBytes) {
  EXPECT_EQ(BigInt::from_magnitude_bytes({0x05, 0x00, 0x00}, false), BigInt(5));
  EXPECT_EQ(BigInt::from_magnitude_bytes({}, true), BigInt(0));
}

}  // namespace
}  // namespace byzrename::sim
