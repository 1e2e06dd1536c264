#include "sim/codec.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "numeric/bigint.h"
#include "numeric/fixed_rank.h"
#include "numeric/rational.h"

namespace byzrename::sim {

namespace {

using numeric::BigInt;
using numeric::kFixedRankLimbs;
using numeric::limb_t;
using numeric::Rational;

enum class Kind : std::uint8_t {
  kId = 1,
  kEcho = 2,
  kReady = 3,
  kRanks = 4,
  kMultiEcho = 5,
  kAAValue = 6,
  kWord = 7,
  kWrappedCast = 8,
  kWrappedEcho = 9,
};

// --- writing ---------------------------------------------------------------
// The wire layout is written once, by the put_* templates below, over a
// Sink: ByteSink appends the bytes (encode), ByteCounter only counts them
// (encoded_bits). A number's magnitude reports its byte length up front
// and yields its bytes only to a sink that stores them, so sizing a
// payload touches no heap and cannot drift from the bytes encode emits.

class ByteSink {
 public:
  explicit ByteSink(std::vector<std::uint8_t>& out) noexcept : out_(out) {}
  void put(std::uint8_t byte) { out_.push_back(byte); }
  void put(const std::vector<std::uint8_t>& bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  template <typename Magnitude>
  void put_magnitude(const Magnitude& magnitude) {
    put(magnitude.bytes());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class ByteCounter {
 public:
  void put(std::uint8_t /*byte*/) noexcept { ++size_; }
  void put(const std::vector<std::uint8_t>& bytes) noexcept { size_ += bytes.size(); }
  template <typename Magnitude>
  void put_magnitude(const Magnitude& magnitude) noexcept {
    size_ += magnitude.byte_length();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Magnitude of an exact BigInt (RanksMsg and AAValueMsg rationals).
struct BigMagnitude {
  const BigInt& value;
  [[nodiscard]] std::size_t byte_length() const noexcept { return (value.bit_length() + 7) / 8; }
  [[nodiscard]] std::vector<std::uint8_t> bytes() const { return value.magnitude_bytes(); }
};

/// Magnitude of the exact quotient value / divisor on fixed limbs: one
/// side of a grid rank in lowest terms. Its bit length is known without
/// dividing; only bytes() divides, and only a byte sink calls it.
struct GridQuotient {
  std::array<limb_t, kFixedRankLimbs> value{};
  const limb_t* divisor = nullptr;  ///< kFixedRankLimbs limbs, shared by both sides
  std::size_t bits = 0;

  [[nodiscard]] std::size_t byte_length() const noexcept { return (bits + 7) / 8; }
  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    return (BigInt::from_words64(value.data(), kFixedRankLimbs, false) /
            BigInt::from_words64(divisor, kFixedRankLimbs, false))
        .magnitude_bytes();
  }
};

/// Bit length of a / g for a divisor g of a (g >= 1): the quotient has
/// k or k + 1 bits, k = bits(a) - bits(g), and it is the latter exactly
/// when a >= g << k.
std::size_t quotient_bits(const limb_t* a, const limb_t* g, int w) noexcept {
  const std::size_t a_bits = numeric::limb_bit_length(a, w);
  if (a_bits == 0) return 0;
  const std::size_t k = a_bits - numeric::limb_bit_length(g, w);
  limb_t shifted[kFixedRankLimbs];
  numeric::limb_shl(shifted, g, w, static_cast<int>(k));
  return k + (numeric::limb_cmp(a, shifted, w) >= 0 ? 1 : 0);
}

template <typename Sink>
void put_varint(Sink& sink, std::uint64_t value) {
  while (value >= 0x80) {
    sink.put(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  sink.put(static_cast<std::uint8_t>(value));
}

template <typename Sink>
void put_svarint(Sink& sink, std::int64_t value) {
  // Zigzag: interleave signs so small magnitudes encode small.
  const auto raw = static_cast<std::uint64_t>(value);
  put_varint(sink, (raw << 1) ^ static_cast<std::uint64_t>(value >> 63));
}

template <typename Sink, typename Magnitude>
void put_rational(Sink& sink, bool negative, const Magnitude& numerator,
                  const Magnitude& denominator) {
  put_varint(sink, (static_cast<std::uint64_t>(numerator.byte_length()) << 1) |
                       (negative ? 1u : 0u));
  sink.put_magnitude(numerator);
  // Denominator is canonically positive; encode without sign bit.
  put_varint(sink, static_cast<std::uint64_t>(denominator.byte_length()));
  sink.put_magnitude(denominator);
}

template <typename Sink>
void put_rational(Sink& sink, const Rational& value) {
  put_rational(sink, value.is_negative(), BigMagnitude{value.numerator()},
               BigMagnitude{value.denominator()});
}

/// One FixedRanksMsg entry num/S, written as the canonical rational it
/// equals: g = gcd(|num|, S) on the limbs, then |num|/g over S/g, so zero
/// is 0/1 and carries no sign. @p w covers both |num| and S.
template <typename Sink>
void put_grid_rank(Sink& sink, const limb_t* num, int width, const limb_t* scale, int w) {
  GridQuotient numerator;
  GridQuotient denominator;
  const bool negative = numeric::limb_is_negative(num, width);
  if (negative) {
    numeric::limb_neg(numerator.value.data(), num, width);
  } else {
    std::copy(num, num + width, numerator.value.begin());
  }
  std::copy(scale, scale + kFixedRankLimbs, denominator.value.begin());
  limb_t g[kFixedRankLimbs] = {};
  std::array<limb_t, kFixedRankLimbs> a = numerator.value;
  std::array<limb_t, kFixedRankLimbs> b = denominator.value;
  numeric::limb_gcd(g, a.data(), b.data(), w);
  numerator.divisor = g;
  denominator.divisor = g;
  numerator.bits = quotient_bits(numerator.value.data(), g, w);
  denominator.bits = quotient_bits(denominator.value.data(), g, w);
  put_rational(sink, negative && numerator.bits != 0, numerator, denominator);
}

template <typename Sink>
void put_payload(Sink& sink, const Payload& payload) {
  std::visit(
      [&sink](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, IdMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kId));
          put_svarint(sink, msg.id);
        } else if constexpr (std::is_same_v<T, EchoMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kEcho));
          put_svarint(sink, msg.id);
        } else if constexpr (std::is_same_v<T, ReadyMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kReady));
          put_svarint(sink, msg.id);
        } else if constexpr (std::is_same_v<T, RanksMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kRanks));
          put_varint(sink, msg.entries.size());
          for (const RankEntry& entry : msg.entries) {
            put_svarint(sink, entry.id);
            put_rational(sink, entry.rank);
          }
        } else if constexpr (std::is_same_v<T, MultiEchoMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kMultiEcho));
          put_varint(sink, msg.ids.size());
          for (const Id id : msg.ids) put_svarint(sink, id);
        } else if constexpr (std::is_same_v<T, AAValueMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kAAValue));
          put_rational(sink, msg.value);
        } else if constexpr (std::is_same_v<T, WordMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kWord));
          put_svarint(sink, msg.tag);
          put_varint(sink, msg.words.size());
          for (const std::int64_t word : msg.words) put_svarint(sink, word);
        } else if constexpr (std::is_same_v<T, WrappedCastMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kWrappedCast));
          put_svarint(sink, msg.sim_round);
          put_varint(sink, msg.blob.size());
          sink.put(msg.blob);
        } else if constexpr (std::is_same_v<T, WrappedEchoMsg>) {
          sink.put(static_cast<std::uint8_t>(Kind::kWrappedEcho));
          put_svarint(sink, msg.sender);
          put_svarint(sink, msg.sim_round);
          put_varint(sink, msg.blob.size());
          sink.put(msg.blob);
        } else {
          static_assert(std::is_same_v<T, FixedRanksMsg>);
          // A fixed-point vote encodes as the byte-identical RanksMsg of
          // its reduced-rational equivalents: message complexity (and
          // the decoder) cannot distinguish the two representations.
          if (msg.width < 1 || msg.width > kFixedRankLimbs) {
            throw std::invalid_argument("FixedRanksMsg: width out of range");
          }
          const int scale_words = static_cast<int>(
              (numeric::limb_bit_length(msg.scale.data(), kFixedRankLimbs) + 63) / 64);
          if (scale_words == 0) throw std::domain_error("FixedRanksMsg: zero scale");
          const int w = std::max(msg.width, scale_words);
          sink.put(static_cast<std::uint8_t>(Kind::kRanks));
          put_varint(sink, msg.ids.size());
          for (std::size_t i = 0; i < msg.ids.size(); ++i) {
            put_svarint(sink, msg.ids[i]);
            put_grid_rank(sink, msg.nums.data() + i * static_cast<std::size_t>(msg.width),
                          msg.width, msg.scale.data(), w);
          }
        }
      },
      payload);
}

// --- reading ---------------------------------------------------------------

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }

  [[nodiscard]] std::optional<std::uint8_t> byte() {
    if (pos_ >= bytes_.size()) return std::nullopt;
    return bytes_[pos_++];
  }

  [[nodiscard]] std::optional<std::uint64_t> varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const auto next = byte();
      if (!next.has_value()) return std::nullopt;
      value |= static_cast<std::uint64_t>(*next & 0x7F) << shift;
      if ((*next & 0x80) == 0) {
        // Canonicality: no zero-padding groups (0x80 0x00 is not 0) and
        // no bits beyond 64 in the last possible group.
        if (shift > 0 && *next == 0) return std::nullopt;
        if (shift == 63 && (*next & 0x7E) != 0) return std::nullopt;
        return value;
      }
    }
    return std::nullopt;  // continuation bit never cleared
  }

  [[nodiscard]] std::optional<std::int64_t> svarint() {
    const auto raw = varint();
    if (!raw.has_value()) return std::nullopt;
    return static_cast<std::int64_t>((*raw >> 1) ^ (~(*raw & 1) + 1));
  }

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> blob(std::uint64_t length) {
    if (length > bytes_.size() - pos_) return std::nullopt;
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + length));
    pos_ += length;
    return out;
  }

  [[nodiscard]] std::optional<BigInt> bigint() {
    const auto header = varint();
    if (!header.has_value()) return std::nullopt;
    const bool negative = (*header & 1) != 0;
    const auto bytes = blob(*header >> 1);
    if (!bytes.has_value()) return std::nullopt;
    if (!bytes->empty() && bytes->back() == 0) return std::nullopt;  // non-canonical
    return BigInt::from_magnitude_bytes(*bytes, negative);
  }

  [[nodiscard]] std::optional<Rational> rational() {
    const auto numerator = bigint();
    if (!numerator.has_value()) return std::nullopt;
    const auto den_length = varint();
    if (!den_length.has_value()) return std::nullopt;
    const auto den_bytes = blob(*den_length);
    if (!den_bytes.has_value()) return std::nullopt;
    if (!den_bytes->empty() && den_bytes->back() == 0) return std::nullopt;
    const BigInt denominator = BigInt::from_magnitude_bytes(*den_bytes, false);
    if (denominator.is_zero()) return std::nullopt;
    return Rational(*numerator, denominator);
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

constexpr std::uint64_t kMaxVectorEntries = 1 << 20;  // sanity cap on Byzantine input

}  // namespace

std::vector<std::uint8_t> encode(const Payload& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(encoded_bits(payload) / 8);
  ByteSink sink(out);
  put_payload(sink, payload);
  return out;
}

std::optional<Payload> decode(const std::vector<std::uint8_t>& bytes) {
  Reader reader(bytes);
  const auto kind = reader.byte();
  if (!kind.has_value()) return std::nullopt;

  std::optional<Payload> result;
  switch (static_cast<Kind>(*kind)) {
    case Kind::kId:
    case Kind::kEcho:
    case Kind::kReady: {
      const auto id = reader.svarint();
      if (!id.has_value()) return std::nullopt;
      if (static_cast<Kind>(*kind) == Kind::kId) {
        result = IdMsg{*id};
      } else if (static_cast<Kind>(*kind) == Kind::kEcho) {
        result = EchoMsg{*id};
      } else {
        result = ReadyMsg{*id};
      }
      break;
    }
    case Kind::kRanks: {
      const auto count = reader.varint();
      if (!count.has_value() || *count > kMaxVectorEntries) return std::nullopt;
      RanksMsg msg;
      msg.entries.reserve(static_cast<std::size_t>(*count));
      for (std::uint64_t i = 0; i < *count; ++i) {
        const auto id = reader.svarint();
        if (!id.has_value()) return std::nullopt;
        auto rank = reader.rational();
        if (!rank.has_value()) return std::nullopt;
        msg.entries.push_back({*id, std::move(*rank)});
      }
      result = std::move(msg);
      break;
    }
    case Kind::kMultiEcho: {
      const auto count = reader.varint();
      if (!count.has_value() || *count > kMaxVectorEntries) return std::nullopt;
      MultiEchoMsg msg;
      msg.ids.reserve(static_cast<std::size_t>(*count));
      for (std::uint64_t i = 0; i < *count; ++i) {
        const auto id = reader.svarint();
        if (!id.has_value()) return std::nullopt;
        msg.ids.push_back(*id);
      }
      result = std::move(msg);
      break;
    }
    case Kind::kAAValue: {
      auto value = reader.rational();
      if (!value.has_value()) return std::nullopt;
      result = AAValueMsg{std::move(*value)};
      break;
    }
    case Kind::kWord: {
      const auto tag = reader.svarint();
      if (!tag.has_value()) return std::nullopt;
      const auto count = reader.varint();
      if (!count.has_value() || *count > kMaxVectorEntries) return std::nullopt;
      WordMsg msg{*tag, {}};
      msg.words.reserve(static_cast<std::size_t>(*count));
      for (std::uint64_t i = 0; i < *count; ++i) {
        const auto word = reader.svarint();
        if (!word.has_value()) return std::nullopt;
        msg.words.push_back(*word);
      }
      result = std::move(msg);
      break;
    }
    case Kind::kWrappedCast: {
      const auto sim_round = reader.svarint();
      if (!sim_round.has_value()) return std::nullopt;
      const auto length = reader.varint();
      if (!length.has_value() || *length > kMaxVectorEntries) return std::nullopt;
      auto blob = reader.blob(*length);
      if (!blob.has_value()) return std::nullopt;
      result = WrappedCastMsg{*sim_round, std::move(*blob)};
      break;
    }
    case Kind::kWrappedEcho: {
      const auto sender = reader.svarint();
      if (!sender.has_value()) return std::nullopt;
      const auto sim_round = reader.svarint();
      if (!sim_round.has_value()) return std::nullopt;
      const auto length = reader.varint();
      if (!length.has_value() || *length > kMaxVectorEntries) return std::nullopt;
      auto blob = reader.blob(*length);
      if (!blob.has_value()) return std::nullopt;
      result = WrappedEchoMsg{*sender, *sim_round, std::move(*blob)};
      break;
    }
    default:
      return std::nullopt;
  }
  if (!reader.at_end()) return std::nullopt;  // trailing garbage
  return result;
}

std::size_t encoded_bits(const Payload& payload) {
  ByteCounter counter;
  put_payload(counter, payload);
  return counter.size() * 8;
}

}  // namespace byzrename::sim
