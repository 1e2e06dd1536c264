#ifndef BYZRENAME_SIM_CODEC_H
#define BYZRENAME_SIM_CODEC_H

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/payload.h"

namespace byzrename::sim {

/// Binary wire codec for payloads.
///
/// The paper's complexity sections (IV-D, VI-B) bound the *bits* each
/// message costs; the simulator charges every delivery the size this
/// codec actually produces, so those bounds are checked against a real
/// encoding rather than an estimate. Format (little-endian throughout):
///
///   payload   := kind:u8 body
///   varint    := LEB128 (7 bits per byte, high bit = continuation)
///   svarint   := zigzag-mapped varint
///   id        := svarint
///   rational  := sign+length header (varint: len<<1 | negative),
///                numerator magnitude bytes, then denominator varint
///                length + magnitude bytes (denominator always positive)
///   vectors   := varint count, then elements
///
/// decode() is total: any malformed, truncated, or trailing-garbage
/// input yields nullopt — Byzantine senders control these bytes.
[[nodiscard]] std::vector<std::uint8_t> encode(const Payload& payload);

[[nodiscard]] std::optional<Payload> decode(const std::vector<std::uint8_t>& bytes);

/// Exact size of the encoded payload in bits (8 * encode().size()),
/// computed without encoding and without touching the heap: the same
/// writer that produces encode()'s bytes runs over a byte counter, and
/// numbers contribute their byte lengths only. A FixedRanksMsg entry is
/// reduced on its limbs (a binary gcd with S), never through a Rational.
/// The network charges this once per outbox entry.
[[nodiscard]] std::size_t encoded_bits(const Payload& payload);

}  // namespace byzrename::sim

#endif  // BYZRENAME_SIM_CODEC_H
