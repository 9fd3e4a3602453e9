// G2: the order-r subgroup of the sextic twist E'(Fp2) : y^2 = x^3 + 3/xi,
// xi = 9 + u, with the standard EIP-197 generator. Unlike G1, the twist has a
// large cofactor, so membership requires an explicit subgroup check.
#pragma once

#include <cstdint>
#include <optional>

#include "curve/fixed_base.hpp"
#include "curve/point.hpp"
#include "field/fp2.hpp"

namespace dsaudit::curve {

using ff::Fp2;

struct G2Tag {
  static const Fp2& curve_b();
  static const Point<Fp2, G2Tag>& generator();
};

using G2 = Point<Fp2, G2Tag>;

/// Process-wide fixed-base window table for the G2 generator (built lazily,
/// thread-safe). Use g2_mul_generator for k * g2 on any hot path.
const FixedBaseTable<G2>& g2_generator_table();
G2 g2_mul_generator(const ff::Fr& k);

G2 g2_random(primitives::SecureRng& rng);

/// True iff the point is on the twist AND in the order-r subgroup, by the
/// twist-endomorphism criterion psi(Q) == [6t^2] Q (one psi plus a 127-bit
/// ladder instead of the full 254-bit order-r ladder, test_curve's oracle)
/// — see g2.cpp for the soundness argument. Contract deserialization pays
/// this on every public key.
bool g2_in_subgroup(const G2& p);

/// The untwist-Frobenius-twist endomorphism psi(x, y) = (gamma[2] * conj(x),
/// gamma[3] * conj(y)), needed for the optimal-ate final line additions.
G2 g2_frobenius(const G2& p);
/// psi^2 — multiplication of coordinates by the Fp-valued constants.
G2 g2_frobenius2(const G2& p);

/// 64-byte compressed encoding: x.c1 || x.c0 big-endian, flags in the top
/// bits of the first byte (bit7 infinity, bit6 y-parity of c0 — with c1's
/// parity breaking ties when y.c0 is zero is unnecessary: we define the sign
/// by lexicographic order of the full serialized y).
std::array<std::uint8_t, 64> g2_compress(const G2& p);
std::optional<G2> g2_decompress(std::span<const std::uint8_t, 64> bytes);

}  // namespace dsaudit::curve
