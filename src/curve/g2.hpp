// G2: the order-r subgroup of the sextic twist E'(Fp2) : y^2 = x^3 + 3/xi,
// xi = 9 + u, with the standard EIP-197 generator. Unlike G1, the twist has a
// large cofactor, so membership requires an explicit subgroup check.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "curve/point.hpp"
#include "field/fp2.hpp"

namespace dsaudit::curve {

using ff::Fp2;

namespace detail {
constexpr Fp2 fp2_from_hex(std::string_view c0, std::string_view c1) {
  return {ff::Fp::from_u256(ff::U256::from_hex(c0)),
          ff::Fp::from_u256(ff::U256::from_hex(c1))};
}
}  // namespace detail

struct G2Tag {
  /// b' = 3/xi (D-type twist).
  static constexpr Fp2 kCurveB = detail::fp2_from_hex(
      "0x2b149d40ceb8aaae81be18991be06ac3b5b4c5e559dbefa33267e6dc24a138e5",
      "0x009713b03af0fed4cd2cafadeed8fdf4a74fa084e52d1852e4a2bd0685c315d2");
  static const Point<Fp2, G2Tag>& generator();
};
static_assert((G2Tag::kCurveB * ff::xi() - Fp2::from_u64(3, 0)).is_zero(),
              "b' * xi != 3");

using G2 = Point<Fp2, G2Tag>;

/// The EIP-197 generator of the order-r subgroup of the twist.
inline constexpr G2 kG2Generator{
    detail::fp2_from_hex(
        "0x1800deef121f1e76426a00665e5c4479674322d4f75edadd46debd5cd992f6ed",
        "0x198e9393920d483a7260bfb731fb5d25f1aa493335a9e71297e485b7aef312c2"),
    detail::fp2_from_hex(
        "0x12c85ea5db8c6deb4aab71808dcb408fe3d1e7690c43d37b4ce6cc0166fa7daa",
        "0x090689d0585ff075ec9e99ad690c3395bc4b313370b38ef355acdadcd122975b")};
inline const G2& G2Tag::generator() { return kG2Generator; }

/// A random scalar times the generator, by Point::mul: G2 keeps no
/// fixed-base table.
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
