#include "curve/g2.hpp"

#include <algorithm>

#include "field/fp12.hpp"

namespace dsaudit::curve {

namespace {

/// Lexicographic comparison of the canonical byte encoding, used to pin down
/// which of the two square roots a compressed point refers to.
bool lex_greater(const Fp2& a, const Fp2& b) {
  auto ab = a.to_bytes();
  auto bb = b.to_bytes();
  return std::lexicographical_compare(bb.begin(), bb.end(), ab.begin(), ab.end());
}

}  // namespace

G2 g2_random(primitives::SecureRng& rng) {
  return G2::generator().mul(Fr::random(rng));
}

bool g2_in_subgroup(const G2& p) {
  if (!p.is_on_curve()) return false;
  if (p.is_infinity()) return true;
  // psi(Q) == [6t^2] Q characterizes the order-r subgroup of the twist:
  //  - completeness: on the r-subgroup psi acts as [p], and p = r + 6t^2,
  //    so psi(Q) = [p mod r] Q = [6t^2] Q;
  //  - soundness: the twist's cofactor h2 = 2p - r is coprime to r
  //    (h2 = 12t^2 mod r != 0), so any Q splits as Q_r + Q_c. psi satisfies
  //    its characteristic polynomial psi^2 - tr*psi + p = 0 (tr = 6t^2 + 1);
  //    if psi(Q_c) = [6t^2] Q_c then [36t^4 - tr*6t^2 + p] Q_c =
  //    [p - 6t^2] Q_c = [r] Q_c = 0, and r coprime to the cofactor forces
  //    Q_c = 0.
  // 6t^2 is 127 bits, so the ladder runs half the order-r oracle's length.
  return g2_frobenius(p) == p.mul(ff::kSixTSquared);
}

G2 g2_frobenius(const G2& p) {
  if (p.is_infinity()) return p;
  const auto& tc = ff::kTowerConsts;
  auto [x, y] = p.to_affine();
  return G2{x.conjugate() * tc.gamma[2], y.conjugate() * tc.gamma[3]};
}

G2 g2_frobenius2(const G2& p) {
  if (p.is_infinity()) return p;
  const auto& tc = ff::kTowerConsts;
  auto [x, y] = p.to_affine();
  return G2{x * tc.gamma_p2[2], y * tc.gamma_p2[3]};
}

std::array<std::uint8_t, 64> g2_compress(const G2& p) {
  std::array<std::uint8_t, 64> out{};
  if (p.is_infinity()) {
    out[0] = 0x80;
    return out;
  }
  auto [x, y] = p.to_affine();
  // x.c1 first so the flag bits land in the top bits of a 254-bit value.
  x.c1.to_be_bytes(std::span<std::uint8_t, 32>(out.data(), 32));
  x.c0.to_be_bytes(std::span<std::uint8_t, 32>(out.data() + 32, 32));
  if (lex_greater(y, -y)) out[0] |= 0x40;
  return out;
}

std::optional<G2> g2_decompress(std::span<const std::uint8_t, 64> bytes) {
  std::array<std::uint8_t, 64> buf;
  std::copy(bytes.begin(), bytes.end(), buf.begin());
  bool inf = (buf[0] & 0x80) != 0;
  bool greater = (buf[0] & 0x40) != 0;
  buf[0] &= 0x3f;
  if (inf) {
    for (auto b : buf) {
      if (b != 0) return std::nullopt;
    }
    if (greater) return std::nullopt;
    return G2::infinity();
  }
  ff::U256 x1 = ff::U256::from_be_bytes(std::span<const std::uint8_t, 32>(buf.data(), 32));
  ff::U256 x0 =
      ff::U256::from_be_bytes(std::span<const std::uint8_t, 32>(buf.data() + 32, 32));
  if (!bigint::lt(x1, ff::Fp::modulus()) || !bigint::lt(x0, ff::Fp::modulus())) {
    return std::nullopt;
  }
  Fp2 x{ff::Fp::from_u256(x0), ff::Fp::from_u256(x1)};
  Fp2 rhs = x.square() * x + G2::curve_b();
  auto y = rhs.sqrt();
  if (!y) return std::nullopt;
  Fp2 yy = (lex_greater(*y, -*y) == greater) ? *y : -*y;
  G2 p{x, yy};
  if (!g2_in_subgroup(p)) return std::nullopt;  // reject cofactor components
  return p;
}

}  // namespace dsaudit::curve
