#include "curve/g1.hpp"

#include "primitives/keccak256.hpp"

namespace dsaudit::curve {

const FixedBaseTable<G1>& g1_generator_table() {
  // w = 10: 13 windows of 512 signed digits, 479 KB and at most 26 mixed
  // additions, against the unsplit w = 8 table's 587,520 B and 32 additions.
  static const FixedBaseTable<G1> table(G1::generator(), 10);
  return table;
}

G1 g1_mul_generator(const ff::Fr& k) { return g1_generator_table().mul(k); }

G1 g1_random(primitives::SecureRng& rng) {
  return g1_mul_generator(Fr::random(rng));
}

G1 hash_to_g1(std::span<const std::uint8_t> data) {
  // Try-and-increment: x = Keccak(data || ctr) mod p until x^3+3 is square.
  // The expected number of candidates is 2. Each is screened by its Jacobi
  // symbol (the binary-GCD kernel, ~1/4 the cost of the (p+1)/4 power), so
  // the square root runs once per hash, on the residue. The parity of y is
  // taken from the hash as well so the map does not favour one square root.
  std::vector<std::uint8_t> buf(data.begin(), data.end());
  buf.resize(data.size() + 4);
  for (std::uint32_t ctr = 0;; ++ctr) {
    buf[data.size()] = static_cast<std::uint8_t>(ctr >> 24);
    buf[data.size() + 1] = static_cast<std::uint8_t>(ctr >> 16);
    buf[data.size() + 2] = static_cast<std::uint8_t>(ctr >> 8);
    buf[data.size() + 3] = static_cast<std::uint8_t>(ctr);
    auto h = primitives::Keccak256::hash(buf);
    bool want_odd = (h[0] & 0x80) != 0;  // consumed before the mod-p mapping
    Fp x = Fp::from_be_bytes_mod(std::span<const std::uint8_t, 32>(h));
    Fp rhs = x.square() * x + G1::curve_b();
    if (rhs.legendre() == -1) continue;
    const Fp y = *rhs.sqrt();
    return G1{x, y.is_odd_canonical() == want_odd ? y : -y};
  }
}

G1 hash_to_g1(std::string_view s) {
  return hash_to_g1(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::array<std::uint8_t, 32> g1_compress(const G1::Affine& p) {
  std::array<std::uint8_t, 32> out{};
  if (p.is_infinity()) {
    out[0] = 0x80;  // infinity flag, rest zero
    return out;
  }
  p.x.to_be_bytes(out);
  if (p.y.is_odd_canonical()) out[0] |= 0x40;
  return out;
}

std::array<std::uint8_t, 32> g1_compress(const G1& p) {
  return g1_compress(p.to_affine_point());
}

std::optional<G1::Affine> g1_decompress(std::span<const std::uint8_t, 32> bytes) {
  std::array<std::uint8_t, 32> buf;
  std::copy(bytes.begin(), bytes.end(), buf.begin());
  bool inf = (buf[0] & 0x80) != 0;
  bool odd = (buf[0] & 0x40) != 0;
  buf[0] &= 0x3f;
  if (inf) {
    for (auto b : buf) {
      if (b != 0) return std::nullopt;
    }
    if (odd) return std::nullopt;
    return G1::Affine{};
  }
  ff::U256 xi = ff::U256::from_be_bytes(buf);
  if (!bigint::lt(xi, Fp::modulus())) return std::nullopt;  // non-canonical
  Fp x = Fp::from_u256(xi);
  Fp rhs = x.square() * x + G1::curve_b();
  auto y = rhs.sqrt();
  if (!y) return std::nullopt;
  Fp yy = (y->is_odd_canonical() == odd) ? *y : -*y;
  return G1::Affine{x, yy};
}

}  // namespace dsaudit::curve
