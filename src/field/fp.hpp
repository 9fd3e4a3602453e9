// Montgomery-form prime fields for the BN254 curve.
//
//   Fp — the base field (254-bit p), coordinates of G1/G2/GT elements.
//   Fr — the scalar field (group order r), the paper's Z_p of data blocks.
//
// Elements are stored in Montgomery form (x * 2^256 mod p) and multiplied
// with a 4-limb CIOS reduction. All constants (R, R^2, R^3, -p^-1 mod 2^64,
// the exponents) are derived at compile time from the modulus strings by the
// constexpr make_mont_params, so every field operation reads them as
// immediates. The arithmetic members are constexpr too, so the tower
// constants of fp12.hpp, the curve constants and the GLV checks are computed
// at compile time with the same code. A 256-bit integer becomes an element by
// one reduction, bigint::reduce_by_subtraction: both moduli exceed 2^253, so
// from_u256 subtracts p at most 5 times before the Montgomery lift.
// test_curve's Params.Bn254SelfCheck re-derives the moduli from the BN
// parameter t, so a single typo cannot silently corrupt the arithmetic.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "bigint/u256.hpp"
#include "primitives/random.hpp"

namespace dsaudit::ff {

using bigint::U256;
using bigint::u64;

struct MontParams {
  U256 modulus;
  U256 r_mod;    // 2^256 mod p  (Montgomery form of 1)
  U256 r2_mod;   // (2^256)^2 mod p
  U256 r3_mod;   // (2^256)^3 mod p (single-step Montgomery inversion)
  u64 n0_inv = 0;  // -p^{-1} mod 2^64
  bool has_fast_sqrt = false;  // true iff modulus ≡ 3 (mod 4)
  U256 p_plus_1_over_4;   // sqrt exponent (only valid when has_fast_sqrt)
  U256 p_minus_1_over_2;  // (p-1)/2: halves, the tower constants
};

/// Builds Montgomery parameters from an odd modulus whose top limb is below
/// 2^62 (mont_mul's no-carry CIOS bound; both BN254 moduli qualify). Throws
/// std::invalid_argument otherwise. constexpr: the Fp and Fr parameters below
/// are built at compile time.
constexpr MontParams make_mont_params(const U256& modulus) {
  if (!modulus.is_odd()) throw std::invalid_argument("make_mont_params: even modulus");
  if (modulus.limb[3] >= (u64{1} << 62)) {
    throw std::invalid_argument("make_mont_params: modulus top limb >= 2^62");
  }
  // x * 2^256 mod p by 256 modular doublings: R = 1 * 2^256, then R^2, R^3.
  auto times_r = [&modulus](U256 x) {
    for (int i = 0; i < 256; ++i) x = bigint::add_mod(x, x, modulus);
    return x;
  };
  MontParams P;
  P.has_fast_sqrt = (modulus.limb[0] & 3) == 3;
  P.modulus = modulus;
  P.r_mod = times_r(U256{1});
  P.r2_mod = times_r(P.r_mod);
  P.r3_mod = times_r(P.r2_mod);
  P.n0_inv = bigint::mont_n0_inv(modulus);
  const U256 one{1};
  // (p-1)/2 and (p+1)/4: p is odd, and p ≡ 3 mod 4 when has_fast_sqrt.
  U256 pm1;
  bigint::sub_with_borrow(modulus, one, pm1);
  P.p_minus_1_over_2 = bigint::shr1(pm1);
  if (P.has_fast_sqrt) {
    U256 pp1;
    bigint::add_with_carry(modulus, one, pp1);  // p < 2^255, no carry
    P.p_plus_1_over_4 = bigint::shr1(bigint::shr1(pp1));
  }
  return P;
}

/// k·m for the largest k with k·m < 2^256, by repeated addition (k = 5 for
/// both BN254 moduli, static_asserted below): the bound under which
/// PrimeField::random accepts a draw.
constexpr U256 largest_multiple_below_2_256(const U256& m) {
  U256 acc, next;
  while (bigint::add_with_carry(acc, m, next) == 0) acc = next;
  return acc;
}

/// An exponent recoded for a left-to-right sliding window of width kWidth:
/// windows top first, each an odd digit d < 2^kWidth (a multiplication by
/// x^d) after the squarings that precede it. A window and the zeros after it
/// cover at least kWidth bits, so 256 bits need at most 52 windows.
struct ExponentWindows {
  static constexpr int kWidth = 5;
  struct Window {
    int squarings = 0;  // ignored for the first window, which starts at x^d
    int digit = 0;      // the window's value is 2 digit + 1
  };
  std::array<Window, (256 + kWidth - 1) / kWidth> windows{};
  int count = 0;
  int trailing_squarings = 0;  // the zeros below the last window

  // Implicit: pow_u256 takes a U256 exponent through it.
  constexpr ExponentWindows(const U256& e) {
    for (int i = static_cast<int>(e.bit_length()) - 1; i >= 0;) {
      if (!e.bit(i)) {
        ++trailing_squarings;
        --i;
        continue;
      }
      // The longest window [j, i] of at most kWidth bits that ends in a 1.
      int j = std::max(i - kWidth + 1, 0);
      while (!e.bit(j)) ++j;
      const auto value = e.extract_window(j, i - j + 1);
      windows[count++] = {trailing_squarings + i - j + 1,
                          static_cast<int>(value >> 1)};
      trailing_squarings = 0;
      i = j - 1;
    }
  }
};

namespace detail {

/// CIOS with the "no-carry" optimization: the modulus' top limb is below
/// 2^62 (make_mont_params enforces it), so the interleaved multiply/reduce
/// columns never spill into a fifth limb, and the whole product fits in four
/// words plus two running carries. Requires a, b < modulus. This is the
/// innermost loop of every curve operation: it is forced inline into the
/// field operators (a plain `inline` was emitted out of line), where P is a
/// compile-time constant and the modulus and n0 fold into immediates.
[[gnu::always_inline]] constexpr U256 mont_mul(const U256& a, const U256& b,
                                              const MontParams& P) {
  using bigint::u128;
  const std::array<u64, 4>& q = P.modulus.limb;
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 ai = a.limb[i];
    u128 v = static_cast<u128>(ai) * b.limb[0] + t0;
    u64 A = static_cast<u64>(v >> 64);
    const u64 m = static_cast<u64>(v) * P.n0_inv;
    u128 w = static_cast<u128>(m) * q[0] + static_cast<u64>(v);
    u64 C = static_cast<u64>(w >> 64);
    v = static_cast<u128>(ai) * b.limb[1] + t1 + A;
    A = static_cast<u64>(v >> 64);
    w = static_cast<u128>(m) * q[1] + static_cast<u64>(v) + C;
    C = static_cast<u64>(w >> 64);
    t0 = static_cast<u64>(w);
    v = static_cast<u128>(ai) * b.limb[2] + t2 + A;
    A = static_cast<u64>(v >> 64);
    w = static_cast<u128>(m) * q[2] + static_cast<u64>(v) + C;
    C = static_cast<u64>(w >> 64);
    t1 = static_cast<u64>(w);
    v = static_cast<u128>(ai) * b.limb[3] + t3 + A;
    A = static_cast<u64>(v >> 64);
    w = static_cast<u128>(m) * q[3] + static_cast<u64>(v) + C;
    C = static_cast<u64>(w >> 64);
    t2 = static_cast<u64>(w);
    t3 = A + C;  // cannot overflow: q[3] < 2^62 bounds both carries
  }
  U256 r{t0, t1, t2, t3};
  if (!bigint::lt(r, P.modulus)) {
    U256 reduced;
    bigint::sub_with_borrow(r, P.modulus, reduced);
    return reduced;
  }
  return r;
}

}  // namespace detail

/// A prime-field element. Tag supplies the modulus via Tag::params().
template <typename Tag>
class PrimeField {
 public:
  PrimeField() = default;  // zero

  static constexpr const MontParams& params() { return Tag::params(); }
  static constexpr const U256& modulus() { return params().modulus; }
  /// random() accepts a 256-bit draw only below this multiple of p.
  static constexpr U256 kRandomBound = largest_multiple_below_2_256(modulus());
  /// (p+1)/4 recoded for pow_u256: the square root's exponent.
  static constexpr ExponentWindows kSqrtExponent{params().p_plus_1_over_4};

  static constexpr PrimeField zero() { return PrimeField{}; }
  static constexpr PrimeField one() {
    PrimeField r;
    r.v_ = params().r_mod;
    return r;
  }

  static constexpr PrimeField from_u64(u64 v) { return from_u256(U256{v}); }

  /// Reduce an arbitrary 256-bit value mod p (at most 5 subtractions of p)
  /// and lift to Montgomery form.
  static constexpr PrimeField from_u256(const U256& v) {
    const auto& P = params();
    PrimeField r;
    r.v_ = detail::mont_mul(bigint::reduce_by_subtraction(v, P.modulus),
                            P.r2_mod, P);
    return r;
  }

  /// Interpret 32 big-endian bytes as an integer and reduce mod p. This is
  /// the PRF-output-to-Z_p mapping used during challenge expansion.
  static PrimeField from_be_bytes_mod(std::span<const std::uint8_t, 32> bytes) {
    return from_u256(U256::from_be_bytes(bytes));
  }

  /// Exactly uniform on [0, p): a 256-bit draw is accepted only below 5p,
  /// the largest multiple of p under 2^256 (2^256 = 5p + s with s < p), so
  /// every residue has five preimages; it is then reduced by subtraction.
  /// A draw at or above 5p (5.5% of draws, for either modulus) is redrawn.
  static PrimeField random(primitives::SecureRng& rng) {
    for (;;) {
      const auto b = rng.bytes32();
      const U256 v = U256::from_be_bytes(b);
      if (bigint::lt(v, kRandomBound)) return from_u256(v);
    }
  }

  /// Canonical (non-Montgomery) integer value in [0, p).
  constexpr U256 to_u256() const {
    const auto& P = params();
    return detail::mont_mul(v_, U256{1}, P);
  }

  void to_be_bytes(std::span<std::uint8_t, 32> out) const {
    to_u256().to_be_bytes(out);
  }
  std::array<std::uint8_t, 32> to_bytes() const {
    std::array<std::uint8_t, 32> out;
    to_be_bytes(out);
    return out;
  }

  std::string to_dec() const { return to_u256().to_dec(); }

  constexpr bool is_zero() const { return v_.is_zero(); }
  bool is_one() const { return v_ == params().r_mod; }

  friend constexpr PrimeField operator+(const PrimeField& a,
                                         const PrimeField& b) {
    PrimeField r;
    r.v_ = bigint::add_mod(a.v_, b.v_, params().modulus);
    return r;
  }
  friend constexpr PrimeField operator-(const PrimeField& a,
                                         const PrimeField& b) {
    PrimeField r;
    r.v_ = bigint::sub_mod(a.v_, b.v_, params().modulus);
    return r;
  }
  constexpr PrimeField operator-() const {
    PrimeField r;
    r.v_ = v_.is_zero() ? v_ : bigint::sub_mod(U256{}, v_, params().modulus);
    return r;
  }
  friend constexpr PrimeField operator*(const PrimeField& a,
                                         const PrimeField& b) {
    PrimeField r;
    r.v_ = detail::mont_mul(a.v_, b.v_, params());
    return r;
  }
  PrimeField& operator+=(const PrimeField& o) { return *this = *this + o; }
  PrimeField& operator-=(const PrimeField& o) { return *this = *this - o; }
  PrimeField& operator*=(const PrimeField& o) { return *this = *this * o; }

  // A dedicated sum-of-squares path was measured slower than the interleaved
  // CIOS multiply at 4 limbs (the separate reduction pass costs more than the
  // 6 saved limb products), so squaring just multiplies.
  constexpr PrimeField square() const { return *this * *this; }
  PrimeField dbl() const { return *this + *this; }

  /// Inversion by bigint::inv_mod's binary GCD: 1.7 us, about 100 field
  /// multiplications (BM_FpInverse against BM_FpMul's 17 ns, one thread,
  /// 4-core x86-64 host), against ~305 for Fermat's a^(p-2) with pow_u256.
  /// Every to_affine, batch_inverse and torus GT decode runs it. Returns
  /// zero for zero — callers that care check is_zero() first.
  PrimeField inverse() const {
    if (is_zero()) return zero();
    const auto& P = params();
    // v_ = a*R; inv_mod gives a^{-1} R^{-1}; multiply by R^3 (two Montgomery
    // reductions fold in) to land back on a^{-1} R.
    U256 raw = bigint::inv_mod(v_, P.modulus);
    PrimeField r;
    r.v_ = detail::mont_mul(raw, P.r3_mod, P);
    return r;
  }

  /// this^e by a left-to-right sliding window of width 5 over the odd powers
  /// this, this^3, ..., this^31. For the 252-bit (p+1)/4 that is 251
  /// squarings and 53 multiplications (15 of them for the table), against
  /// the binary ladder's 252 and 109. A U256 exponent is recoded on the
  /// way in; sqrt passes its fixed exponent recoded at compile time.
  PrimeField pow_u256(const ExponentWindows& e) const {
    if (e.count == 0) return one();
    std::array<PrimeField, 1 << (ExponentWindows::kWidth - 1)> odd;
    odd[0] = *this;  // odd[k] = this^(2k+1)
    const PrimeField sq = square();
    for (std::size_t k = 1; k < odd.size(); ++k) odd[k] = odd[k - 1] * sq;
    PrimeField result = odd[e.windows[0].digit];
    for (int w = 1; w < e.count; ++w) {
      for (int k = 0; k < e.windows[w].squarings; ++k) result = result.square();
      result *= odd[e.windows[w].digit];
    }
    for (int k = 0; k < e.trailing_squarings; ++k) result = result.square();
    return result;
  }

  /// Square root via the p ≡ 3 (mod 4) shortcut; nullopt if not a quadratic
  /// residue. Only fields with the shortcut have it (Fr has r ≡ 1 mod 4;
  /// nothing in the protocol needs square roots there).
  std::optional<PrimeField> sqrt() const
    requires(Tag::params().has_fast_sqrt)
  {
    PrimeField cand = pow_u256(kSqrtExponent);
    if (cand.square() == *this) return cand;
    return std::nullopt;
  }

  /// Legendre symbol: +1 residue, -1 non-residue, 0 for zero. It is the
  /// Jacobi symbol of the Montgomery form a 2^256, which equals a's since
  /// 2^256 is a square (test_field checks it against the Euler criterion).
  int legendre() const { return bigint::jacobi(v_, modulus()); }

  /// True if the canonical integer representative is odd (used for point
  /// compression sign bits).
  bool is_odd_canonical() const { return to_u256().is_odd(); }

  friend bool operator==(const PrimeField& a, const PrimeField& b) = default;

 private:
  U256 v_{};  // Montgomery form
};

/// The BN254 moduli, as the hex strings the Montgomery parameters are parsed
/// from at compile time.
inline constexpr const char* kFpModulusHex =
    "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47";
inline constexpr const char* kFrModulusHex =
    "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001";

inline constexpr MontParams kFpMontParams =
    make_mont_params(U256::from_hex(kFpModulusHex));
inline constexpr MontParams kFrMontParams =
    make_mont_params(U256::from_hex(kFrModulusHex));
// Both moduli exceed 2^253, so bigint::reduce_by_subtraction brings any
// 256-bit value below them in at most 7 subtractions (5 in fact).
static_assert(kFpMontParams.modulus.bit(253) && kFrMontParams.modulus.bit(253));

struct FpTag {
  static constexpr const MontParams& params() { return kFpMontParams; }
};
struct FrTag {
  static constexpr const MontParams& params() { return kFrMontParams; }
};

/// Base field of BN254 (alt_bn128): coordinates of curve points.
using Fp = PrimeField<FpTag>;
/// Scalar field (group order r): the paper's Z_p of data blocks/exponents.
using Fr = PrimeField<FrTag>;
// 2^256 = 5m + s with s < m for both moduli: random() accepts draws below 5m.
static_assert(Fp::kRandomBound == bigint::mul_lo(Fp::modulus(), U256{5}) &&
              Fr::kRandomBound == bigint::mul_lo(Fr::modulus(), U256{5}));

/// The BN parameter t, with p = 36t^4+36t^3+24t^2+6t+1 and
/// r = 36t^4+36t^3+18t^2+6t+1 (test_curve checks both against the moduli).
inline constexpr u64 kBnParamT = 4965661367192848881ULL;

/// 6t^2 = p - r (127 bits): Frobenius acts as [6t^2] on G2's order-r
/// subgroup, which is what g2_in_subgroup tests.
inline constexpr U256 kSixTSquared = [] {
  const bigint::u128 v = bigint::u128{6} * kBnParamT * kBnParamT;
  return U256{static_cast<u64>(v), static_cast<u64>(v >> 64), 0, 0};
}();
static_assert([] {
  U256 diff;
  bigint::sub_with_borrow(Fp::modulus(), Fr::modulus(), diff);
  return diff == kSixTSquared;
}());

/// 1/2 in Fp: (p + 1)/2 = (p - 1)/2 + 1.
inline constexpr Fp kFpHalf =
    Fp::from_u256(kFpMontParams.p_minus_1_over_2) + Fp::one();

}  // namespace dsaudit::ff
