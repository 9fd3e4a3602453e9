// Fixed-width 256-bit and 512-bit unsigned integer arithmetic.
//
// These are the workhorse types underneath the Montgomery field arithmetic in
// src/field. They are deliberately simple value types (no dynamic allocation,
// trivially copyable) with explicit carry handling built on the compiler's
// 128-bit integer support. There is no long division: a 256-bit value is
// reduced below a BN254 modulus by reduce_by_subtraction (at most 5
// subtractions), every other constant is a literal or a constexpr value, and
// the tests' arbitrary-precision oracle (VarUInt, which also parses decimals)
// lives in tests/support. One binary-GCD kernel (u256.cpp) serves both
// inv_mod and the Jacobi symbol; the tests check them against Fermat
// inversion and the Euler criterion.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dsaudit::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// 256-bit unsigned integer, little-endian limb order (limb[0] is least
/// significant). Arithmetic is modulo 2^256 unless the function reports carry.
struct U256 {
  std::array<u64, 4> limb{0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(u64 v) : limb{v, 0, 0, 0} {}
  constexpr U256(u64 l0, u64 l1, u64 l2, u64 l3) : limb{l0, l1, l2, l3} {}

  /// Parse a hex string (with or without 0x prefix). Throws std::invalid_argument
  /// on malformed input or overflow past 256 bits. constexpr, so the field
  /// moduli are parsed from their hex strings at compile time.
  static constexpr U256 from_hex(std::string_view hex) {
    if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
    if (hex.empty()) throw std::invalid_argument("U256::from_hex: empty string");
    if (hex.size() > 64) throw std::invalid_argument("U256::from_hex: overflow");
    U256 r;
    unsigned nibble = 0;
    for (auto it = hex.rbegin(); it != hex.rend(); ++it, ++nibble) {
      const char c = *it;
      u64 d;
      if (c >= '0' && c <= '9') {
        d = static_cast<u64>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        d = static_cast<u64>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        d = static_cast<u64>(c - 'A' + 10);
      } else {
        throw std::invalid_argument("U256::from_hex: bad digit");
      }
      r.limb[nibble / 16] |= d << (4 * (nibble % 16));
    }
    return r;
  }

  /// 32-byte big-endian encoding (the conventional wire format for field
  /// elements in this library).
  static U256 from_be_bytes(std::span<const std::uint8_t, 32> bytes);
  void to_be_bytes(std::span<std::uint8_t, 32> out) const;

  std::string to_hex() const;
  std::string to_dec() const;

  constexpr bool is_zero() const {
    return (limb[0] | limb[1] | limb[2] | limb[3]) == 0;
  }
  constexpr bool is_odd() const { return limb[0] & 1; }
  /// Bit i; bits at or past 256 read as zero, as in extract_window.
  constexpr bool bit(unsigned i) const {
    return i < 256 && ((limb[i / 64] >> (i % 64)) & 1);
  }

  /// Bits [bit_offset, bit_offset + width) as an integer, width <= 64. Bits
  /// at or past 256 read as zero, so callers can scan fixed-width windows off
  /// the top without clamping. This is the MSM window-digit extractor: one
  /// shift (or two, straddling a limb boundary) instead of `width` bit()
  /// probes.
  constexpr u64 extract_window(unsigned bit_offset, unsigned width) const {
    if (bit_offset >= 256 || width == 0) return 0;
    unsigned idx = bit_offset / 64;
    unsigned shift = bit_offset % 64;
    u64 v = limb[idx] >> shift;
    if (shift != 0 && idx + 1 < 4) v |= limb[idx + 1] << (64 - shift);
    u64 mask = width >= 64 ? ~u64{0} : (u64{1} << width) - 1;
    return v & mask;
  }

  /// Number of significant bits (0 for zero).
  constexpr unsigned bit_length() const {
    for (int i = 3; i >= 0; --i) {
      if (limb[i] != 0) {
        return static_cast<unsigned>(64 * i + 64 - std::countl_zero(limb[i]));
      }
    }
    return 0;
  }

  friend bool operator==(const U256& a, const U256& b) = default;
};

/// The one signed-window recoder (Brickell-Gordon-McCurley-Wilson,
/// EUROCRYPT 1992) behind the Pippenger MSMs, the G1 fixed-base tables and
/// the GT multi-exponentiation. For w in [1, 16], window t of k plus the
/// carry out of window t - 1 gives raw; raw > 2^{w-1} becomes the digit
/// raw - 2^w and carries one into window t + 1. Every digit lies in
/// [-(2^{w-1} - 1), 2^{w-1}], and sum_t d_t * 2^{wt} = k once `positions`
/// windows cover k's bits plus the last carry. Writes position t's digit,
/// negated when `neg`, to out[t * stride] for every t < positions, and
/// returns one past the top nonzero digit (0 when k = 0).
template <typename Digit>
constexpr unsigned signed_window_digits(const U256& k, unsigned w,
                                        unsigned positions, bool neg,
                                        Digit* out, std::size_t stride = 1) {
  const u64 half = u64{1} << (w - 1);
  u64 carry = 0;
  unsigned used = 0;
  for (unsigned t = 0; t < positions; ++t) {
    const u64 raw = k.extract_window(t * w, w) + carry;
    carry = raw > half;
    const auto d = static_cast<std::int32_t>(raw - (carry << w));
    out[std::size_t{t} * stride] = static_cast<Digit>(neg ? -d : d);
    if (d != 0) used = t + 1;
  }
  return used;
}

// The carry/borrow/compare primitives and add_mod/sub_mod below are the inner
// loop of every Montgomery field operation. A plain `inline` let GCC emit them
// as out-of-line calls, so they are forced inline with [[gnu::always_inline]].
// They, shr1 and mul_lo are constexpr: ff::make_mont_params and the GLV
// basis of curve/glv.hpp are derived from them at compile time.

/// Three-way compare: -1, 0, +1.
[[gnu::always_inline]] constexpr int cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limb[i] < b.limb[i]) return -1;
    if (a.limb[i] > b.limb[i]) return 1;
  }
  return 0;
}

/// a < b as unsigned 256-bit integers.
[[gnu::always_inline]] constexpr bool lt(const U256& a, const U256& b) {
  return cmp(a, b) < 0;
}

/// out = a + b; returns carry-out (0 or 1).
[[gnu::always_inline]] constexpr u64 add_with_carry(const U256& a, const U256& b,
                                                    U256& out) {
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 v = static_cast<u128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<u64>(v);
    carry = v >> 64;
  }
  return static_cast<u64>(carry);
}

/// out = a - b; returns borrow-out (0 or 1).
[[gnu::always_inline]] constexpr u64 sub_with_borrow(const U256& a, const U256& b,
                                                     U256& out) {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 v = static_cast<u128>(a.limb[i]) - b.limb[i] - borrow;
    out.limb[i] = static_cast<u64>(v);
    borrow = (v >> 64) & 1;  // two's-complement borrow propagates in bit 64
  }
  return static_cast<u64>(borrow);
}

/// (a + b) mod m; requires a, b < m.
[[gnu::always_inline]] constexpr U256 add_mod(const U256& a, const U256& b,
                                              const U256& m) {
  U256 sum;
  u64 carry = add_with_carry(a, b, sum);
  if (carry || !lt(sum, m)) {
    U256 reduced;
    sub_with_borrow(sum, m, reduced);
    return reduced;
  }
  return sum;
}

/// (a - b) mod m; requires a, b < m.
[[gnu::always_inline]] constexpr U256 sub_mod(const U256& a, const U256& b,
                                              const U256& m) {
  U256 diff;
  u64 borrow = sub_with_borrow(a, b, diff);
  if (borrow) {
    U256 fixed;
    add_with_carry(diff, m, fixed);
    return fixed;
  }
  return diff;
}

/// a mod m by subtracting m until the value is below it: floor(a / m)
/// steps, so this is the reduction for a modulus close to 2^256 only. Both
/// BN254 moduli exceed 2^253 (fp.hpp static_asserts it), so it takes at most
/// 7 steps for them, 5 in fact. Every 256-bit value that becomes a field
/// element or a G1 scalar goes through it.
[[gnu::always_inline]] constexpr U256 reduce_by_subtraction(U256 a,
                                                            const U256& m) {
  while (!lt(a, m)) sub_with_borrow(a, m, a);
  return a;
}

constexpr U256 shr1(const U256& a) {  // a >> 1
  U256 r;
  u64 carry = 0;
  for (int i = 3; i >= 0; --i) {
    r.limb[i] = (a.limb[i] >> 1) | (carry << 63);
    carry = a.limb[i] & 1;
  }
  return r;
}

/// 512-bit unsigned integer, little-endian limbs.
struct U512 {
  std::array<u64, 8> limb{};

  U256 hi() const { return U256{limb[4], limb[5], limb[6], limb[7]}; }

  friend bool operator==(const U512& a, const U512& b) = default;
};

/// Full 256x256 -> 512 bit product.
U512 mul_wide(const U256& a, const U256& b);

/// Low 256 bits of a * b (the product modulo 2^256) — the lattice-vector
/// accumulation step of the GLV decomposition, where the small results are
/// exact in two's complement even though the intermediate products wrap.
constexpr U256 mul_lo(const U256& a, const U256& b) {
  U256 r;
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; i + j < 4; ++j) {
      u128 v = static_cast<u128>(a.limb[i]) * b.limb[j] + r.limb[i + j] + carry;
      r.limb[i + j] = static_cast<u64>(v);
      carry = v >> 64;
    }
  }
  return r;
}

/// round(a * b / 2^256) = floor((a * b + 2^255) / 2^256): the widening
/// mul-high with rounding used by the GLV Babai-rounding step, where b is a
/// precomputed floor(2^256 * v / r) constant.
U256 mul_high_rounded(const U256& a, const U256& b);

// Two's-complement views of U256: the GLV half-scalars come out of the
// lattice subtraction as signed 256-bit values whose magnitudes are small
// (< 2^128); these helpers split them back into (magnitude, sign).

/// Top bit of a, read as the sign of the two's-complement interpretation.
inline bool sign_bit(const U256& a) { return (a.limb[3] >> 63) != 0; }

/// -a modulo 2^256 (two's-complement negation).
inline U256 neg2c(const U256& a) {
  U256 r;
  sub_with_borrow(U256{}, a, r);
  return r;
}

/// Magnitude of the two's-complement interpretation of a; sets `negative` to
/// the sign. abs2c(a).first <= 2^255, and for GLV half-scalars the result is
/// guaranteed < 2^128 (asserted by the decomposition).
inline U256 abs2c(const U256& a, bool& negative) {
  negative = sign_bit(a);
  return negative ? neg2c(a) : a;
}

/// a^{-1} mod m by Pornin's optimized binary GCD (eprint 2020/972, Alg. 2):
/// passes of 31 steps on 64-bit approximations of the operands, each applied
/// to the full values at once, with a Montgomery division by 2^31 folded
/// into the coefficient update so the result needs no correction.
/// Requires odd m, 3 <= m < 2^255. Variable-time: for public values only.
/// Throws std::domain_error for a = 0, even m, or gcd(a, m) != 1.
U256 inv_mod(const U256& a, const U256& m);

/// Jacobi symbol (a / m) in {-1, 0, 1}, by the same passes as inv_mod (29
/// steps each, so the 3 low bits the symbol rules read stay exact). For a
/// prime m it is the Legendre symbol. Requires odd m < 2^255 (throws
/// std::domain_error for even m). Variable-time.
int jacobi(const U256& a, const U256& m);

/// -m^{-1} mod 2^64, for Montgomery reduction (m must be odd; throws
/// std::domain_error otherwise).
constexpr u64 mont_n0_inv(const U256& m) {
  if (!m.is_odd()) throw std::domain_error("mont_n0_inv: modulus must be odd");
  // Newton iteration: inv *= 2 - m*inv doubles correct bits each round.
  const u64 m0 = m.limb[0];
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;  // -inv mod 2^64
}

}  // namespace dsaudit::bigint
