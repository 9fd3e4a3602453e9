#include "bigint/u256.hpp"

#include <algorithm>
#include <utility>
#include <stdexcept>

namespace dsaudit::bigint {

U256 U256::from_be_bytes(std::span<const std::uint8_t, 32> bytes) {
  U256 r;
  for (int i = 0; i < 32; ++i) {
    r.limb[3 - i / 8] |= static_cast<u64>(bytes[i]) << (8 * (7 - i % 8));
  }
  return r;
}

void U256::to_be_bytes(std::span<std::uint8_t, 32> out) const {
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(limb[3 - i / 8] >> (8 * (7 - i % 8)));
  }
}

std::string U256::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  bool leading = true;
  for (int i = 63; i >= 0; --i) {
    int d = static_cast<int>((limb[i / 16] >> (4 * (i % 16))) & 0xf);
    if (leading && d == 0 && i != 0) continue;
    leading = false;
    s.push_back(digits[d]);
  }
  return s;
}

std::string U256::to_dec() const {
  if (is_zero()) return "0";
  U256 v = *this;
  std::string s;
  while (!v.is_zero()) {
    // divide by 10, collect remainder
    u128 rem = 0;
    for (int i = 3; i >= 0; --i) {
      u128 cur = (rem << 64) | v.limb[i];
      v.limb[i] = static_cast<u64>(cur / 10);
      rem = cur % 10;
    }
    s.push_back(static_cast<char>('0' + static_cast<int>(rem)));
  }
  std::reverse(s.begin(), s.end());
  return s;
}

U512 mul_wide(const U256& a, const U256& b) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 v = static_cast<u128>(a.limb[i]) * b.limb[j] + r.limb[i + j] + carry;
      r.limb[i + j] = static_cast<u64>(v);
      carry = v >> 64;
    }
    r.limb[i + 4] = static_cast<u64>(carry);
  }
  return r;
}

U256 mul_high_rounded(const U256& a, const U256& b) {
  U512 w = mul_wide(a, b);
  // Add 2^255 to the low half and propagate the carry into the high half.
  u128 carry = (static_cast<u128>(w.limb[3]) + (u64{1} << 63)) >> 64;
  U256 hi = w.hi();
  for (int i = 0; i < 4 && carry; ++i) {
    u128 v = static_cast<u128>(hi.limb[i]) + carry;
    hi.limb[i] = static_cast<u64>(v);
    carry = v >> 64;
  }
  return hi;
}

namespace {

// Pornin's optimized binary GCD (eprint 2020/972, Algorithm 2), shared by
// inv_mod and jacobi. Each pass runs kSteps binary-GCD steps on 64-bit
// approximations of a and b, recording them as the 2x2 factor matrix
// (f0 g0; f1 g1), then applies the matrix to the full values once:
// a <- (a f0 + b g0) / 2^kSteps, b <- (a f1 + b g1) / 2^kSteps.

using i64 = std::int64_t;
using i128 = __int128;

struct Factors {
  i64 f0 = 1, g0 = 0, f1 = 0, g1 = 1;
  unsigned sym = 0;  // bit 0: the pass flipped the Jacobi symbol
};

/// Two's-complement 320-bit integer: a factor combination before its shift.
using Wide = std::array<u64, 5>;

/// The approximations: the low 31 bits of a and b exactly, above them their
/// top 33 bits at the common length n = max(len(a), len(b), 64). When both
/// fit in 64 bits this is the exact value.
std::pair<u64, u64> approximate(const U256& a, const U256& b) {
  const U256 ab{a.limb[0] | b.limb[0], a.limb[1] | b.limb[1],
                a.limb[2] | b.limb[2], a.limb[3] | b.limb[3]};
  const unsigned n = std::max(ab.bit_length(), 64u);
  constexpr u64 kLow = (u64{1} << 31) - 1;
  return {(a.limb[0] & kLow) | (a.extract_window(n - 33, 33) << 31),
          (b.limb[0] & kLow) | (b.extract_window(n - 33, 33) << 31)};
}

/// kSteps steps of: if a is odd, swap a and b when a < b, then a <- a - b;
/// then a <- a / 2. The parity tests read the exact low bits, so the
/// factors are exact for the full values. With kJacobi, bit 0 of t.sym
/// flips with the Jacobi symbol (a / |b|): on a swap when a = b = 3 mod 4
/// (reciprocity), on each halving when b = 3 or 5 mod 8 ((2/b)). Those
/// rules read 3 low bits, which stay exact only for 29 steps.
template <int kSteps, bool kJacobi>
Factors run_steps(u64 xa, u64 xb) {
  Factors t;
  int left = kSteps;
  for (;;) {
    // A run of even a: halve it up to `left` times at once.
    const int z = std::min(std::countr_zero(xa), left);
    xa >>= z;
    t.f1 *= i64{1} << z;
    t.g1 *= i64{1} << z;
    left -= z;
    if constexpr (kJacobi) {
      t.sym ^= static_cast<unsigned>(z & ((xb >> 1) ^ (xb >> 2)));
    }
    if (left == 0) return t;
    if (xa < xb) {
      if constexpr (kJacobi) t.sym ^= static_cast<unsigned>((xa & xb) >> 1);
      std::swap(xa, xb);
      std::swap(t.f0, t.f1);
      std::swap(t.g0, t.g1);
    }
    xa -= xb;  // both odd: the difference is even, halved next round
    t.f0 -= t.f1;
    t.g0 -= t.g1;
  }
}

/// x f + y g for x, y < 2^256 and |f|, |g| <= 2^31.
Wide combine(const U256& x, i64 f, const U256& y, i64 g) {
  Wide r;
  i128 c = 0;
  for (int i = 0; i < 4; ++i) {
    c += static_cast<i128>(x.limb[i]) * f + static_cast<i128>(y.limb[i]) * g;
    r[i] = static_cast<u64>(c);
    c >>= 64;
  }
  r[4] = static_cast<u64>(c);
  return r;
}

/// Arithmetic right shift by s, 0 < s < 64.
Wide shift_right(const Wide& w, unsigned s) {
  return {(w[0] >> s) | (w[1] << (64 - s)), (w[1] >> s) | (w[2] << (64 - s)),
          (w[2] >> s) | (w[3] << (64 - s)), (w[3] >> s) | (w[4] << (64 - s)),
          static_cast<u64>(static_cast<i64>(w[4]) >> s)};
}

bool is_negative(const Wide& w) { return (w[4] >> 63) != 0; }

Wide negate(const Wide& w) {
  Wide r;
  u64 carry = 1;
  for (int i = 0; i < 5; ++i) {
    r[i] = ~w[i] + carry;
    carry = carry && r[i] == 0;
  }
  return r;
}

U256 low_limbs(const Wide& w) { return U256{w[0], w[1], w[2], w[3]}; }

/// |x f + y g| / 2^s, exact (the low s bits are zero); `negative` reports
/// the sign. |f| + |g| <= 2^s keeps the magnitude at most max(x, y).
U256 combine_shift(const U256& x, i64 f, const U256& y, i64 g, unsigned s,
                   bool& negative) {
  Wide w = shift_right(combine(x, f, y, g), s);
  negative = is_negative(w);
  return low_limbs(negative ? negate(w) : w);
}

/// Applies a pass of s steps to a and b: both become |combination| / 2^s,
/// and the factor row of each one that was negative is negated to match.
/// Returns whether a was.
bool apply_pass(U256& a, U256& b, Factors& t, unsigned s) {
  bool neg_a, neg_b;
  const U256 a2 = combine_shift(a, t.f0, b, t.g0, s, neg_a);
  b = combine_shift(a, t.f1, b, t.g1, s, neg_b);
  a = a2;
  if (neg_a) {
    t.f0 = -t.f0;
    t.g0 = -t.g0;
  }
  if (neg_b) {
    t.f1 = -t.f1;
    t.g1 = -t.g1;
  }
  return neg_a;
}

/// (u f + v g) / 2^31 mod m for u, v < m: a Montgomery division, adding the
/// multiple k m (k < 2^31) that clears the low 31 bits first. n0 is
/// -m^{-1} mod 2^64. |u f + v g| < 2^31 m, so the quotient lies in (-m, 2m)
/// and one correction brings it into [0, m).
U256 combine_mod(const U256& u, i64 f, const U256& v, i64 g, const U256& m,
                 u64 n0) {
  Wide w = combine(u, f, v, g);
  const u64 k = (w[0] * n0) & ((u64{1} << 31) - 1);
  u128 c = 0;
  for (int i = 0; i < 4; ++i) {
    c += static_cast<u128>(m.limb[i]) * k + w[i];
    w[i] = static_cast<u64>(c);
    c >>= 64;
  }
  w[4] += static_cast<u64>(c);
  w = shift_right(w, 31);
  U256 r = low_limbs(w);
  if (is_negative(w)) {
    add_with_carry(r, m, r);
  } else if (w[4] != 0 || !lt(r, m)) {
    sub_with_borrow(r, m, r);
  }
  return r;
}

}  // namespace

U256 inv_mod(const U256& x, const U256& m) {
  if (x.is_zero()) throw std::domain_error("inv_mod: zero has no inverse");
  if (!m.is_odd()) throw std::domain_error("inv_mod: modulus must be odd");
  // Invariants: u x = a and v x = b (mod m). Each pass divides the factor
  // combinations by 2^31 and u, v by 2^31 mod m alike, so when a reaches
  // zero, b = gcd(x, m) and v x = b exactly.
  const u64 n0 = mont_n0_inv(m);
  U256 a = x, b = m, u{1}, v{0};
  while (!a.is_zero()) {
    const auto [xa, xb] = approximate(a, b);
    Factors t = run_steps<31, false>(xa, xb);
    apply_pass(a, b, t, 31);
    const U256 u2 = combine_mod(u, t.f0, v, t.g0, m, n0);
    v = combine_mod(u, t.f1, v, t.g1, m, n0);
    u = u2;
  }
  if (!(b == U256{1})) throw std::domain_error("inv_mod: not invertible");
  return v;
}

int jacobi(const U256& x, const U256& m) {
  if (!m.is_odd()) throw std::domain_error("jacobi: modulus must be odd");
  // The tracked symbol is (a / |b|). Within a pass the true a and b may go
  // negative (the approximate comparison can pick the wrong order), but
  // never both at once, and for odd a, b not both negative the
  // reciprocity sign is still (-1)^((a-1)(b-1)/4); (2 / |b|) is the same
  // for b and -b. After the pass, negating b leaves (a / |b|) as it is, and
  // negating a multiplies it by (-1 / |b|).
  U256 a = x, b = m;
  unsigned sym = 0;
  while (!a.is_zero()) {
    const auto [xa, xb] = approximate(a, b);
    Factors t = run_steps<29, true>(xa, xb);
    sym ^= t.sym;
    if (apply_pass(a, b, t, 29)) sym ^= static_cast<unsigned>(b.limb[0] >> 1);
  }
  if (!(b == U256{1})) return 0;
  return (sym & 1) ? -1 : 1;
}

}  // namespace dsaudit::bigint
