// Quadratic extension Fp12 = Fp6[w]/(w^2 - v). Target group GT of the
// pairing lives in the order-r cyclotomic subgroup of Fp12*.
//
// Frobenius maps use the constants gamma_k = xi^{k(p-1)/6} in Fp2, computed
// at compile time from xi and p (kTowerConsts) rather than hard-coded.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "field/fp6.hpp"

namespace dsaudit::ff {

/// The Frobenius constants, all powers of g = xi^{(p-1)/6}. Conjugation is
/// the p-power map of Fp2, so g^{p^n} is g (n even) or conj(g) (n odd), and
/// xi^{k(p^n-1)/6} = (g^{p^{n-1} + ... + p + 1})^k factors into g and conj(g).
struct TowerConsts {
  std::array<Fp2, 6> gamma;     // g^k: p-Frobenius on Fp12/Fp6, psi on G2
  std::array<Fp2, 6> gamma_p2;  // (g conj(g))^k, in Fp: p^2-Frobenius, psi^2
  std::array<Fp2, 6> gamma_p3;  // (g^2 conj(g))^k: p^3-Frobenius
};

namespace detail {

constexpr std::array<Fp2, 6> powers_of(const Fp2& g) {
  std::array<Fp2, 6> out{Fp2::one()};
  for (int k = 1; k < 6; ++k) out[k] = out[k - 1] * g;
  return out;
}

constexpr TowerConsts make_tower_consts() {
  // (p-1)/6 = ((p-1)/2)/3 by limb-wise long division; p ≡ 1 (mod 6).
  U256 e = Fp::params().p_minus_1_over_2;
  bigint::u128 rem = 0;
  for (int i = 3; i >= 0; --i) {
    const bigint::u128 cur = (rem << 64) | e.limb[i];
    e.limb[i] = static_cast<u64>(cur / 3);
    rem = cur % 3;
  }
  Fp2 g = Fp2::one();
  for (int i = 255; i >= 0; --i) {
    g = g.square();
    if (e.bit(i)) g = g * xi();
  }
  const Fp2 g_conj_g = g * g.conjugate();
  return {powers_of(g), powers_of(g_conj_g), powers_of(g * g_conj_g)};
}

}  // namespace detail

inline constexpr TowerConsts kTowerConsts = detail::make_tower_consts();

/// Largest multi_pow input (or shard) that runs Straus instead of buckets.
/// Measured crossover, random GT bases with dense 128-bit exponents (the
/// settlement weights), us per call of each engine called directly, one
/// thread, g++ -O3, 4-core shared x86-64 host; median of 5 alternated
/// calls, two passes:
///
///      n    Straus          buckets         Straus / buckets
///      8     2852            3772            0.76
///     16     5375            6202            0.87
///     24     7977            8426            0.95
///     32    10107 /  7757   10225 /  6385    0.99 / 1.21
///     48    15205 / 10093   14057 /  9115    1.08 / 1.11
///     64    20010 / 12122   16551 / 11068    1.21 / 1.10
///    128    39245 / 27601   29965 / 20396    1.31 / 1.35
///    346    86122 / 63515   45611 / 43129    1.89 / 1.47
///    900   196474 / 235777 100441 / 127944   1.96 / 1.84
///
/// Straus pays a 2^{w-1}-entry table per base; buckets pay 2^{c-1} bucket
/// weightings per window, which a few dozen bases amortize.
inline constexpr std::size_t kGtStrausMaxBases = 32;

/// Fewest bases per multi_pow shard: an input shards over the pool only
/// from 2 * kGtShardMinBases bases, into at most n / kGtShardMinBases
/// ranges. Every range pays its own squaring chain, so tiny ranges lose.
/// Same host, 4 threads, us per call (median of 7):
///
///      n    serial   2 shards   4 shards
///      2      861      1122
///      4     1298      1415       1487
///      8     2467      1840       1179
///     16     5547      3239       1948
///    346    42409     33517      22906
///    900   138893     79680      52155
///
/// At 4 the split starts to pay; bisection's 2- and 3-round ranges stay
/// serial.
inline constexpr std::size_t kGtShardMinBases = 4;

class Fp12 {
 public:
  Fp6 c0, c1;  // c0 + c1 w

  Fp12() = default;
  Fp12(const Fp6& a, const Fp6& b) : c0(a), c1(b) {}

  static Fp12 zero() { return {}; }
  static Fp12 one() { return {Fp6::one(), Fp6::zero()}; }
  static Fp12 random(primitives::SecureRng& rng) {
    return {Fp6::random(rng), Fp6::random(rng)};
  }

  bool is_zero() const { return c0.is_zero() && c1.is_zero(); }
  bool is_one() const { return c0.is_one() && c1.is_zero(); }

  friend Fp12 operator+(const Fp12& a, const Fp12& b) {
    return {a.c0 + b.c0, a.c1 + b.c1};
  }
  friend Fp12 operator-(const Fp12& a, const Fp12& b) {
    return {a.c0 - b.c0, a.c1 - b.c1};
  }
  Fp12 operator-() const { return {-c0, -c1}; }

  friend Fp12 operator*(const Fp12& a, const Fp12& b) {
    // Karatsuba over Fp6 with w^2 = v.
    Fp6 v0 = a.c0 * b.c0;
    Fp6 v1 = a.c1 * b.c1;
    Fp6 mid = (a.c0 + a.c1) * (b.c0 + b.c1);
    return {v0 + v1.mul_by_v(), mid - v0 - v1};
  }
  Fp12& operator*=(const Fp12& o) { return *this = *this * o; }

  Fp12 square() const {
    // Complex squaring: (a + bw)^2 = (a^2 + v b^2) + 2ab w
    Fp6 ab = c0 * c1;
    Fp6 a2 = c0.square();
    Fp6 b2 = c1.square();
    return {a2 + b2.mul_by_v(), ab + ab};
  }

  /// Multiplication by a sparse element (A, 0, 0) + (B, C, 0)w — the shape
  /// of every Miller-loop line evaluation. ~35% cheaper than generic mul.
  Fp12 mul_by_line(const Fp2& a, const Fp2& b, const Fp2& c) const {
    // v0 = c0 * (A,0,0): coefficient-wise scaling by A.
    Fp6 v0 = c0.mul_fp2(a);
    // v1 = c1 * (B + Cv): (y0+y1v+y2v^2)(B+Cv)
    //    = (y0B + xi y2C) + (y1B + y0C)v + (y2B + y1C)v^2.
    Fp6 v1{c1.c0 * b + (c1.c2 * c).mul_by_xi(), c1.c1 * b + c1.c0 * c,
           c1.c2 * b + c1.c1 * c};
    // Karatsuba cross term with l0 + l1 = (A+B) + Cv.
    Fp6 sum = c0 + c1;
    Fp2 ab_sum = a + b;
    Fp6 mid{sum.c0 * ab_sum + (sum.c2 * c).mul_by_xi(), sum.c1 * ab_sum + sum.c0 * c,
            sum.c2 * ab_sum + sum.c1 * c};
    return {v0 + v1.mul_by_v(), mid - v0 - v1};
  }

  /// Squaring restricted to the cyclotomic subgroup (elements of order
  /// dividing p^4 - p^2 + 1, i.e. anything that already passed the easy part
  /// of the final exponentiation). Granger–Scott compressed squaring over the
  /// three Fp4 subalgebras — ~2x cheaper than the generic square(), and the
  /// dominant operation of the hard part's exponentiations by the BN
  /// parameter. NOT valid for general Fp12 elements.
  Fp12 cyclotomic_square() const {
    // With x = (x0 + x1 v + x2 v^2) + (x3 + x4 v + x5 v^2) w, the pairs
    // (x0, x4), (x3, x2), (x1, x5) each span an Fp4 = Fp2[y]/(y^2 - xi) in
    // which a unit-norm element squares with 2 Fp2 squarings (Eq. 3.2 of
    // eprint 2009/565).
    Fp2 t0 = c1.c1.square();                            // x4^2
    Fp2 t1 = c0.c0.square();                            // x0^2
    Fp2 t6 = (c1.c1 + c0.c0).square() - t0 - t1;        // 2 x0 x4
    Fp2 t2 = c0.c2.square();                            // x2^2
    Fp2 t3 = c1.c0.square();                            // x3^2
    Fp2 t7 = (c0.c2 + c1.c0).square() - t2 - t3;        // 2 x2 x3
    Fp2 t4 = c1.c2.square();                            // x5^2
    Fp2 t5 = c0.c1.square();                            // x1^2
    Fp2 t8 = ((c1.c2 + c0.c1).square() - t4 - t5).mul_by_xi();  // 2 x1 x5 xi
    t0 = t0.mul_by_xi() + t1;                           // x4^2 xi + x0^2
    t2 = t2.mul_by_xi() + t3;                           // x2^2 xi + x3^2
    t4 = t4.mul_by_xi() + t5;                           // x5^2 xi + x1^2
    return {Fp6{(t0 - c0.c0).dbl() + t0, (t2 - c0.c1).dbl() + t2,
                (t4 - c0.c2).dbl() + t4},
            Fp6{(t8 + c1.c0).dbl() + t8, (t6 + c1.c1).dbl() + t6,
                (t7 + c1.c2).dbl() + t7}};
  }

  /// GT exponentiation by an arbitrary 256-bit integer: multi_pow's n = 1
  /// case, an MSB-first signed-window ladder (w = 4 for the 63-bit u, 5 for
  /// a 254-bit scalar) of cyclotomic squarings whose negative digits
  /// multiply by free conjugates. The one single-base GT ladder: the final
  /// exponentiation's three u-powers, gt_in_subgroup's one and the prover's
  /// R when it holds no ProverKey. Only valid on elements of
  /// the cyclotomic subgroup (every GT element qualifies); the textbook
  /// pow_u256 below is its oracle.
  Fp12 cyclotomic_pow_u256(const U256& e) const {
    return multi_pow(std::span<const Fp12>(this, 1),
                     std::span<const U256>(&e, 1));
  }

  /// GT multi-exponentiation: prod_i bases[i]^{exps[i]}. Same contract as
  /// every cyclotomic_*: inputs must lie in the cyclotomic subgroup (every
  /// GT element qualifies). Throws std::invalid_argument on bases/exps
  /// length mismatch.
  ///
  /// From 2 * kGtShardMinBases bases on, the bases split into contiguous
  /// ranges, one per pool thread and at least kGtShardMinBases each, and
  /// the range products multiply back in range order. The product is
  /// exact, so the output is the same field element at every thread count.
  /// Each range (or the whole input below the threshold) runs one of two
  /// shared-squaring engines, both over signed window digits in
  /// [-(2^{w-1} - 1), 2^{w-1}] whose negatives multiply by the conjugate
  /// (the inverse on the unit-norm cyclotomic subgroup):
  ///   - up to kGtStrausMaxBases bases, Straus: one table of powers
  ///     1..2^{w-1} per base and one squaring chain for the batch, with w
  ///     from a deterministic cost model in (n, max_bits);
  ///   - above, Pippenger's buckets: per window, each base multiplies into
  ///     its digit's bucket, and a running product weights the buckets.
  /// The crossover and the threshold are measured (see their constants);
  /// BM_GtMultiPow times the whole call. The textbook per-element pow_u256
  /// is the oracle.
  static Fp12 multi_pow(std::span<const Fp12> bases, std::span<const U256> exps);

  /// p^6-power Frobenius; for elements of the cyclotomic subgroup (unit
  /// norm) this equals the inverse.
  Fp12 conjugate() const { return {c0, -c1}; }

  Fp12 inverse() const {
    Fp6 norm = c0.square() - c1.square().mul_by_v();
    Fp6 inv = norm.inverse();
    return {c0 * inv, -(c1 * inv)};
  }

  /// p-power Frobenius endomorphism.
  Fp12 frobenius() const {
    const auto& tc = kTowerConsts;
    // Coefficient of v^i w^j maps to conj(coef) * gamma[(2i + j) mod 6's exponent]
    Fp6 a{c0.c0.conjugate(), c0.c1.conjugate() * tc.gamma[2],
          c0.c2.conjugate() * tc.gamma[4]};
    Fp6 b{c1.c0.conjugate() * tc.gamma[1], c1.c1.conjugate() * tc.gamma[3],
          c1.c2.conjugate() * tc.gamma[5]};
    return {a, b};
  }

  /// p^2-power Frobenius: coefficients stay un-conjugated (conj^2 = id) and
  /// scale by the Fp-valued gamma_p2 constants — 10 Fp2-by-Fp2 products
  /// cheaper than two chained frobenius() calls.
  Fp12 frobenius2() const {
    const auto& tc = kTowerConsts;
    Fp6 a{c0.c0, c0.c1 * tc.gamma_p2[2], c0.c2 * tc.gamma_p2[4]};
    Fp6 b{c1.c0 * tc.gamma_p2[1], c1.c1 * tc.gamma_p2[3],
          c1.c2 * tc.gamma_p2[5]};
    return {a, b};
  }

  /// p^3-power Frobenius (conjugate coefficients, gamma_p3 scaling).
  Fp12 frobenius3() const {
    const auto& tc = kTowerConsts;
    Fp6 a{c0.c0.conjugate(), c0.c1.conjugate() * tc.gamma_p3[2],
          c0.c2.conjugate() * tc.gamma_p3[4]};
    Fp6 b{c1.c0.conjugate() * tc.gamma_p3[1], c1.c1.conjugate() * tc.gamma_p3[3],
          c1.c2.conjugate() * tc.gamma_p3[5]};
    return {a, b};
  }

  /// Textbook LSB-first square-and-multiply with generic squarings, valid
  /// on any Fp12 element: the differential oracle for every GT
  /// exponentiation (cyclotomic_pow_u256, multi_pow, GtComb).
  Fp12 pow_u256(const U256& e) const {
    Fp12 result = one();
    Fp12 base = *this;
    unsigned n = e.bit_length();
    for (unsigned i = 0; i < n; ++i) {
      if (e.bit(i)) result *= base;
      base = base.square();
    }
    return result;
  }

  friend bool operator==(const Fp12& a, const Fp12& b) = default;
};

/// Lim–Lee fixed-base comb (CRYPTO 1994) over one GT element g: the 256
/// exponent bits form kRows rows of kCols bits, and table[j] holds
/// prod_{i : bit i of j} g^{2^{kCols * i}}. A power then reads one entry
/// per column, MSB column first: kCols - 1 cyclotomic squarings and at most
/// kCols multiplies, against ~254 squarings for a ladder. 256 entries,
/// 98,304 B; the build costs 224 squarings and 247 multiplies.
class GtComb {
 public:
  static constexpr unsigned kRows = 8;
  static constexpr unsigned kCols = 32;

  GtComb() = default;
  /// g must lie in the cyclotomic subgroup (every GT element qualifies).
  explicit GtComb(const Fp12& g);

  /// g^e, the same field element as g.pow_u256(e). Requires !empty().
  Fp12 pow(const U256& e) const;
  bool empty() const { return table_.empty(); }
  std::size_t bytes() const { return table_.size() * sizeof(Fp12); }

 private:
  std::vector<Fp12> table_;  // 2^kRows entries; table_[0] = 1
};

}  // namespace dsaudit::ff
