// Quadratic extension Fp12 = Fp6[w]/(w^2 - v). Target group GT of the
// pairing lives in the order-r cyclotomic subgroup of Fp12*.
//
// Frobenius maps use the constants gamma_k = xi^{k(p-1)/6} in Fp2, derived
// once at init (see tower_consts.cpp) rather than hard-coded.
#pragma once

#include <span>

#include "field/fp6.hpp"

namespace dsaudit::ff {

/// gamma_k = xi^{k(p-1)/6} for k = 0..5 (gamma[0] = 1), plus the Fp-valued
/// constants for the squared Frobenius used by the G2 endomorphism.
struct TowerConsts {
  std::array<Fp2, 6> gamma;     // for Frobenius on Fp12/Fp6
  std::array<Fp2, 6> gamma_p2;  // xi^{k(p^2-1)/6}: direct p^2-Frobenius
  std::array<Fp2, 6> gamma_p3;  // xi^{k(p^3-1)/6}: direct p^3-Frobenius
  Fp2 twist_frob_x;             // gamma[2]: x-coeff of untwist-Frobenius-twist
  Fp2 twist_frob_y;             // gamma[3]: y-coeff
  Fp2 twist_frob2_x;            // xi^{(p^2-1)/3}
  Fp2 twist_frob2_y;            // xi^{(p^2-1)/2}
};
const TowerConsts& tower_consts();

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

  /// GT exponentiation by an arbitrary 256-bit integer: LSB-first
  /// square-and-multiply with cyclotomic squarings. The one single-base GT
  /// ladder (final exponentiation, subgroup check, the prover's R) and the
  /// differential oracle for multi_pow. Only valid on elements of the
  /// cyclotomic subgroup (every GT element qualifies).
  Fp12 cyclotomic_pow_u256(const U256& e) const {
    Fp12 result = one();
    Fp12 base = *this;
    unsigned n = e.bit_length();
    for (unsigned i = 0; i < n; ++i) {
      if (e.bit(i)) result *= base;
      base = base.cyclotomic_square();
    }
    return result;
  }

  /// GT multi-exponentiation: prod_i bases[i]^{exps[i]} with ONE shared
  /// cyclotomic squaring chain for the whole batch (Straus interleaving —
  /// the same shared-doubling idea as the Pippenger MSM, in multiplicative
  /// notation). Per base: a small table of window powers plus one table
  /// multiply per nonzero digit; per batch: max_bits squarings total,
  /// instead of max_bits *per element*. The window width is chosen at
  /// runtime from (n, max_bits) by a deterministic cost model; the shared
  /// chain uses Granger–Scott cyclotomic squarings. Same contract as every cyclotomic_*: inputs must lie in the cyclotomic
  /// subgroup (every GT element qualifies). The per-element
  /// cyclotomic_pow_u256 ladder is retained as the differential oracle.
  /// Throws std::invalid_argument on bases/exps length mismatch.
  ///
  /// The tables are signed-digit: window digits run in [-2^{w-1}, 2^{w-1}]
  /// with a carry, so each base stores only the powers 1..2^{w-1} — half the
  /// unsigned table and its cache pressure — and negative digits multiply by
  /// the conjugate, which inverts for free on the unit-norm cyclotomic
  /// subgroup.
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
    const auto& tc = tower_consts();
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
    const auto& tc = tower_consts();
    Fp6 a{c0.c0, c0.c1 * tc.gamma_p2[2], c0.c2 * tc.gamma_p2[4]};
    Fp6 b{c1.c0 * tc.gamma_p2[1], c1.c1 * tc.gamma_p2[3],
          c1.c2 * tc.gamma_p2[5]};
    return {a, b};
  }

  /// p^3-power Frobenius (conjugate coefficients, gamma_p3 scaling).
  Fp12 frobenius3() const {
    const auto& tc = tower_consts();
    Fp6 a{c0.c0.conjugate(), c0.c1.conjugate() * tc.gamma_p3[2],
          c0.c2.conjugate() * tc.gamma_p3[4]};
    Fp6 b{c1.c0.conjugate() * tc.gamma_p3[1], c1.c1.conjugate() * tc.gamma_p3[3],
          c1.c2.conjugate() * tc.gamma_p3[5]};
    return {a, b};
  }

  Fp12 frobenius_pow(int n) const {
    int m = n % 12;
    if (m < 0) m += 12;
    Fp12 r = *this;
    for (; m >= 3; m -= 3) r = r.frobenius3();
    if (m == 2) return r.frobenius2();
    if (m == 1) return r.frobenius();
    return r;
  }

  /// Exponentiation by the |t| BN parameter (used by the fast final
  /// exponentiation) or any u64.
  Fp12 pow_u64(u64 e) const {
    Fp12 result = one();
    Fp12 base = *this;
    while (e != 0) {
      if (e & 1) result *= base;
      base = base.square();
      e >>= 1;
    }
    return result;
  }

  /// Exponentiation by a canonical Fr scalar (for GT^z in the sigma layer).
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

}  // namespace dsaudit::ff
