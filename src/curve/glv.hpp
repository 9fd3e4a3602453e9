// GLV endomorphism scalar decomposition for BN254's G1.
//
// BN254 has j-invariant 0, so E(Fp) : y^2 = x^3 + 3 carries the efficient
// endomorphism phi(x, y) = (beta * x, y) with beta a primitive cube root of
// unity in Fp. On G1 (prime order r, cofactor 1) phi acts as multiplication
// by lambda, the cube root of unity mod r picked out by the curve:
//
//   lambda = 36 t^3 + 18 t^2 + 6 t + 1,   lambda^2 + lambda + 1 = 0 (mod r)
//
// with t the BN parameterization constant (ff::kBnParamT). Every scalar
// k < r then splits as k = k1 + k2 * lambda (mod r) with |k1|, |k2| < 2^127,
// so k * P = k1 * P + k2 * phi(P) runs half the doubling chain of a direct
// 254-bit ladder (Gallant-Lambert-Vanstone, CRYPTO 2001).
//
// The split is Babai rounding against an explicit short basis of the lattice
// L = {(x, y) : x + y*lambda = 0 (mod r)}, derived from the same
// t-parameterization (test_curve's Params.Bn254SelfCheck re-derives it):
//
//   v1 = (6 t^2 + 4 t + 1,  2 t + 1)
//   v2 = (-(2 t + 1),       6 t^2 + 2 t)         det(v1, v2) = r exactly
//
// Writing (k, 0) = c1 v1 + c2 v2 over the rationals gives c1 = k(6t^2+2t)/r
// and c2 = -k(2t+1)/r; rounding c_i to integers m_i with the precomputed
// 2^256-scaled reciprocals g_i = floor(2^256 * b_i / r) (one widening
// mul-high each, total rounding error < 3/4) leaves the short remainder
// (k1, k2) = (k, 0) - m1 v1 - m2 v2 with both coordinates < 2^127 in
// magnitude — strictly, 3/4 * (6t^2 + 6t + 2) < 2^127.
//
// Every constant is a compile-time value: lambda and the basis come from
// ff::kBnParamT by constexpr Horner evaluation, g1, g2 and beta are literals,
// and the static_asserts below check the algebra the decomposition rests on.
// test_curve's Params.Bn254SelfCheck re-derives all of them over VarUInt,
// including the floor divisions behind g1 and g2 and the orientation of beta
// (phi(P) == [lambda] P on G1; the other cube root pairs with lambda^2).
#pragma once

#include <initializer_list>

#include "bigint/u256.hpp"
#include "field/fp.hpp"

namespace dsaudit::curve {

/// Upper bound (in bits) on the GLV half-scalar magnitudes; the
/// decomposition throws std::logic_error if a half ever exceeds it.
inline constexpr unsigned kGlvHalfBits = 127;

struct GlvParams {
  ff::Fp beta;        // phi(x, y) = (beta * x, y) acts as [lambda] on G1
  bigint::U256 lambda;  // canonical mod r
  bigint::U256 a1, b1, b2;  // v1 = (a1, b1), v2 = (-b1, b2)
  bigint::U256 g1, g2;      // floor(2^256 * b2 / r), floor(2^256 * b1 / r)
};

namespace detail {

/// c[0] t^n + ... + c[n] at t = kBnParamT by Horner's rule; exact, since
/// every polynomial here stays below 2^256.
constexpr bigint::U256 poly_in_t(std::initializer_list<bigint::u64> c) {
  bigint::U256 acc;
  for (bigint::u64 ci : c) {
    acc = bigint::mul_lo(acc, bigint::U256{ff::kBnParamT});
    bigint::add_with_carry(acc, bigint::U256{ci}, acc);
  }
  return acc;
}

}  // namespace detail

inline constexpr GlvParams kGlvParams{
    .beta = ff::Fp::from_u256(bigint::U256::from_hex(
        "0x59e26bcea0d48bacd4f263f1acdb5c4f5763473177fffffe")),
    .lambda = detail::poly_in_t({36, 18, 6, 1}),  // 36t^3 + 18t^2 + 6t + 1
    .a1 = detail::poly_in_t({6, 4, 1}),           // 6t^2 + 4t + 1
    .b1 = detail::poly_in_t({2, 1}),              // 2t + 1
    .b2 = detail::poly_in_t({6, 2, 0}),           // 6t^2 + 2t
    .g1 = bigint::U256::from_hex("0x24ccef014a773d2cf7a7bd9d4391eb18d"),
    .g2 = bigint::U256::from_hex("0x2d91d232ec7e0b3d7"),
};

// The algebra the split rests on, checked while compiling.
static_assert([] {
  using ff::Fp, ff::Fr;
  const GlvParams& gp = kGlvParams;
  const Fr l = Fr::from_u256(gp.lambda), a1 = Fr::from_u256(gp.a1),
           b1 = Fr::from_u256(gp.b1), b2 = Fr::from_u256(gp.b2);
  // a1, b1, b2 < 2^128, so a1*b2 + b1^2 is exact in 256 bits.
  bigint::U256 det = bigint::mul_lo(gp.a1, gp.b2);
  bigint::add_with_carry(det, bigint::mul_lo(gp.b1, gp.b1), det);
  return bigint::lt(gp.lambda, Fr::modulus()) &&
         (l * l + l + Fr::one()).is_zero() &&           // a cube root mod r
         (a1 + b1 * l).is_zero() && (b2 * l - b1).is_zero() &&  // v1, v2 in L
         gp.a1.limb[2] == 0 && gp.b2.limb[2] == 0 && det == Fr::modulus() &&
         (gp.beta * gp.beta * gp.beta - Fp::one()).is_zero() &&  // beta^3 = 1
         !(gp.beta - Fp::one()).is_zero();                       // beta != 1
}());

/// k = (neg1 ? -k1 : k1) + (neg2 ? -k2 : k2) * lambda (mod r), with the
/// magnitudes k1, k2 < 2^kGlvHalfBits. Requires k < r (canonical scalar).
struct GlvDecomposed {
  bigint::U256 k1, k2;
  bool neg1 = false, neg2 = false;
};

GlvDecomposed glv_decompose(const bigint::U256& k);

}  // namespace dsaudit::curve
