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
// This header depends only on the field layer; the runtime constants
// (including the beta root matched against the G1 generator) are derived
// once in glv.cpp and self-checked at init.
#pragma once

#include "bigint/u256.hpp"
#include "field/fp.hpp"

namespace dsaudit::curve {

/// Upper bound (in bits) on the GLV half-scalar magnitudes; the
/// decomposition throws std::logic_error if a half ever exceeds it.
inline constexpr unsigned kGlvHalfBits = 127;

/// Runtime GLV constants, derived from ff::kBnParamT and self-verified
/// (lambda root relation, lattice membership, determinant, beta/generator
/// eigenvalue match) — any mismatch throws at first use.
struct GlvParams {
  ff::Fp beta;        // phi(x, y) = (beta * x, y) acts as [lambda] on G1
  bigint::U256 lambda;  // canonical mod r
  bigint::U256 a1, b1, b2;  // v1 = (a1, b1), v2 = (-b1, b2)
  bigint::U256 g1, g2;      // floor(2^256 * b2 / r), floor(2^256 * b1 / r)
};

const GlvParams& glv_params();

/// k = (neg1 ? -k1 : k1) + (neg2 ? -k2 : k2) * lambda (mod r), with the
/// magnitudes k1, k2 < 2^kGlvHalfBits. Requires k < r (canonical scalar).
struct GlvDecomposed {
  bigint::U256 k1, k2;
  bool neg1 = false, neg2 = false;
};

GlvDecomposed glv_decompose(const bigint::U256& k);

}  // namespace dsaudit::curve
