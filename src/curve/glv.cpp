// The GLV split itself (see glv.hpp for the math and the constants).
#include "curve/glv.hpp"

#include <stdexcept>

namespace dsaudit::curve {

using bigint::U256;

GlvDecomposed glv_decompose(const U256& k) {
  const GlvParams& gp = kGlvParams;
  // Babai rounding: m1 = round(k * b2 / r), m2 = round(k * b1 / r) — the
  // magnitudes of the rational coordinates c1 = k*b2/r, c2 = -k*b1/r.
  const U256 m1 = bigint::mul_high_rounded(k, gp.g1);
  const U256 m2 = bigint::mul_high_rounded(k, gp.g2);
  // (k1, k2) = (k, 0) - m1 * (a1, b1) - (-m2) * (-b1, b2), exact in two's
  // complement because the true results are < 2^127 in magnitude.
  U256 k1;
  bigint::sub_with_borrow(k, bigint::mul_lo(m1, gp.a1), k1);
  bigint::sub_with_borrow(k1, bigint::mul_lo(m2, gp.b1), k1);
  U256 k2;
  bigint::sub_with_borrow(bigint::mul_lo(m2, gp.b2), bigint::mul_lo(m1, gp.b1), k2);

  GlvDecomposed d;
  d.k1 = bigint::abs2c(k1, d.neg1);
  d.k2 = bigint::abs2c(k2, d.neg2);
  if (d.k1.bit_length() > kGlvHalfBits || d.k2.bit_length() > kGlvHalfBits) {
    throw std::logic_error("glv_decompose: half-scalar exceeds bound");
  }
  return d;
}

}  // namespace dsaudit::curve
