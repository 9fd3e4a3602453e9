#include "field/fp.hpp"

#include <stdexcept>

namespace dsaudit::ff {

const char* const kFpModulusHex =
    "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47";
const char* const kFrModulusHex =
    "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001";

MontParams make_mont_params(const U256& modulus) {
  if (!modulus.is_odd()) throw std::invalid_argument("make_mont_params: even modulus");
  if (modulus.limb[3] >= (u64{1} << 62)) {
    throw std::invalid_argument("make_mont_params: modulus top limb >= 2^62");
  }
  MontParams P;
  P.has_fast_sqrt = (modulus.limb[0] & 3) == 3;
  P.modulus = modulus;
  VarUInt m{modulus};
  VarUInt r = VarUInt{1}.shl(256);
  P.r_mod = VarUInt::divmod(r, m).second.to_u256();
  P.r2_mod = VarUInt::divmod(r * r, m).second.to_u256();
  P.r3_mod = VarUInt::divmod(r * r * r, m).second.to_u256();
  P.n0_inv = bigint::mont_n0_inv(modulus);
  U256 one{1};
  bigint::sub_with_borrow(modulus, one, P.p_minus_2);
  bigint::sub_with_borrow(P.p_minus_2, one, P.p_minus_2);
  // (p-1)/2 and (p+1)/4: p odd, p ≡ 3 mod 4 checked above.
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

const MontParams& FpTag::params() {
  static const MontParams P = make_mont_params(U256::from_hex(kFpModulusHex));
  return P;
}

const MontParams& FrTag::params() {
  static const MontParams P = make_mont_params(U256::from_hex(kFrModulusHex));
  return P;
}

}  // namespace dsaudit::ff
