// Arbitrary-precision unsigned integers for the tests' reference oracles.
//
// The library computes every BN254 constant with fixed-width U256 code, most
// of it at compile time. The tests re-derive those constants independently:
// exponents such as (p^12 - 1)/r or xi^((p^k - 1)/6), the moduli from the BN
// parameter t, the GLV basis. This small bignum class and pow_var are what
// they derive them with. Test-only: nothing under src/ links it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bigint/u256.hpp"

namespace dsaudit::bigint {

/// Little-endian dynamically sized unsigned integer. Normalized: no trailing
/// zero limbs (zero is represented by an empty limb vector).
class VarUInt {
 public:
  VarUInt() = default;
  explicit VarUInt(u64 v);
  explicit VarUInt(const U256& v);

  static VarUInt from_dec(const std::string& dec);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  unsigned bit_length() const;
  bool bit(unsigned i) const;
  u64 limb(std::size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }

  /// Truncate to the low 256 bits. Throws std::overflow_error if the value
  /// does not fit.
  U256 to_u256() const;
  std::string to_dec() const;

  friend VarUInt operator+(const VarUInt& a, const VarUInt& b);
  /// Requires a >= b; throws std::underflow_error otherwise.
  friend VarUInt operator-(const VarUInt& a, const VarUInt& b);
  friend VarUInt operator*(const VarUInt& a, const VarUInt& b);
  friend bool operator==(const VarUInt& a, const VarUInt& b) = default;

  static int cmp(const VarUInt& a, const VarUInt& b);

  VarUInt shl(unsigned bits) const;
  VarUInt shr(unsigned bits) const;

  /// Quotient and remainder by binary long division.
  /// Returns {quotient, remainder}.
  static std::pair<VarUInt, VarUInt> divmod(const VarUInt& a, const VarUInt& b);

  static VarUInt pow(const VarUInt& base, unsigned exp);

 private:
  void normalize();
  std::vector<u64> limbs_;
};

/// base^e by square-and-multiply, for any multiplicative element type (needs
/// one(), operator*, square()).
template <typename F>
F pow_var(const F& base, const VarUInt& e) {
  F result = F::one();
  F b = base;
  unsigned n = e.bit_length();
  for (unsigned i = 0; i < n; ++i) {
    if (e.bit(i)) result = result * b;
    b = b.square();
  }
  return result;
}

}  // namespace dsaudit::bigint
