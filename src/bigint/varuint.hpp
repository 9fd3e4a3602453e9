// Arbitrary-precision unsigned integers for init-time constant derivation.
//
// The pairing and tower-field code needs exponents such as (p^6 - 1)/2^e,
// (p^12 - 1)/r and xi^((p^k - 1)/6) at library-initialization time. Rather
// than hard-coding hundreds of magic limbs (easy to get silently wrong), we
// derive everything from the BN parameter t with this small bignum class and
// cross-check the curve constants. Not used on any hot path.
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

  /// Quotient and remainder by binary long division (init-time only).
  /// Returns {quotient, remainder}.
  static std::pair<VarUInt, VarUInt> divmod(const VarUInt& a, const VarUInt& b);

  static VarUInt pow(const VarUInt& base, unsigned exp);

 private:
  void normalize();
  std::vector<u64> limbs_;
};

}  // namespace dsaudit::bigint
