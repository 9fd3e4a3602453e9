#include "support/varuint.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsaudit::bigint {

VarUInt::VarUInt(u64 v) {
  if (v != 0) limbs_.push_back(v);
}

VarUInt::VarUInt(const U256& v) {
  limbs_.assign(v.limb.begin(), v.limb.end());
  normalize();
}

VarUInt VarUInt::from_dec(const std::string& dec) {
  VarUInt r;
  for (char c : dec) {
    if (c < '0' || c > '9') throw std::invalid_argument("VarUInt::from_dec: bad digit");
    r = r * VarUInt{10} + VarUInt{static_cast<u64>(c - '0')};
  }
  return r;
}

void VarUInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

unsigned VarUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return static_cast<unsigned>(64 * (limbs_.size() - 1) + 64 -
                               __builtin_clzll(limbs_.back()));
}

bool VarUInt::bit(unsigned i) const {
  std::size_t w = i / 64;
  if (w >= limbs_.size()) return false;
  return (limbs_[w] >> (i % 64)) & 1;
}

U256 VarUInt::to_u256() const {
  if (limbs_.size() > 4) throw std::overflow_error("VarUInt::to_u256: too large");
  U256 r;
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limb[i] = limbs_[i];
  return r;
}

std::string VarUInt::to_dec() const {
  if (is_zero()) return "0";
  VarUInt v = *this;
  VarUInt ten{10};
  std::string s;
  while (!v.is_zero()) {
    auto [q, r] = divmod(v, ten);
    s.push_back(static_cast<char>('0' + (r.is_zero() ? 0 : r.limbs_[0])));
    v = q;
  }
  std::reverse(s.begin(), s.end());
  return s;
}

int VarUInt::cmp(const VarUInt& a, const VarUInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

VarUInt operator+(const VarUInt& a, const VarUInt& b) {
  VarUInt r;
  std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  r.limbs_.resize(n);
  u128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 v = carry + a.limb(i) + b.limb(i);
    r.limbs_[i] = static_cast<u64>(v);
    carry = v >> 64;
  }
  if (carry) r.limbs_.push_back(static_cast<u64>(carry));
  r.normalize();
  return r;
}

VarUInt operator-(const VarUInt& a, const VarUInt& b) {
  if (VarUInt::cmp(a, b) < 0) throw std::underflow_error("VarUInt: negative result");
  VarUInt r;
  r.limbs_.resize(a.limbs_.size());
  u128 borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u128 v = static_cast<u128>(a.limb(i)) - b.limb(i) - borrow;
    r.limbs_[i] = static_cast<u64>(v);
    borrow = (v >> 64) & 1;
  }
  r.normalize();
  return r;
}

VarUInt operator*(const VarUInt& a, const VarUInt& b) {
  if (a.is_zero() || b.is_zero()) return {};
  VarUInt r;
  r.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u128 carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 v = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] + r.limbs_[i + j] + carry;
      r.limbs_[i + j] = static_cast<u64>(v);
      carry = v >> 64;
    }
    r.limbs_[i + b.limbs_.size()] += static_cast<u64>(carry);
  }
  r.normalize();
  return r;
}

VarUInt VarUInt::shl(unsigned bits) const {
  if (is_zero()) return {};
  unsigned words = bits / 64, rem = bits % 64;
  VarUInt r;
  r.limbs_.assign(limbs_.size() + words + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    r.limbs_[i + words] |= rem ? (limbs_[i] << rem) : limbs_[i];
    if (rem) r.limbs_[i + words + 1] |= limbs_[i] >> (64 - rem);
  }
  r.normalize();
  return r;
}

VarUInt VarUInt::shr(unsigned bits) const {
  unsigned words = bits / 64, rem = bits % 64;
  if (words >= limbs_.size()) return {};
  VarUInt r;
  r.limbs_.assign(limbs_.size() - words, 0);
  for (std::size_t i = 0; i < r.limbs_.size(); ++i) {
    r.limbs_[i] = rem ? (limbs_[i + words] >> rem) : limbs_[i + words];
    if (rem && i + words + 1 < limbs_.size()) {
      r.limbs_[i] |= limbs_[i + words + 1] << (64 - rem);
    }
  }
  r.normalize();
  return r;
}

std::pair<VarUInt, VarUInt> VarUInt::divmod(const VarUInt& a, const VarUInt& b) {
  if (b.is_zero()) throw std::domain_error("VarUInt::divmod: division by zero");
  if (cmp(a, b) < 0) return {{}, a};
  unsigned shift = a.bit_length() - b.bit_length();
  VarUInt rem = a;
  VarUInt quot;
  quot.limbs_.assign(shift / 64 + 1, 0);
  VarUInt d = b.shl(shift);
  for (int i = static_cast<int>(shift); i >= 0; --i) {
    if (cmp(rem, d) >= 0) {
      rem = rem - d;
      quot.limbs_[i / 64] |= 1ULL << (i % 64);
    }
    d = d.shr(1);
  }
  quot.normalize();
  return {quot, rem};
}

VarUInt VarUInt::pow(const VarUInt& base, unsigned exp) {
  VarUInt r{1};
  for (unsigned i = 0; i < exp; ++i) r = r * base;
  return r;
}

}  // namespace dsaudit::bigint
