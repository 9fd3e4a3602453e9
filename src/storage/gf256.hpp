// GF(2^8) arithmetic with log/antilog tables (polynomial x^8+x^4+x^3+x^2+1,
// generator 2) — the little field underneath Reed–Solomon erasure coding.
// The tables are compile-time constants (gf256.cpp).
#pragma once

#include <cstdint>

namespace dsaudit::storage {

class Gf256 {
 public:
  static std::uint8_t add(std::uint8_t a, std::uint8_t b) { return a ^ b; }
  static std::uint8_t sub(std::uint8_t a, std::uint8_t b) { return a ^ b; }
  static std::uint8_t mul(std::uint8_t a, std::uint8_t b);
  static std::uint8_t div(std::uint8_t a, std::uint8_t b);  // throws on b == 0
  static std::uint8_t inv(std::uint8_t a);                  // throws on a == 0
  static std::uint8_t pow(std::uint8_t base, unsigned e);
};

}  // namespace dsaudit::storage
