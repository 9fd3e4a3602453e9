#include "storage/gf256.hpp"

#include <array>
#include <stdexcept>

namespace dsaudit::storage {

namespace {

struct Tables {
  std::array<std::uint8_t, 256> log;
  std::array<std::uint8_t, 512> exp;  // doubled to skip a mod 255
};

constexpr Tables kTables = [] {
  Tables t{};
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= 0x11d;
  }
  for (int i = 255; i < 512; ++i) t.exp[i] = t.exp[i - 255];
  t.log[0] = 0;  // unused sentinel
  return t;
}();

}  // namespace

std::uint8_t Gf256::mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = kTables;
  return t.exp[t.log[a] + t.log[b]];
}

std::uint8_t Gf256::div(std::uint8_t a, std::uint8_t b) {
  if (b == 0) throw std::domain_error("Gf256::div: division by zero");
  if (a == 0) return 0;
  const auto& t = kTables;
  return t.exp[t.log[a] + 255 - t.log[b]];
}

std::uint8_t Gf256::inv(std::uint8_t a) {
  if (a == 0) throw std::domain_error("Gf256::inv: zero");
  const auto& t = kTables;
  return t.exp[255 - t.log[a]];
}

std::uint8_t Gf256::pow(std::uint8_t base, unsigned e) {
  if (e == 0) return 1;
  if (base == 0) return 0;
  const auto& t = kTables;
  return t.exp[(static_cast<unsigned>(t.log[base]) * e) % 255];
}

}  // namespace dsaudit::storage
