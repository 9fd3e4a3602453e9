// GT multi-exponentiation (Fp12::multi_pow): the shared-squaring engine the
// batched settlement uses to fold every private round's R^rho commitment in
// one pass. Out of line because the window tables want real code, not header
// inlining.
#include "field/fp12.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dsaudit::ff {

namespace {

/// Deterministic window-width choice in squaring-equivalent units (one
/// generic Fp12 multiply ~ 2 cyclotomic squarings): per base, building the
/// table costs `tsize - 1` multiplies and the scan multiplies once per
/// (worst case, every) window position; the shared chain pays w squarings
/// per position regardless of n. Signed digits keep the table at powers
/// 1..2^{w-1} (negatives are free conjugates). Depends only on (n, bits),
/// so the chosen width — and therefore the exact multiplication sequence —
/// is identical at every thread count and on every platform.
unsigned pick_window(std::size_t n, unsigned bits) {
  unsigned best_w = 1;
  std::uint64_t best_cost = ~std::uint64_t{0};
  for (unsigned w = 1; w <= 7; ++w) {
    const std::uint64_t positions = (bits + w - 1) / w;
    const std::uint64_t table = (std::uint64_t{1} << (w - 1)) - 1;
    const std::uint64_t mults = n * (table + positions);
    const std::uint64_t cost = 2 * mults + positions * w;
    if (cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

}  // namespace

Fp12 Fp12::multi_pow(std::span<const Fp12> bases, std::span<const U256> exps) {
  if (bases.size() != exps.size()) {
    throw std::invalid_argument("Fp12::multi_pow: bases/exps size mismatch");
  }
  const std::size_t n = bases.size();
  if (n == 0) return one();
  unsigned bits = 0;
  for (const U256& e : exps) bits = std::max(bits, e.bit_length());
  if (bits == 0) return one();

  const unsigned w = pick_window(n, bits);
  const std::uint64_t half = std::uint64_t{1} << (w - 1);
  const std::size_t tsize = half;
  // table[i * tsize + (d - 1)] = bases[i]^d for d = 1..2^{w-1}: half the
  // unsigned table — negative digits read the same entry and conjugate.
  std::vector<Fp12> table(n * tsize);
  for (std::size_t i = 0; i < n; ++i) {
    Fp12* row = table.data() + i * tsize;
    row[0] = bases[i];
    if (tsize >= 2) row[1] = bases[i].cyclotomic_square();
    for (std::size_t d = 3; d <= tsize; ++d) row[d - 1] = row[d - 2] * bases[i];
  }

  // Signed window digits in [-(2^{w-1} - 1), 2^{w-1}] with carry, extracted
  // position-major (the carry can push one position past bits/w).
  const unsigned positions = (bits + w - 1) / w + 1;
  std::vector<std::int8_t> digits(std::size_t{positions} * n);
  unsigned used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t carry = 0;
    for (unsigned pos = 0; pos < positions; ++pos) {
      std::uint64_t raw = exps[i].extract_window(pos * w, w) + carry;
      std::int8_t d;
      if (raw > half) {
        d = static_cast<std::int8_t>(static_cast<int>(raw) - (1 << w));
        carry = 1;
      } else {
        d = static_cast<std::int8_t>(raw);
        carry = 0;
      }
      digits[std::size_t{pos} * n + i] = d;
      if (d != 0 && pos + 1 > used) used = pos + 1;
    }
  }

  Fp12 acc = one();
  for (unsigned pos = used; pos-- > 0;) {
    if (pos + 1 != used) {
      for (unsigned s = 0; s < w; ++s) acc = acc.cyclotomic_square();
    }
    const std::int8_t* dp = digits.data() + std::size_t{pos} * n;
    for (std::size_t i = 0; i < n; ++i) {
      const int d = dp[i];
      if (d > 0) {
        acc *= table[i * tsize + d - 1];
      } else if (d < 0) {
        acc *= table[i * tsize + (-d) - 1].conjugate();
      }
    }
  }
  return acc;
}

}  // namespace dsaudit::ff
