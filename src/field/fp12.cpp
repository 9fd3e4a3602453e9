// GT exponentiation engines: Fp12::multi_pow (the shared-squaring
// multi-exponentiation behind the batched settlement's R^rho fold and, at
// n = 1, every single-base ladder) and the fixed-base GtComb behind the
// prover's R. Out of line because the window tables want real code, not
// header inlining.
#include "field/fp12.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace dsaudit::ff {

namespace {

/// acc *= x, where an accumulator still at one takes x by assignment.
void fold(Fp12& acc, bool& is_one, const Fp12& x) {
  if (is_one) {
    acc = x;
    is_one = false;
  } else {
    acc *= x;
  }
}

/// Deterministic Straus window width in squaring-equivalent units (one
/// generic Fp12 multiply ~ 2 cyclotomic squarings): per base, building the
/// table costs `2^{w-1} - 1` multiplies and the scan multiplies once per
/// (worst case, every) window position; the shared chain pays w squarings
/// per position regardless of n. Depends only on (n, bits), so the exact
/// multiplication sequence is identical on every platform.
unsigned straus_window(std::size_t n, unsigned bits) {
  unsigned best_w = 1;
  std::uint64_t best_cost = ~std::uint64_t{0};
  for (unsigned w = 1; w <= 7; ++w) {
    const std::uint64_t positions = (bits + w - 1) / w;
    const std::uint64_t table = (std::uint64_t{1} << (w - 1)) - 1;
    const std::uint64_t cost = 2 * n * (table + positions) + positions * w;
    if (cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

/// Straus: per base a table of its powers 1..2^{w-1}, one shared squaring
/// chain, one table multiply per nonzero digit.
Fp12 pow_straus(std::span<const Fp12> bases,
                const std::vector<std::int16_t>& digits, unsigned used,
                unsigned w) {
  const std::size_t n = bases.size();
  const std::size_t tsize = std::size_t{1} << (w - 1);
  // table[i * tsize + (d - 1)] = bases[i]^d for d = 1..2^{w-1}.
  std::vector<Fp12> table(n * tsize);
  for (std::size_t i = 0; i < n; ++i) {
    Fp12* row = table.data() + i * tsize;
    row[0] = bases[i];
    if (tsize >= 2) row[1] = bases[i].cyclotomic_square();
    for (std::size_t d = 3; d <= tsize; ++d) row[d - 1] = row[d - 2] * bases[i];
  }

  Fp12 acc = Fp12::one();
  bool is_one = true;
  for (unsigned pos = used; pos-- > 0;) {
    if (!is_one) {
      for (unsigned s = 0; s < w; ++s) acc = acc.cyclotomic_square();
    }
    const std::int16_t* dp = digits.data() + std::size_t{pos} * n;
    for (std::size_t i = 0; i < n; ++i) {
      const int d = dp[i];
      if (d > 0) {
        fold(acc, is_one, table[i * tsize + d - 1]);
      } else if (d < 0) {
        fold(acc, is_one, table[i * tsize + (-d) - 1].conjugate());
      }
    }
  }
  return acc;
}

/// Bucket window width, same units: per window, n bucket multiplies, about
/// 2 * 2^{c-1} for the running-product weighting, and c squarings.
unsigned bucket_window(std::size_t n, unsigned bits) {
  unsigned best_c = 2;
  std::uint64_t best_cost = ~std::uint64_t{0};
  for (unsigned c = 2; c <= 10; ++c) {
    const std::uint64_t windows = (bits + c - 1) / c;
    const std::uint64_t cost =
        windows * (2 * (n + (std::uint64_t{1} << c)) + c);
    if (cost < best_cost) {
      best_cost = cost;
      best_c = c;
    }
  }
  return best_c;
}

/// Pippenger's buckets in multiplicative notation: per window, top-down,
/// the accumulator squares c times, every base multiplies into the bucket
/// of its digit's magnitude (conjugated for a negative digit), and the
/// running product prod_{k >= j} B_k over j = 2^{c-1}..1 weights bucket k
/// by k.
Fp12 pow_buckets(std::span<const Fp12> bases,
                 const std::vector<std::int16_t>& digits, unsigned used,
                 unsigned c) {
  const std::size_t n = bases.size();
  const std::size_t nb = std::size_t{1} << (c - 1);
  std::vector<Fp12> bucket(nb);
  std::vector<char> filled(nb);

  Fp12 acc = Fp12::one();
  bool acc_one = true;
  for (unsigned pos = used; pos-- > 0;) {
    if (!acc_one) {
      for (unsigned s = 0; s < c; ++s) acc = acc.cyclotomic_square();
    }
    std::fill(filled.begin(), filled.end(), 0);
    const std::int16_t* dp = digits.data() + std::size_t{pos} * n;
    for (std::size_t i = 0; i < n; ++i) {
      const int d = dp[i];
      if (d == 0) continue;
      const std::size_t k = static_cast<std::size_t>(d > 0 ? d : -d) - 1;
      bool empty = !filled[k];
      fold(bucket[k], empty, d > 0 ? bases[i] : bases[i].conjugate());
      filled[k] = 1;
    }
    Fp12 running = Fp12::one();
    bool running_one = true;
    for (std::size_t k = nb; k-- > 0;) {
      if (filled[k]) fold(running, running_one, bucket[k]);
      if (!running_one) fold(acc, acc_one, running);
    }
  }
  return acc;
}

Fp12 pow_serial(std::span<const Fp12> bases, std::span<const U256> exps) {
  unsigned bits = 0;
  for (const U256& e : exps) bits = std::max(bits, e.bit_length());
  if (bits == 0) return Fp12::one();  // also the empty input
  const std::size_t n = bases.size();
  const bool straus = n <= kGtStrausMaxBases;
  const unsigned w = straus ? straus_window(n, bits) : bucket_window(n, bits);
  // Position-major signed digits (base i's digit at position pos is
  // digits[pos * n + i]); the carry can push one position past bits / w.
  const unsigned positions = (bits + w - 1) / w + 1;
  std::vector<std::int16_t> digits(std::size_t{positions} * n);
  unsigned used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    used = std::max(used, bigint::signed_window_digits(exps[i], w, positions,
                                                       false, &digits[i], n));
  }
  return straus ? pow_straus(bases, digits, used, w)
                : pow_buckets(bases, digits, used, w);
}

}  // namespace

Fp12 Fp12::multi_pow(std::span<const Fp12> bases, std::span<const U256> exps) {
  if (bases.size() != exps.size()) {
    throw std::invalid_argument("Fp12::multi_pow: bases/exps size mismatch");
  }
  const std::size_t n = bases.size();
  const std::size_t shards =
      n < 2 * kGtShardMinBases || parallel::in_worker()
          ? 1
          : std::min<std::size_t>(parallel::thread_count(),
                                  n / kGtShardMinBases);
  if (shards <= 1) return pow_serial(bases, exps);
  std::vector<Fp12> part(shards);
  parallel::parallel_for(shards, [&](std::size_t s) {
    const std::size_t lo = n * s / shards, hi = n * (s + 1) / shards;
    part[s] = pow_serial(bases.subspan(lo, hi - lo), exps.subspan(lo, hi - lo));
  });
  Fp12 acc = part[0];
  for (std::size_t s = 1; s < shards; ++s) acc *= part[s];
  return acc;
}

GtComb::GtComb(const Fp12& g) : table_(std::size_t{1} << kRows) {
  table_[0] = Fp12::one();
  table_[1] = g;
  for (unsigned i = 1; i < kRows; ++i) {
    Fp12 x = table_[std::size_t{1} << (i - 1)];
    for (unsigned s = 0; s < kCols; ++s) x = x.cyclotomic_square();
    table_[std::size_t{1} << i] = x;
  }
  for (std::size_t j = 3; j < table_.size(); ++j) {
    const std::size_t low = j & (~j + 1);
    if (low != j) table_[j] = table_[j - low] * table_[low];
  }
}

Fp12 GtComb::pow(const U256& e) const {
  Fp12 acc = Fp12::one();
  bool is_one = true;
  for (unsigned col = kCols; col-- > 0;) {
    if (!is_one) acc = acc.cyclotomic_square();
    std::size_t idx = 0;
    for (unsigned i = 0; i < kRows; ++i) {
      idx |= std::size_t{e.bit(i * kCols + col)} << i;
    }
    if (idx != 0) fold(acc, is_one, table_[idx]);
  }
  return acc;
}

}  // namespace dsaudit::ff
