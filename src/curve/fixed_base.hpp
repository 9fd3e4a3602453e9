// Fixed-base G1 scalar multiplication via precomputed window tables.
//
// For a base point B fixed for the lifetime of its owner (the G1 generator,
// an audit key's SRS powers), store multiples of B at every w-bit window
// position, batch-normalized to affine. A scalar multiplication is then one
// mixed addition per nonzero window digit and *zero* doublings. keygen's SRS
// powers, the verifiers' generator multiplications and the audit prover's
// psi all sit on this.
//
// k GLV-splits into k1 + k2 * lambda with |k1|, |k2| < 2^127
// (glv_decompose), and each half is recoded into signed w-bit digits in
// [-(2^{w-1} - 1), 2^{w-1}] (bigint::signed_window_digits). The table holds
// d * 2^{wt} * B for d = 1..2^{w-1} over ceil(128/w) window positions t; both
// halves read the same entries, the k2 half through phi (one Fp
// multiplication per lookup), and a negative digit negates y. At w = 8 that
// is 2,048 points (147 KB) and at most 32 mixed additions. G2 has no
// endomorphism and no table: its generator multiplications (two per keygen)
// run Point::mul.
#pragma once

#include <array>

#include "curve/point.hpp"

namespace dsaudit::curve {

template <typename P>
class FixedBaseTable {
  static_assert(HasEndomorphism<typename P::TagType>,
                "FixedBaseTable: the table is GLV-split (G1 only)");

 public:
  using Affine = typename P::Affine;

  /// Builds the table: one group addition per point, all normalized to
  /// affine with a single inversion.
  explicit FixedBaseTable(const P& base, unsigned width = 8) : width_(width) {
    if (width_ == 0 || width_ > 16) {
      throw std::invalid_argument("FixedBaseTable: width out of range");
    }
    // A half below 2^127 recodes into signed digits with no carry out of
    // bit 128: the carry into a window is set only when the low bits exceed
    // sum_t 2^{w-1} 2^{wt} >= 2^{W-1} over W covered bits, and
    // k < 2^127 <= 2^{W-1} once W >= 128. So ceil(128/w) windows suffice.
    windows_ = (kGlvHalfBits + 1 + width_ - 1) / width_;
    per_window_ = std::size_t{1} << (width_ - 1);
    std::vector<P> jac;
    jac.reserve(windows_ * per_window_);
    P window_base = base;  // 2^{width*t} * B
    for (unsigned t = 0; t < windows_; ++t) {
      P acc = window_base;
      for (std::size_t d = 1; d <= per_window_; ++d) {
        jac.push_back(acc);  // acc == d * window_base
        acc += window_base;
      }
      window_base = jac.back().dbl();  // 2 * 2^{w-1} = 2^w multiples
    }
    table_ = P::batch_to_affine(jac);
  }

  /// acc += k * base. k must be canonical (< r), as glv_decompose
  /// requires; an Fr always is.
  void add_mul(P& acc, const U256& k) const {
    const GlvDecomposed dec = glv_decompose(k);
    add_half(acc, dec.k1, dec.neg1, false);
    add_half(acc, dec.k2, dec.neg2, true);
  }
  void add_mul(P& acc, const Fr& k) const { add_mul(acc, k.to_u256()); }

  /// k * base.
  P mul(const U256& k) const {
    P acc = P::infinity();
    add_mul(acc, k);
    return acc;
  }
  P mul(const Fr& k) const { return mul(k.to_u256()); }

  unsigned width() const { return width_; }
  /// Memory held by the precomputed points.
  std::size_t bytes() const { return table_.size() * sizeof(Affine); }

 private:
  /// acc += (neg ? -h : h) * (endo ? phi(B) : B) for one GLV half h < 2^127.
  void add_half(P& acc, const U256& h, bool neg, bool endo) const {
    std::array<std::int32_t, kGlvHalfBits + 1> digits;  // windows_ at w = 1
    const unsigned used = bigint::signed_window_digits(h, width_, windows_,
                                                       neg, digits.data());
    for (unsigned t = 0; t < used; ++t) {
      const std::int32_t d = digits[t];
      if (d == 0) continue;
      Affine a = table_[t * per_window_ + (d > 0 ? d : -d) - 1];
      if (endo) a = detail::endo_affine(a);
      acc = acc.mixed_add(d < 0 ? -a : a);
    }
  }

  unsigned width_;
  unsigned windows_;
  std::size_t per_window_;
  std::vector<Affine> table_;
};

}  // namespace dsaudit::curve
