// Fixed-base scalar multiplication via precomputed window tables.
//
// For a base point B fixed for the lifetime of its owner (the G1/G2
// generators, an audit key's SRS powers), store multiples of B at every
// w-bit window position, batch-normalized to affine. A scalar multiplication
// is then one mixed addition per nonzero window digit and *zero* doublings.
// keygen's SRS powers, the verifiers' generator multiplications and the
// audit prover's psi all sit on this.
//
// Two layouts, picked by the group:
//   - G1 (HasEndomorphism): k GLV-splits into k1 + k2 * lambda with
//     |k1|, |k2| < 2^127 (glv_decompose), and each half is recoded into
//     signed w-bit digits in [-2^{w-1}, 2^{w-1}] (Brickell-Gordon-McCurley-
//     Wilson, EUROCRYPT 1992). The table holds d * 2^{wt} * B for
//     d = 1..2^{w-1} over ceil(128/w) window positions t; both halves read
//     the same entries, the k2 half through phi (one Fp multiplication per
//     lookup), and a negative digit negates y. At w = 8 that is 2,048
//     points (147 KB) and at most 32 mixed additions.
//   - G2 (no endomorphism): unsigned w-bit digits over all 256 bits,
//     d * 2^{wt} * B for d = 1..2^w - 1 — ceil(256/w) additions, ~0.5 MB at
//     w = 8, so any 256-bit integer works.
#pragma once

#include "curve/point.hpp"

namespace dsaudit::curve {

template <typename P>
class FixedBaseTable {
 public:
  using Affine = typename P::Affine;
  static constexpr bool kGlv = HasEndomorphism<typename P::TagType>;

  /// Builds the table: one group addition per point, all normalized to
  /// affine with a single inversion.
  explicit FixedBaseTable(const P& base, unsigned width = 8) : width_(width) {
    if (width_ == 0 || width_ > 16) {
      throw std::invalid_argument("FixedBaseTable: width out of range");
    }
    if constexpr (kGlv) {
      // A half below 2^127 recodes into signed digits with no carry out of
      // bit 128: the carry into a window is set only when the low bits
      // exceed sum_t 2^{w-1} 2^{wt} >= 2^{W-1} over W covered bits, and
      // k < 2^127 <= 2^{W-1} once W >= 128. So ceil(128/w) windows suffice.
      windows_ = (kGlvHalfBits + 1 + width_ - 1) / width_;
      per_window_ = std::size_t{1} << (width_ - 1);
    } else {
      // Cover all 256 scalar bits so any canonical U256 is valid, even
      // though Fr scalars stop at 254 — the top windows just stay unused.
      windows_ = (256 + width_ - 1) / width_;
      per_window_ = (std::size_t{1} << width_) - 1;
    }
    std::vector<P> jac;
    jac.reserve(windows_ * per_window_);
    P window_base = base;  // 2^{width*t} * B
    for (unsigned t = 0; t < windows_; ++t) {
      P acc = window_base;
      for (std::size_t d = 1; d <= per_window_; ++d) {
        jac.push_back(acc);  // acc == d * window_base
        acc += window_base;
      }
      // (2^width) * window_base: the loop ran one step past the top digit
      // on G2 (2^w - 1 + 1); on G1 the top digit 2^{w-1} doubles.
      window_base = kGlv ? jac.back().dbl() : acc;
    }
    table_ = P::batch_to_affine(jac);
  }

  /// acc += k * base. On G1, k must be canonical (< r), as glv_decompose
  /// requires; an Fr always is.
  void add_mul(P& acc, const U256& k) const {
    if constexpr (kGlv) {
      const GlvDecomposed dec = glv_decompose(k);
      add_half(acc, dec.k1, dec.neg1, false);
      add_half(acc, dec.k2, dec.neg2, true);
    } else {
      for (unsigned t = 0; t < windows_; ++t) {
        bigint::u64 d = k.extract_window(t * width_, width_);
        if (d != 0) acc = acc.mixed_add(table_[t * per_window_ + d - 1]);
      }
    }
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
  /// acc += (neg ? -h : h) * (endo ? phi(B) : B) for one GLV half h < 2^127,
  /// recoded on the fly: a window value above 2^{w-1} becomes value - 2^w
  /// and carries one into the next window.
  void add_half(P& acc, const U256& h, bool neg, bool endo) const {
    const unsigned half = 1u << (width_ - 1);
    unsigned carry = 0;
    for (unsigned t = 0; t < windows_; ++t) {
      unsigned v =
          static_cast<unsigned>(h.extract_window(t * width_, width_)) + carry;
      carry = v > half;
      if (carry) v = (1u << width_) - v;  // digit -(2^w - v)
      if (v == 0) continue;
      Affine a = table_[t * per_window_ + v - 1];
      if (endo) a = detail::endo_affine(a);
      acc = acc.mixed_add(carry != neg ? -a : a);
    }
  }

  unsigned width_;
  unsigned windows_;
  std::size_t per_window_;
  std::vector<Affine> table_;
};

}  // namespace dsaudit::curve
