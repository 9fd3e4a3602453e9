// Montgomery's batch-inversion trick: invert n field elements with a single
// field inversion plus 3(n-1) multiplications. One inversion costs ~100
// multiplications at BN254 size, so this turns point-set normalization
// (Jacobian -> affine) from "n inversions" into "essentially free".
//
// Works for any field type with zero-semantics matching PrimeField: one(),
// is_zero(), inverse() (returning zero for zero), operator*.
#pragma once

#include <span>
#include <vector>

namespace dsaudit::ff {

/// In-place: xs[i] <- xs[i]^{-1} for every non-zero entry; zero entries are
/// left as zero (the PrimeField::inverse() convention).
template <typename F>
void batch_inverse(std::span<F> xs) {
  if (xs.empty()) return;
  // prefix[i] = product of the non-zero elements before index i.
  std::vector<F> prefix(xs.size());
  F run = F::one();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    prefix[i] = run;
    if (!xs[i].is_zero()) run = run * xs[i];
  }
  F inv = run.inverse();
  for (std::size_t i = xs.size(); i-- > 0;) {
    if (xs[i].is_zero()) continue;
    F xi = xs[i];
    xs[i] = inv * prefix[i];
    inv = inv * xi;
  }
}

template <typename F>
void batch_inverse(std::vector<F>& xs) {
  batch_inverse(std::span<F>(xs));
}

}  // namespace dsaudit::ff
