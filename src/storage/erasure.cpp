#include "storage/erasure.hpp"

#include <stdexcept>

#include "storage/gf256.hpp"

namespace dsaudit::storage {

namespace {

using Matrix = std::vector<std::vector<std::uint8_t>>;

}  // namespace

ReedSolomon::Matrix ReedSolomon::invert(Matrix m) {
  std::size_t n = m.size();
  Matrix inv(n, std::vector<std::uint8_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) inv[i][i] = 1;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && m[pivot][col] == 0) ++pivot;
    if (pivot == n) throw std::domain_error("ReedSolomon: singular matrix");
    std::swap(m[pivot], m[col]);
    std::swap(inv[pivot], inv[col]);
    std::uint8_t piv_inv = Gf256::inv(m[col][col]);
    for (std::size_t j = 0; j < n; ++j) {
      m[col][j] = Gf256::mul(m[col][j], piv_inv);
      inv[col][j] = Gf256::mul(inv[col][j], piv_inv);
    }
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || m[row][col] == 0) continue;
      std::uint8_t f = m[row][col];
      for (std::size_t j = 0; j < n; ++j) {
        m[row][j] ^= Gf256::mul(f, m[col][j]);
        inv[row][j] ^= Gf256::mul(f, inv[col][j]);
      }
    }
  }
  return inv;
}

ReedSolomon::ReedSolomon(std::size_t data_shards, std::size_t parity_shards)
    : k_(data_shards), m_(parity_shards) {
  if (k_ == 0) throw std::invalid_argument("ReedSolomon: need >= 1 data shard");
  if (k_ + m_ > 255) throw std::invalid_argument("ReedSolomon: k+m must be <= 255");
  // Systematic encoding matrix [I ; C] with C a Cauchy block:
  // C[i][j] = 1 / (x_i + y_j) with all x_i, y_j distinct. Every square
  // submatrix of a Cauchy matrix is nonsingular, and mixing identity rows
  // only shrinks the Cauchy minor, so ANY k of the k+m rows are invertible
  // (this guarantee is why Cauchy, not Vandermonde-derived, matrices are
  // used for systematic RS).
  encode_matrix_.assign(k_ + m_, std::vector<std::uint8_t>(k_, 0));
  for (std::size_t i = 0; i < k_; ++i) encode_matrix_[i][i] = 1;
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < k_; ++j) {
      auto x = static_cast<std::uint8_t>(k_ + i);
      auto y = static_cast<std::uint8_t>(j);
      encode_matrix_[k_ + i][j] = Gf256::inv(static_cast<std::uint8_t>(x ^ y));
    }
  }
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::encode(
    std::span<const std::uint8_t> data) const {
  std::size_t shard_len = (data.size() + k_ - 1) / k_;
  if (shard_len == 0) shard_len = 1;
  std::vector<std::vector<std::uint8_t>> shards(
      k_ + m_, std::vector<std::uint8_t>(shard_len, 0));
  for (std::size_t i = 0; i < data.size(); ++i) {
    shards[i / shard_len][i % shard_len] = data[i];
  }
  for (std::size_t r = k_; r < k_ + m_; ++r) {
    for (std::size_t c = 0; c < k_; ++c) {
      std::uint8_t coeff = encode_matrix_[r][c];
      if (coeff == 0) continue;
      for (std::size_t b = 0; b < shard_len; ++b) {
        shards[r][b] ^= Gf256::mul(coeff, shards[c][b]);
      }
    }
  }
  return shards;
}

std::optional<std::vector<std::uint8_t>> ReedSolomon::reconstruct(
    const std::vector<std::optional<std::vector<std::uint8_t>>>& shards,
    std::size_t original_size) const {
  if (shards.size() != k_ + m_) {
    throw std::invalid_argument("ReedSolomon::reconstruct: wrong shard count");
  }
  // Collect the first k present shards and the matching encode-matrix rows.
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < shards.size() && rows.size() < k_; ++i) {
    if (shards[i].has_value()) rows.push_back(i);
  }
  if (rows.size() < k_) return std::nullopt;
  std::size_t shard_len = shards[rows[0]]->size();
  for (auto r : rows) {
    if (shards[r]->size() != shard_len) {
      throw std::invalid_argument("ReedSolomon::reconstruct: ragged shards");
    }
  }
  Matrix sub(k_, std::vector<std::uint8_t>(k_));
  for (std::size_t i = 0; i < k_; ++i) sub[i] = encode_matrix_[rows[i]];
  Matrix dec = invert(std::move(sub));
  // data_shard[c] = sum_i dec[c][i] * received[i]
  std::vector<std::uint8_t> out(k_ * shard_len, 0);
  for (std::size_t c = 0; c < k_; ++c) {
    for (std::size_t i = 0; i < k_; ++i) {
      std::uint8_t coeff = dec[c][i];
      if (coeff == 0) continue;
      const auto& src = *shards[rows[i]];
      for (std::size_t b = 0; b < shard_len; ++b) {
        out[c * shard_len + b] ^= Gf256::mul(coeff, src[b]);
      }
    }
  }
  if (original_size > out.size()) {
    throw std::invalid_argument("ReedSolomon::reconstruct: size too large");
  }
  out.resize(original_size);
  return out;
}

}  // namespace dsaudit::storage
