// Systematic Reed–Solomon erasure coding over GF(2^8).
//
// §III-A: "erasure coding (parity blocks) is also required for data
// redundancy" and §VII-B prices a "3-out-of-10" style redundancy factor.
// Encoding is systematic (the first k shards are the data itself); any k of
// the k+m shards reconstruct the original.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace dsaudit::storage {

class ReedSolomon {
 public:
  /// k data shards, m parity shards; k >= 1, m >= 0, k + m <= 255.
  ReedSolomon(std::size_t data_shards, std::size_t parity_shards);

  std::size_t data_shards() const { return k_; }
  std::size_t parity_shards() const { return m_; }

  /// Split `data` into k data shards (zero-padded to equal length) and
  /// compute m parity shards. Returns k+m shards of equal size.
  std::vector<std::vector<std::uint8_t>> encode(
      std::span<const std::uint8_t> data) const;

  /// Reconstruct the original data from any subset of >= k shards, indexed
  /// by position: `shards[i]` is nullopt for a missing shard, and the vector
  /// must hold exactly k+m entries (std::invalid_argument otherwise, as for
  /// ragged shards). The first k present shards decode; `original_size`
  /// strips padding. Returns nullopt if fewer than k shards are present.
  std::optional<std::vector<std::uint8_t>> reconstruct(
      const std::vector<std::optional<std::vector<std::uint8_t>>>& shards,
      std::size_t original_size) const;

 private:
  using Matrix = std::vector<std::vector<std::uint8_t>>;
  static Matrix invert(Matrix m);  // throws std::domain_error if singular

  std::size_t k_, m_;
  Matrix encode_matrix_;  // (k+m) x k, top k rows = identity
};

}  // namespace dsaudit::storage
