#include "audit/types.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "primitives/keccak256.hpp"
#include "primitives/prp.hpp"

namespace dsaudit::audit {

ExpandedChallenge expand_challenge(const Challenge& chal, std::size_t d) {
  if (d == 0) throw std::invalid_argument("expand_challenge: empty file");
  if (chal.k == 0) throw std::invalid_argument("expand_challenge: k must be >= 1");
  ExpandedChallenge out;
  out.indices = primitives::challenge_indices(chal.c1, d, chal.k);
  out.coefficients.reserve(out.indices.size());
  for (std::size_t j = 0; j < out.indices.size(); ++j) {
    auto bytes = primitives::prf_bytes(chal.c2, j);
    out.coefficients.push_back(Fr::from_be_bytes_mod(bytes));
  }
  return out;
}

G1 chunk_hash(const Fr& name, std::uint64_t index) {
  std::uint8_t buf[32 + 2 + 8];
  auto nb = name.to_bytes();
  std::memcpy(buf, nb.data(), 32);
  buf[32] = '|';
  buf[33] = '|';
  for (int i = 0; i < 8; ++i) buf[34 + i] = static_cast<std::uint8_t>(index >> (8 * (7 - i)));
  return curve::hash_to_g1(std::span<const std::uint8_t>(buf, sizeof(buf)));
}

Fr hash_gt_to_fr(const Fp12& value) {
  // Canonical serialization of all 12 Fp coefficients, then Keccak, then
  // reduce mod r. Domain-separated.
  primitives::Keccak256 h;
  const char* tag = "dsaudit-Hprime-GT";
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(tag), std::strlen(tag)));
  const ff::Fp2* coords[6] = {&value.c0.c0, &value.c0.c1, &value.c0.c2,
                              &value.c1.c0, &value.c1.c1, &value.c1.c2};
  for (const auto* c : coords) {
    auto bytes = c->to_bytes();
    h.update(bytes);
  }
  auto digest = h.finalize();
  return Fr::from_be_bytes_mod(digest);
}

std::size_t chunks_for_confidence(double confidence, double corruption_rate) {
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument("chunks_for_confidence: confidence must be in (0,1)");
  }
  if (corruption_rate <= 0.0 || corruption_rate >= 1.0) {
    throw std::invalid_argument("chunks_for_confidence: corruption rate must be in (0,1)");
  }
  double k = std::log(1.0 - confidence) / std::log(1.0 - corruption_rate);
  return static_cast<std::size_t>(std::ceil(k));
}

}  // namespace dsaudit::audit
