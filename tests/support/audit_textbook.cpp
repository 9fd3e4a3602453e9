#include "support/audit_textbook.hpp"

#include "pairing/pairing.hpp"

namespace dsaudit::audit {
namespace {

/// chi = sum_j c_j * H(name || i_j), one double-and-add per challenged chunk.
G1 chi_textbook(const Fr& name, std::size_t num_chunks, const Challenge& chal) {
  const ExpandedChallenge ex = expand_challenge(chal, num_chunks);
  G1 chi = G1::infinity();
  for (std::size_t j = 0; j < ex.indices.size(); ++j) {
    chi = chi + chunk_hash(name, ex.indices[j]).mul_naive(ex.coefficients[j]);
  }
  return chi;
}

/// e(psi, delta - [r]eps), the factor both equations share.
Fp12 opening_textbook(const PublicKey& pk, const Challenge& chal,
                      const G1::Affine& psi) {
  return pairing::pairing(G1(psi), pk.delta - pk.epsilon.mul_naive(chal.r));
}

}  // namespace

bool eq1_textbook(const PublicKey& pk, const Fr& name, std::size_t num_chunks,
                  const Challenge& chal, const ProofBasic& proof) {
  const G1 chi = chi_textbook(name, num_chunks, chal);
  const G1 y_g1 = G1::generator().mul_naive(proof.y);
  const Fp12 lhs = pairing::pairing(G1(proof.sigma), G2::generator());
  const Fp12 rhs = pairing::pairing(chi + y_g1, pk.epsilon) *
                   opening_textbook(pk, chal, proof.psi);
  return lhs == rhs;
}

bool eq2_textbook(const PublicKey& pk, const Fr& name, std::size_t num_chunks,
                  const Challenge& chal, const ProofPrivate& proof) {
  const Fr zeta = hash_gt_to_fr(proof.big_r);
  const bigint::U256 zeta_bits = zeta.to_u256();
  const G1 chi = chi_textbook(name, num_chunks, chal);
  const G1 y_g1 = G1::generator().mul_naive(proof.y_prime);
  const Fp12 lhs =
      proof.big_r *
      pairing::pairing(G1(proof.sigma), G2::generator()).pow_u256(zeta_bits);
  const Fp12 rhs =
      pairing::pairing(chi.mul_naive(zeta) + y_g1, pk.epsilon) *
      opening_textbook(pk, chal, proof.psi).pow_u256(zeta_bits);
  return lhs == rhs;
}

}  // namespace dsaudit::audit
