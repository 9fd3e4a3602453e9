// Core protocol types for the paper's main auditing scheme (§V).
//
// Roles: the data owner D runs keygen + generate_tags once; the storage
// provider S answers challenges with Prover; the smart contract verifies
// with Verifier (src/contract wires these into the Fig. 2 state machine).
#pragma once

#include <cstdint>
#include <vector>

#include "curve/g1.hpp"
#include "curve/g2.hpp"
#include "field/fp12.hpp"
#include "storage/codec.hpp"

namespace dsaudit::audit {

using curve::G1;
using curve::G2;
using ff::Fp12;
using ff::Fr;

/// Primitive wire sizes every encoder in serialize.hpp is built from, exposed
/// so payload accounting elsewhere (the size formulas below, contract tx
/// sizes, econ chain-growth models) derives from the same constants the
/// serializers use instead of re-hardcoding the numbers. serialize.cpp
/// static_asserts tie them to the actual encodings (e.g.
/// ProofBasic::kWireSize == 2 G1 + 1 Fr).
inline constexpr std::size_t kFrWireBytes = 32;   // canonical big-endian Fr
inline constexpr std::size_t kU64WireBytes = 8;   // big-endian length/count
inline constexpr std::size_t kG1WireBytes = 32;   // compressed G1 point
inline constexpr std::size_t kG2WireBytes = 64;   // compressed G2 point
inline constexpr std::size_t kGtWireBytes = 192;  // torus-compressed GT element

/// Owner's secret key: x (authenticator key) and alpha (SRS trapdoor).
struct SecretKey {
  Fr x;
  Fr alpha;
};

/// Public key published on chain during Initialize (Fig. 4 measures its
/// serialized size):
///   epsilon = g2^x, delta = g2^{alpha x}, {g1^{alpha^j}}_{j=0}^{s-2},
///   and (with on-chain privacy) the precomputed GT base e(g1, epsilon).
struct PublicKey {
  std::size_t s = 0;               // blocks per chunk
  G2 epsilon;                      // g2^x
  G2 delta;                        // g2^{alpha x}
  std::vector<G1> g1_alpha_powers; // g1^{alpha^j}, j = 0 .. s-2
  Fp12 e_g1_epsilon;               // e(g1, epsilon) — the sigma-protocol base

  /// Number of SRS powers a key for `s` publishes: s - 1 (j = 0 .. s-2),
  /// but at least one, so an s = 1 key still carries g1 for the
  /// tag-acceptance check.
  static constexpr std::size_t alpha_power_count(std::size_t s) {
    return s >= 2 ? s - 1 : 1;
  }
  /// On-chain bytes of a key for `s`: s (u64) | epsilon, delta (G2) | the
  /// SRS powers (G1) | with the privacy extras, e(g1, epsilon) (GT, only
  /// needed by the private protocol). Reproduces Fig. 4. The one size
  /// formula: the serializer, the decoder and econ's storage cost all use it.
  static constexpr std::size_t serialized_size_for(std::size_t s,
                                                   bool with_privacy) {
    return kU64WireBytes + 2 * kG2WireBytes +
           kG1WireBytes * alpha_power_count(s) +
           (with_privacy ? kGtWireBytes : 0);
  }
};

struct KeyPair {
  SecretKey sk;
  PublicKey pk;
};

/// Per-file authenticators sigma_i = (g1^{M_i(alpha)} * H(name||i))^x, plus
/// the public file identifier `name` recorded on the blockchain.
struct FileTag {
  Fr name;
  std::size_t s = 0;
  std::size_t num_chunks = 0;
  std::vector<G1> sigmas;  // one per chunk
};

/// On-chain challenge: two PRP/PRF seeds and the KZG evaluation point
/// (the paper's {C = (C1, C2), r} — 48 bytes of beacon randomness expanded
/// off-chain by both prover and verifier).
struct Challenge {
  std::array<std::uint8_t, 32> c1{};
  std::array<std::uint8_t, 32> c2{};
  Fr r;
  std::size_t k = 0;  // number of challenged chunks
};

/// Non-private response (Eq. 1): 96 bytes on chain. Publishing y = P_k(r)
/// is what the §V-C attack exploits. Both proof shapes hold their points
/// affine: the form the wire decodes to, the compressor encodes from and the
/// settlement MSMs read (72 bytes a point against 96 Jacobian).
struct ProofBasic {
  G1::Affine sigma;
  Fr y;
  G1::Affine psi;

  static constexpr std::size_t kWireSize = 96;
};

/// Privacy-assured response (Eq. 2): sigma, y' = zeta*P_k(r) + z, psi and the
/// sigma-protocol commitment R = e(g1, epsilon)^z. 288 bytes on chain
/// (3 x 32 + 192 for the Fp6-compressed GT element), matching Table II.
struct ProofPrivate {
  G1::Affine sigma;
  Fr y_prime;
  G1::Affine psi;
  Fp12 big_r;

  static constexpr std::size_t kWireSize = 288;
};

/// One settlement window's on-chain record: instead of every round posting
/// its full 96/288-byte proof as its own prove tx, the window posts ONE tx
/// carrying the Fiat–Shamir weight seed, a single aggregated KZG opening
/// (openings at a shared challenge point batch into one G1 element across
/// files — the same rearrangement trick the settlement engine uses for
/// pairings, applied to proof *bytes*) and a per-round outcome bitmap.
/// Rounds is the number of settled instances in the window's canonical
/// (transcript-sorted) order; bit i of the bitmap (LSB-first within each
/// byte) is 1 iff round i settled Pass. Trailing bitmap bits beyond
/// `rounds` must be zero — the encoding is canonical.
///
/// The weight seed is not free-form: it must equal
/// derive_settlement_seed(seed_nonce, window_boundary, transcripts), and
/// carrying the nonce on the wire is what lets any verifier re-derive it
/// from the window's round transcripts. Without that binding a prover could
/// fix a seed first and craft proofs whose weighted errors cancel in the
/// batch check (see protocol.hpp).
struct AggregateSettlement {
  std::array<std::uint8_t, 32> weight_seed{};
  std::uint64_t seed_nonce = 0;       // freshness nonce the seed hashes over
  std::uint64_t window_boundary = 0;  // boundary instant the seed is bound to
  std::uint64_t rounds = 0;           // instances covered by the bitmap
  G1 opening;                         // sum_i [w_i * zeta_i] psi_i
  std::vector<std::uint8_t> outcomes; // ceil(rounds / 8) bitmap bytes

  /// seed (32) | nonce (8) | boundary (8) | rounds (8) | opening (32) |
  /// bitmap.
  static constexpr std::size_t kHeaderBytes = 88;
  /// Overflow-safe bitmap sizing (rounds is a full 64-bit wire field).
  static constexpr std::size_t bitmap_bytes(std::uint64_t rounds) {
    return static_cast<std::size_t>(rounds / 8 + (rounds % 8 != 0 ? 1 : 0));
  }
  static constexpr std::size_t serialized_size_for(std::uint64_t rounds) {
    return kHeaderBytes + bitmap_bytes(rounds);
  }
  std::size_t serialized_size() const { return serialized_size_for(rounds); }

  bool outcome(std::uint64_t i) const {
    return (outcomes[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1u;
  }
  void set_outcome(std::uint64_t i, bool ok) {
    std::uint8_t& b = outcomes[static_cast<std::size_t>(i / 8)];
    const auto mask = static_cast<std::uint8_t>(1u << (i % 8));
    b = static_cast<std::uint8_t>(ok ? (b | mask) : (b & ~mask));
  }
};

/// The expansion of (C1, C2) into chunk indices and coefficients shared by
/// prover and verifier (paper Definition 2).
struct ExpandedChallenge {
  std::vector<std::uint64_t> indices;
  std::vector<Fr> coefficients;
};
ExpandedChallenge expand_challenge(const Challenge& chal, std::size_t d);

/// H(name || i) — the per-chunk random-oracle point.
G1 chunk_hash(const Fr& name, std::uint64_t index);

/// H' : GT -> Z_p — the sigma protocol's hiding-parameter oracle.
Fr hash_gt_to_fr(const Fp12& value);

/// Number of challenged chunks for a target detection confidence, given a
/// corruption rate (paper §VI-A: k = 300 gives 95% at 1% corruption):
/// smallest k with 1 - (1-corruption)^k >= confidence.
std::size_t chunks_for_confidence(double confidence, double corruption_rate);

}  // namespace dsaudit::audit
