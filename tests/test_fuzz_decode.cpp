// Deterministic malformed-input corpus against the untrusted-bytes boundary
// (audit/serialize.hpp decode_* functions).
//
// Two assertion tiers:
//   - guaranteed-invalid mutations (attack/corpus.hpp *_mutations): decode
//     MUST refuse the bytes with a typed DecodeError — and, being a typed
//     boundary, the reason must survive the legacy nullopt wrappers too;
//   - seeded random single-bit flips: decode may accept or refuse, but must
//     never crash, and anything it accepts must re-serialize consistently
//     (no "parsed garbage" states escaping the boundary).
//
// The whole corpus is a pure function of the fixed RNG seed and
// DSAUDIT_FUZZ_SEEDS (number of random-flip seeds; CI raises it under
// ASan/UBSan), so any sanitizer hit replays exactly. Well over 200 mutations
// at the default setting — the floor the corpus test asserts explicitly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "attack/corpus.hpp"
#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "pairing/pairing.hpp"
#include "storage/codec.hpp"

namespace dsaudit::audit {
namespace {

std::size_t flip_seeds(std::size_t fallback) {
  const char* env = std::getenv("DSAUDIT_FUZZ_SEEDS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0) return v;
  }
  return fallback;
}

// One fixture builds every valid wire encoding once (keygen + tagging +
// proving are the expensive part) and every test mutates from there.
class FuzzDecode : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto rng = primitives::SecureRng::deterministic(0xF002);
    static KeyPair kp = keygen(/*s=*/4, rng);
    kp_ = &kp;
    std::vector<std::uint8_t> data(400);
    rng.fill(data);
    static storage::EncodedFile file = storage::encode_file(data, /*s=*/4);
    static Fr name = Fr::random(rng);
    static FileTag tag = generate_tags(kp.sk, kp.pk, file, name);
    Challenge chal;
    chal.c1 = rng.bytes32();
    chal.c2 = rng.bytes32();
    chal.r = Fr::random(rng);
    chal.k = 3;
    const Prover prover(kp.pk, file, tag);
    valid_basic_ = serialize(prover.prove(chal));
    valid_private_ = serialize(prover.prove_private(chal, rng));
    valid_pk_ = serialize(kp.pk, /*with_privacy=*/true);
    valid_sk_ = serialize(kp.sk);
    valid_tag_ = serialize(tag);
    valid_challenge_ = serialize(chal);
    // An aggregate settlement tx over a 5-round window: a deliberately
    // non-byte-aligned count so the trailing-bitmap-bit canonicality class
    // exists in the corpus.
    AggregateSettlement agg;
    agg.weight_seed = rng.bytes32();
    agg.seed_nonce = 0x5EED0007;  // decode carries it opaquely
    agg.window_boundary = 86400;
    agg.rounds = 5;
    agg.opening = curve::g1_mul_generator(Fr::random(rng));
    agg.outcomes.assign(1, 0);
    for (std::uint64_t i = 0; i < agg.rounds; ++i) {
      agg.set_outcome(i, i != 2);  // mixed outcomes, round 2 failed
    }
    valid_aggregate_ = serialize(agg);
  }

  static const KeyPair* kp_;
  static std::vector<std::uint8_t> valid_basic_, valid_private_, valid_pk_,
      valid_sk_, valid_tag_, valid_challenge_, valid_aggregate_;
};

const KeyPair* FuzzDecode::kp_ = nullptr;
std::vector<std::uint8_t> FuzzDecode::valid_basic_;
std::vector<std::uint8_t> FuzzDecode::valid_private_;
std::vector<std::uint8_t> FuzzDecode::valid_pk_;
std::vector<std::uint8_t> FuzzDecode::valid_sk_;
std::vector<std::uint8_t> FuzzDecode::valid_tag_;
std::vector<std::uint8_t> FuzzDecode::valid_challenge_;
std::vector<std::uint8_t> FuzzDecode::valid_aggregate_;

// Run one format's corpus: valid bytes round-trip, every must-reject
// mutation dies with a typed error, every random flip decodes or refuses
// without crashing. Returns how many mutations were exercised.
template <typename Decode>
std::size_t exercise(const std::vector<std::uint8_t>& valid,
                     std::vector<attack::corpus::Mutation> mutations,
                     Decode decode, const char* what) {
  {
    const auto ok = decode(valid);
    EXPECT_TRUE(ok.ok()) << what << ": valid encoding refused: "
                         << to_string(ok.error);
  }
  for (const auto& m : mutations) {
    const auto result = decode(m.bytes);
    if (m.must_reject) {
      EXPECT_FALSE(result.ok())
          << what << ": accepted guaranteed-invalid mutation '" << m.label
          << "'";
      EXPECT_NE(result.error, DecodeError::None)
          << what << ": mutation '" << m.label << "' refused without a reason";
    } else if (result.ok()) {
      // Crash-freedom is the assertion for random flips; acceptance is
      // allowed (a flipped bit can land in a don't-care position) but the
      // value must have decoded through every canonical check above.
      SUCCEED();
    }
  }
  return mutations.size();
}

// Cofactor mixtures: `valid` with the GT element at `offset` (whose value is
// `g`) replaced by the torus encoding of t^(r a) g for a cyclotomic t != 1
// and a = 1..3, built as GtSubgroup.AgreesWithOrderLadderOnCofactorMixtures
// builds them. They are unit-norm and pass the Phi_12 guard, so only
// gt_in_subgroup's order test can refuse them: t^r != 1, since the cofactor
// (p^4 - p^2 + 1)/r has no prime factor below 2 * 10^6.
std::vector<attack::corpus::Mutation> gt_cofactor_mixtures(
    const std::vector<std::uint8_t>& valid, std::size_t offset, const Fp12& g,
    std::uint64_t seed) {
  auto rng = primitives::SecureRng::deterministic(seed);
  std::vector<attack::corpus::Mutation> out;
  for (int i = 0; i < 2; ++i) {
    const Fp12 f = Fp12::random(rng);
    const Fp12 t0 = f.conjugate() * f.inverse();
    const Fp12 t_r = (t0.frobenius2() * t0).cyclotomic_pow_u256(Fr::modulus());
    Fp12 x = g;
    for (int a = 1; a <= 3; ++a) {
      x = x * t_r;
      auto bytes = valid;
      const auto enc = gt_compress(x);
      std::copy(enc.begin(), enc.end(), bytes.begin() + offset);
      out.push_back({"gt-cofactor-mixture-t" + std::to_string(i) + "-a" +
                         std::to_string(a),
                     std::move(bytes), true});
    }
  }
  return out;
}

std::vector<attack::corpus::Mutation> proof_gt_mixtures(
    const std::vector<std::uint8_t>& valid_private) {
  return gt_cofactor_mixtures(valid_private, 96,
                              decode_private(valid_private)->big_r, 0xF004);
}

std::vector<attack::corpus::Mutation> key_gt_mixtures(
    const std::vector<std::uint8_t>& valid_pk) {
  return gt_cofactor_mixtures(valid_pk, valid_pk.size() - kGtWireBytes,
                              decode_public_key(valid_pk)->e_g1_epsilon, 0xF005);
}

TEST_F(FuzzDecode, CorpusExceedsTwoHundredMutationsAndAllAreRejected) {
  const std::size_t flips = flip_seeds(30);
  std::size_t total = 0;
  {
    auto muts = attack::corpus::proof_mutations(valid_basic_);
    auto more = attack::corpus::random_flips(valid_basic_, 0xB1, flips);
    muts.insert(muts.end(), more.begin(), more.end());
    total += exercise(valid_basic_, std::move(muts),
                      [](const auto& b) { return decode_basic(b); },
                      "ProofBasic");
  }
  {
    auto muts = attack::corpus::proof_mutations(valid_private_);
    auto more = attack::corpus::random_flips(valid_private_, 0xB2, flips);
    muts.insert(muts.end(), more.begin(), more.end());
    auto mixtures = proof_gt_mixtures(valid_private_);
    muts.insert(muts.end(), mixtures.begin(), mixtures.end());
    total += exercise(valid_private_, std::move(muts),
                      [](const auto& b) { return decode_private(b); },
                      "ProofPrivate");
  }
  {
    auto muts = attack::corpus::public_key_mutations(valid_pk_);
    auto more = attack::corpus::random_flips(valid_pk_, 0xB3, flips);
    muts.insert(muts.end(), more.begin(), more.end());
    auto mixtures = key_gt_mixtures(valid_pk_);
    muts.insert(muts.end(), mixtures.begin(), mixtures.end());
    total += exercise(valid_pk_, std::move(muts),
                      [](const auto& b) { return decode_public_key(b); },
                      "PublicKey");
  }
  {
    auto muts = attack::corpus::file_tag_mutations(valid_tag_);
    auto more = attack::corpus::random_flips(valid_tag_, 0xB4, flips);
    muts.insert(muts.end(), more.begin(), more.end());
    total += exercise(valid_tag_, std::move(muts),
                      [](const auto& b) { return decode_file_tag(b); },
                      "FileTag");
  }
  {
    auto muts = attack::corpus::challenge_mutations(valid_challenge_);
    auto more = attack::corpus::random_flips(valid_challenge_, 0xB5, flips);
    muts.insert(muts.end(), more.begin(), more.end());
    total += exercise(valid_challenge_, std::move(muts),
                      [](const auto& b) { return decode_challenge(b); },
                      "Challenge");
  }
  {
    auto muts = attack::corpus::secret_key_mutations(valid_sk_);
    auto more = attack::corpus::random_flips(valid_sk_, 0xB6, flips);
    muts.insert(muts.end(), more.begin(), more.end());
    total += exercise(valid_sk_, std::move(muts),
                      [](const auto& b) { return decode_secret_key(b); },
                      "SecretKey");
  }
  {
    auto muts = attack::corpus::aggregate_settlement_mutations(valid_aggregate_);
    auto more = attack::corpus::random_flips(valid_aggregate_, 0xB7, flips);
    muts.insert(muts.end(), more.begin(), more.end());
    total += exercise(valid_aggregate_, std::move(muts),
                      [](const auto& b) {
                        return decode_aggregate_settlement(b);
                      },
                      "AggregateSettlement");
  }
  EXPECT_GE(total, 200u) << "corpus shrank below the acceptance floor";
}

// The count-field overflow probes are the two historical bugs this boundary
// hardening fixed: 32 * count wrapping past SIZE_MAX must be a clean
// BadStructure, never an out-of-bounds walk. Pinned individually so a
// regression names the exact probe.
TEST_F(FuzzDecode, CountOverflowProbesAreBadStructure) {
  for (const auto& m : attack::corpus::file_tag_mutations(valid_tag_)) {
    if (m.label.rfind("num-chunks-", 0) != 0) continue;
    const auto r = decode_file_tag(m.bytes);
    EXPECT_FALSE(r.ok()) << m.label;
    EXPECT_EQ(r.error, DecodeError::BadStructure) << m.label;
  }
  for (const auto& m : attack::corpus::public_key_mutations(valid_pk_)) {
    if (m.label.rfind("s-overflow", 0) != 0 && m.label != "s-max-u64")
      continue;
    const auto r = decode_public_key(m.bytes);
    EXPECT_FALSE(r.ok()) << m.label;
    EXPECT_EQ(r.error, DecodeError::BadStructure) << m.label;
  }
  for (const auto& m :
       attack::corpus::aggregate_settlement_mutations(valid_aggregate_)) {
    if (m.label.rfind("rounds-overflow", 0) != 0 && m.label != "rounds-max-u64")
      continue;
    const auto r = decode_aggregate_settlement(m.bytes);
    EXPECT_FALSE(r.ok()) << m.label;
    EXPECT_EQ(r.error, DecodeError::BadStructure) << m.label;
  }
}

// Typed reasons are stable per mutation class: the boundary tells the truth
// about WHY it refused the bytes.
TEST_F(FuzzDecode, RejectionReasonsAreTyped) {
  EXPECT_EQ(decode_basic(std::vector<std::uint8_t>{}).error,
            DecodeError::BadLength);
  {
    auto b = valid_basic_;
    std::fill(b.begin() + 32, b.begin() + 64, 0xFF);  // y >= r
    EXPECT_EQ(decode_basic(b).error, DecodeError::NonCanonicalScalar);
  }
  {
    auto b = valid_basic_;
    std::fill(b.begin(), b.begin() + 32, 0xFF);  // sigma.x >= p
    EXPECT_EQ(decode_basic(b).error, DecodeError::BadPoint);
  }
  {
    auto b = valid_private_;
    b[96] |= 0xC0;  // R's first torus coordinate >= 2^255 > p
    EXPECT_EQ(decode_private(b).error, DecodeError::BadGtElement);
  }
  {
    auto b = valid_challenge_;
    for (int i = 0; i < 8; ++i) b[96 + i] = 0;  // k == 0
    EXPECT_EQ(decode_challenge(b).error, DecodeError::ZeroForbidden);
  }
  {
    auto b = valid_pk_;
    for (int i = 0; i < 8; ++i) b[i] = 0;  // s == 0
    EXPECT_EQ(decode_public_key(b).error, DecodeError::ZeroForbidden);
  }
  {
    auto b = valid_aggregate_;
    for (int i = 0; i < 8; ++i) b[48 + i] = 0;  // rounds == 0
    EXPECT_EQ(decode_aggregate_settlement(b).error, DecodeError::ZeroForbidden);
  }
  {
    auto b = valid_aggregate_;
    std::fill(b.begin() + 56, b.begin() + 88, 0xFF);  // opening.x >= p
    EXPECT_EQ(decode_aggregate_settlement(b).error, DecodeError::BadPoint);
  }
  {
    auto b = valid_aggregate_;
    b.back() |= 0xE0;  // bits past rounds=5 in the bitmap: non-canonical
    EXPECT_EQ(decode_aggregate_settlement(b).error, DecodeError::BadStructure);
  }
}

// A cofactor mixture in R or in the key's GT element reaches the order test
// and is refused as BadGtElement (ProofPrivate, PublicKey).
TEST_F(FuzzDecode, GtCofactorMixturesAreBadGtElement) {
  for (const auto& m : proof_gt_mixtures(valid_private_)) {
    EXPECT_EQ(decode_private(m.bytes).error, DecodeError::BadGtElement) << m.label;
  }
  for (const auto& m : key_gt_mixtures(valid_pk_)) {
    EXPECT_EQ(decode_public_key(m.bytes).error, DecodeError::BadGtElement)
        << m.label;
  }
}

// The legacy nullopt wrapper shares the typed boundary: anything
// decode_private refuses, deserialize_private refuses too (no second, laxer
// parser to attack).
TEST_F(FuzzDecode, LegacyWrappersShareTheBoundary) {
  for (const auto& m : attack::corpus::proof_mutations(valid_private_)) {
    EXPECT_EQ(deserialize_private(m.bytes).has_value(),
              decode_private(m.bytes).ok())
        << m.label;
  }
}

// Accepted values must be *the same* values: a round-trip through decode and
// re-serialize reproduces the valid bytes exactly (canonical encodings are
// unique, so equality is the strongest possible claim).
TEST_F(FuzzDecode, ValidEncodingsRoundTripBitExactly) {
  EXPECT_EQ(serialize(*decode_basic(valid_basic_)), valid_basic_);
  EXPECT_EQ(serialize(*decode_private(valid_private_)), valid_private_);
  EXPECT_EQ(serialize(*decode_public_key(valid_pk_), /*with_privacy=*/true),
            valid_pk_);
  EXPECT_EQ(serialize(*decode_secret_key(valid_sk_)), valid_sk_);
  EXPECT_EQ(serialize(*decode_file_tag(valid_tag_)), valid_tag_);
  EXPECT_EQ(serialize(*decode_challenge(valid_challenge_)),
            valid_challenge_);
  EXPECT_EQ(serialize(*decode_aggregate_settlement(valid_aggregate_)),
            valid_aggregate_);
}

// GT codec canonicality: the torus encoding has exactly one string per
// element, so every private proof or key the decoder accepts — valid bytes,
// random flips, and R = identity (all-zero coordinates) — re-encodes to the
// very bytes it came from.
TEST_F(FuzzDecode, AcceptedGtEncodingsReEncodeToThemselves) {
  const std::size_t flips = flip_seeds(30);
  auto proofs = attack::corpus::proof_mutations(valid_private_);
  auto more = attack::corpus::random_flips(valid_private_, 0xC1, flips);
  proofs.insert(proofs.end(), more.begin(), more.end());
  {
    auto b = valid_private_;
    std::fill(b.begin() + 96, b.end(), std::uint8_t{0});
    proofs.push_back({"r-identity", std::move(b), false});
  }
  std::size_t accepted = 0;
  for (const auto& m : proofs) {
    const auto r = decode_private(m.bytes);
    if (!r) continue;
    ++accepted;
    EXPECT_EQ(serialize(*r), m.bytes) << m.label;
  }
  EXPECT_GE(accepted, 1u);  // r-identity at least
  auto keys = attack::corpus::random_flips(valid_pk_, 0xC2, flips);
  keys.push_back({"valid", valid_pk_, false});
  for (const auto& m : keys) {
    const auto r = decode_public_key(m.bytes);
    if (!r) continue;
    EXPECT_EQ(serialize(*r, /*with_privacy=*/true), m.bytes) << m.label;
  }
}

}  // namespace
}  // namespace dsaudit::audit
