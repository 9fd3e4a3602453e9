// End-to-end tests of the main auditing protocol (§V): completeness of
// Eq. 1 / Eq. 2, soundness against corruption and tampering, tag acceptance,
// batching, and the exact paper wire sizes.
#include <gtest/gtest.h>

#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "econ/cost_model.hpp"
#include "pairing/pairing.hpp"

namespace dsaudit::audit {
namespace {

using primitives::SecureRng;

std::vector<std::uint8_t> random_bytes(std::size_t n, SecureRng& rng) {
  std::vector<std::uint8_t> v(n);
  rng.fill(v);
  return v;
}

struct Scenario {
  KeyPair kp;
  storage::EncodedFile file;
  FileTag tag;
  Fr name;
};

Scenario make_scenario(std::size_t file_size, std::size_t s, SecureRng& rng,
                       unsigned threads = 1) {
  Scenario sc;
  sc.kp = keygen(s, rng);
  auto data = random_bytes(file_size, rng);
  sc.file = storage::encode_file(data, s);
  sc.name = Fr::random(rng);
  sc.tag = generate_tags(sc.kp.sk, sc.kp.pk, sc.file, sc.name, threads);
  return sc;
}

Challenge make_challenge(SecureRng& rng, std::size_t k) {
  Challenge c;
  c.c1 = rng.bytes32();
  c.c2 = rng.bytes32();
  c.r = Fr::random(rng);
  c.k = k;
  return c;
}

/// `count` honest Eq. 1 rounds of one file, each under a fresh challenge.
std::vector<SettlementInstance> basic_rounds(const Verifier& verifier,
                                             const Scenario& sc,
                                             const Prover& prover, int count,
                                             SecureRng& rng) {
  std::vector<SettlementInstance> instances;
  for (int i = 0; i < count; ++i) {
    SettlementInstance inst;
    inst.verifier = &verifier;
    inst.name = sc.name;
    inst.num_chunks = sc.file.num_chunks();
    inst.challenge = make_challenge(rng, 4);
    inst.basic = prover.prove(inst.challenge);
    instances.push_back(inst);
  }
  return instances;
}

// ---------------------------------------------------------------------------
// Completeness, parameterized over (file size, s, k).
// ---------------------------------------------------------------------------

struct Params {
  std::size_t file_size;
  std::size_t s;
  std::size_t k;
};

class AuditCompleteness : public ::testing::TestWithParam<Params> {};

TEST_P(AuditCompleteness, BasicProofVerifies) {
  auto [file_size, s, k] = GetParam();
  auto rng = SecureRng::deterministic(200 + file_size + s + k);
  Scenario sc = make_scenario(file_size, s, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, k);
  ProofBasic proof = prover.prove(chal);
  Verifier verifier(sc.kp.pk);
  EXPECT_TRUE(verifier.verify(sc.name, sc.file.num_chunks(), chal, proof));
}

TEST_P(AuditCompleteness, PrivateProofVerifies) {
  auto [file_size, s, k] = GetParam();
  auto rng = SecureRng::deterministic(300 + file_size + s + k);
  Scenario sc = make_scenario(file_size, s, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, k);
  ProofPrivate proof = prover.prove_private(chal, rng);
  Verifier verifier(sc.kp.pk);
  EXPECT_TRUE(
      verifier.verify_private(sc.name, sc.file.num_chunks(), chal, proof));
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, AuditCompleteness,
    ::testing::Values(Params{1, 1, 1},        // single block, s = 1 edge
                      Params{100, 1, 3},      // s = 1 (classic HLA, no chunks)
                      Params{100, 4, 2},      // tiny
                      Params{1000, 2, 5},     // more chunks than blocks/chunk
                      Params{5000, 10, 8},    // k < d
                      Params{5000, 10, 999},  // k > d: challenge all chunks
                      Params{20000, 50, 13},  // paper's preferred s = 50
                      Params{3100, 100, 1}),  // single challenged chunk
    [](const auto& info) {
      return "file" + std::to_string(info.param.file_size) + "_s" +
             std::to_string(info.param.s) + "_k" + std::to_string(info.param.k);
    });

TEST(AuditChallengeAtAlpha, HonestProofsVerify) {
  // Degenerate but legal: the challenge point r equals the secret alpha, so
  // x - r vanishes at alpha and the opening's pairing factor e(psi,
  // g2^{alpha - r}) is trivial. Nothing may divide by alpha - r, and honest
  // proofs must still verify, alone and inside a settlement batch.
  auto rng = SecureRng::deterministic(250);
  Scenario sc = make_scenario(3000, 6, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Verifier verifier(sc.kp.pk);
  Challenge chal = make_challenge(rng, 4);
  chal.r = sc.kp.sk.alpha;
  ProofBasic basic = prover.prove(chal);
  ProofPrivate priv = prover.prove_private(chal, rng);
  EXPECT_TRUE(verifier.verify(sc.name, sc.file.num_chunks(), chal, basic));
  EXPECT_TRUE(
      verifier.verify_private(sc.name, sc.file.num_chunks(), chal, priv));

  std::vector<SettlementInstance> instances(2);
  for (auto& inst : instances) {
    inst.verifier = &verifier;
    inst.name = sc.name;
    inst.num_chunks = sc.file.num_chunks();
    inst.challenge = chal;
  }
  instances[0].basic = basic;
  instances[1].priv = priv;
  EXPECT_TRUE(verify_settlement(instances, rng.bytes32()).all_ok());
}

// ---------------------------------------------------------------------------
// Soundness / failure injection.
// ---------------------------------------------------------------------------

class AuditSoundness : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<SecureRng>(SecureRng::deterministic(400));
    sc_ = make_scenario(4000, 8, *rng_);
    verifier_ = std::make_unique<Verifier>(sc_.kp.pk);
  }
  std::unique_ptr<SecureRng> rng_;
  Scenario sc_;
  std::unique_ptr<Verifier> verifier_;  // borrows sc_.kp.pk
};

TEST_F(AuditSoundness, CorruptedBlockFailsBasic) {
  // Flip one block, keep the (now stale) tags: every challenge touching the
  // chunk must fail.
  storage::EncodedFile bad = sc_.file;
  bad.chunks[0][0] += Fr::one();
  Prover prover(sc_.kp.pk, bad, sc_.tag);
  int failures = 0, rounds = 0;
  for (int i = 0; i < 10; ++i) {
    Challenge chal = make_challenge(*rng_, bad.num_chunks());  // challenge all
    ProofBasic proof = prover.prove(chal);
    ++rounds;
    if (!verifier_->verify(sc_.name, bad.num_chunks(), chal, proof)) ++failures;
  }
  EXPECT_EQ(failures, rounds);  // k = d always hits chunk 0
}

TEST_F(AuditSoundness, CorruptedBlockFailsPrivate) {
  storage::EncodedFile bad = sc_.file;
  bad.chunks[2][3] += Fr::from_u64(7);
  Prover prover(sc_.kp.pk, bad, sc_.tag);
  Challenge chal = make_challenge(*rng_, bad.num_chunks());
  ProofPrivate proof = prover.prove_private(chal, *rng_);
  EXPECT_FALSE(verifier_->verify_private(sc_.name, bad.num_chunks(), chal, proof));
}

TEST_F(AuditSoundness, DroppedChunkDetectedWithSamplingProbability) {
  // Provider silently zeroes one chunk; with k < d, detection happens iff the
  // challenge samples it. Over many rounds, both outcomes must occur and the
  // verifier must never accept a proof computed over the corrupted chunk.
  storage::EncodedFile bad = sc_.file;
  std::size_t victim = 5;
  for (auto& b : bad.chunks[victim]) b = Fr::zero();
  ASSERT_NE(bad.chunks[victim], sc_.file.chunks[victim]);
  Prover prover(sc_.kp.pk, bad, sc_.tag);
  int detected = 0, sampled = 0;
  for (int i = 0; i < 30; ++i) {
    Challenge chal = make_challenge(*rng_, 4);
    auto ex = expand_challenge(chal, bad.num_chunks());
    bool hits = std::find(ex.indices.begin(), ex.indices.end(), victim) !=
                ex.indices.end();
    ProofBasic proof = prover.prove(chal);
    bool ok = verifier_->verify(sc_.name, bad.num_chunks(), chal, proof);
    if (hits) ++sampled;
    if (!ok) ++detected;
    EXPECT_EQ(ok, !hits);  // fails exactly when the victim chunk is sampled
  }
  EXPECT_GT(sampled, 0);
  EXPECT_EQ(detected, sampled);
}

TEST_F(AuditSoundness, TamperedProofElementsFail) {
  Prover prover(sc_.kp.pk, sc_.file, sc_.tag);
  Challenge chal = make_challenge(*rng_, 5);
  ProofBasic good = prover.prove(chal);
  ASSERT_TRUE(verifier_->verify(sc_.name, sc_.file.num_chunks(), chal, good));

  ProofBasic bad = good;
  bad.sigma = (G1(bad.sigma) + curve::G1::generator()).to_affine_point();
  EXPECT_FALSE(verifier_->verify(sc_.name, sc_.file.num_chunks(), chal, bad));

  bad = good;
  bad.y += Fr::one();
  EXPECT_FALSE(verifier_->verify(sc_.name, sc_.file.num_chunks(), chal, bad));

  bad = good;
  bad.psi = G1(bad.psi).dbl().to_affine_point();
  EXPECT_FALSE(verifier_->verify(sc_.name, sc_.file.num_chunks(), chal, bad));
}

TEST_F(AuditSoundness, TamperedPrivateProofElementsFail) {
  Prover prover(sc_.kp.pk, sc_.file, sc_.tag);
  Challenge chal = make_challenge(*rng_, 5);
  ProofPrivate good = prover.prove_private(chal, *rng_);
  ASSERT_TRUE(verifier_->verify_private(sc_.name, sc_.file.num_chunks(), chal, good));

  ProofPrivate bad = good;
  bad.y_prime += Fr::one();
  EXPECT_FALSE(verifier_->verify_private(sc_.name, sc_.file.num_chunks(), chal, bad));

  bad = good;
  bad.big_r = bad.big_r * bad.big_r;  // different commitment, stale y'
  EXPECT_FALSE(verifier_->verify_private(sc_.name, sc_.file.num_chunks(), chal, bad));

  bad = good;
  bad.sigma = -bad.sigma;
  EXPECT_FALSE(verifier_->verify_private(sc_.name, sc_.file.num_chunks(), chal, bad));
}

TEST_F(AuditSoundness, ReplayedProofFromOldChallengeFails) {
  Prover prover(sc_.kp.pk, sc_.file, sc_.tag);
  Challenge chal1 = make_challenge(*rng_, 5);
  Challenge chal2 = make_challenge(*rng_, 5);
  ProofBasic old_proof = prover.prove(chal1);
  EXPECT_TRUE(verifier_->verify(sc_.name, sc_.file.num_chunks(), chal1, old_proof));
  EXPECT_FALSE(verifier_->verify(sc_.name, sc_.file.num_chunks(), chal2, old_proof));
}

TEST_F(AuditSoundness, WrongFileNameFails) {
  Prover prover(sc_.kp.pk, sc_.file, sc_.tag);
  Challenge chal = make_challenge(*rng_, 5);
  ProofBasic proof = prover.prove(chal);
  EXPECT_FALSE(verifier_->verify(sc_.name + Fr::one(), sc_.file.num_chunks(), chal, proof));
}

// ---------------------------------------------------------------------------
// Tag acceptance (the provider's Initialize-phase check).
// ---------------------------------------------------------------------------

TEST_F(AuditSoundness, HonestTagsAccepted) {
  EXPECT_TRUE(verifier_->verify_tags(sc_.file, sc_.tag));
}

TEST_F(AuditSoundness, ForgedTagRejected) {
  // A cheating owner who corrupts one authenticator (to later frame the
  // provider) is caught at acceptance time.
  FileTag bad = sc_.tag;
  bad.sigmas[1] = bad.sigmas[1] + curve::G1::generator();
  EXPECT_FALSE(verifier_->verify_tags(sc_.file, bad));
}

TEST_F(AuditSoundness, TagForDifferentDataRejected) {
  storage::EncodedFile other = sc_.file;
  other.chunks[0][0] += Fr::one();
  EXPECT_FALSE(verifier_->verify_tags(other, sc_.tag));
}

TEST_F(AuditSoundness, StructuralMismatchesRejected) {
  FileTag bad = sc_.tag;
  bad.sigmas.pop_back();
  bad.num_chunks--;
  EXPECT_FALSE(verifier_->verify_tags(sc_.file, bad));
  auto rng2 = SecureRng::deterministic(401);
  auto other_kp = keygen(sc_.kp.pk.s + 1, rng2);
  EXPECT_FALSE(Verifier(other_kp.pk).verify_tags(sc_.file, sc_.tag));
}

TEST(AuditVerifier, PreparedVerifierMatchesColdPath) {
  // One Verifier serving many rounds — basic, private, tags and batch — must
  // agree between the prepared per-file context and the cold (name,
  // num_chunks) path on both accepts and rejects.
  auto rng = SecureRng::deterministic(450);
  Scenario sc = make_scenario(4000, 8, rng);
  Verifier verifier(sc.kp.pk);
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  EXPECT_TRUE(verifier.verify_tags(sc.file, sc.tag));

  PreparedFile file_ctx = prepare_file(sc.name, sc.file.num_chunks());
  for (int round = 0; round < 3; ++round) {
    Challenge chal = make_challenge(rng, 5);
    ProofBasic proof = prover.prove(chal);
    EXPECT_TRUE(verifier.verify(sc.name, sc.file.num_chunks(), chal, proof));
    EXPECT_TRUE(verifier.verify(file_ctx, chal, proof));
    ProofPrivate priv = prover.prove_private(chal, rng);
    EXPECT_TRUE(
        verifier.verify_private(sc.name, sc.file.num_chunks(), chal, priv));
    EXPECT_TRUE(verifier.verify_private(file_ctx, chal, priv));

    ProofBasic bad = proof;
    bad.y = bad.y + Fr::one();
    EXPECT_FALSE(verifier.verify(sc.name, sc.file.num_chunks(), chal, bad));
    EXPECT_FALSE(verifier.verify(file_ctx, chal, bad));
    ProofPrivate badp = priv;
    badp.y_prime = badp.y_prime + Fr::one();
    EXPECT_FALSE(
        verifier.verify_private(sc.name, sc.file.num_chunks(), chal, badp));
    EXPECT_FALSE(verifier.verify_private(file_ctx, chal, badp));
  }

  // Each single-round check is a one-instance verify_settlement: exactly the
  // paper's 3 pairings and one final exponentiation, never the weighted
  // batch path.
  {
    Challenge chal = make_challenge(rng, 5);
    ProofBasic proof = prover.prove(chal);
    ProofPrivate priv = prover.prove_private(chal, rng);
    const auto before = pairing::pairing_counters();
    EXPECT_TRUE(verifier.verify(file_ctx, chal, proof));
    const auto mid = pairing::pairing_counters();
    EXPECT_TRUE(verifier.verify_private(sc.name, sc.file.num_chunks(), chal, priv));
    const auto after = pairing::pairing_counters();
    EXPECT_EQ(mid.chains - before.chains, 3u);
    EXPECT_EQ(mid.final_exps - before.final_exps, 1u);
    EXPECT_EQ(after.chains - mid.chains, 3u);
    EXPECT_EQ(after.final_exps - mid.final_exps, 1u);
  }

  auto instances = basic_rounds(verifier, sc, prover, 3, rng);
  EXPECT_TRUE(verify_settlement(instances, rng.bytes32()).all_ok());
  instances[1].basic->y = instances[1].basic->y + Fr::one();
  EXPECT_FALSE(verify_settlement(instances, rng.bytes32()).all_ok());
}

TEST(AuditProver, PreparedSigmaTableMatchesColdPath) {
  // The sigma subset-MSM over the prepared tag table must emit byte-for-byte
  // the proofs of the gather-then-cold-MSM path it replaces.
  auto rng = SecureRng::deterministic(415);
  Scenario sc = make_scenario(5000, 8, rng);
  Prover prepared(sc.kp.pk, sc.file, sc.tag, /*prepare_psi=*/true,
                  /*prepare_sigma=*/true);
  Prover cold(sc.kp.pk, sc.file, sc.tag);
  for (int i = 0; i < 3; ++i) {
    Challenge chal = make_challenge(rng, 4 + 3 * i);
    EXPECT_EQ(serialize(prepared.prove(chal)), serialize(cold.prove(chal)));
    auto rng_a = SecureRng::deterministic(500 + i);
    auto rng_b = SecureRng::deterministic(500 + i);
    EXPECT_EQ(serialize(prepared.prove_private(chal, rng_a)),
              serialize(cold.prove_private(chal, rng_b)));
  }
}

TEST(AuditProver, KeyTableMatchesColdPath) {
  // One ProverKey per key, in both forms at every s (per-power tables and
  // the shifted table, on both sides of kPsiTableMaxPowers): every prover
  // that borrows it — over two files of the key, an all-zero file (psi at
  // infinity) and a file whose top block is zero everywhere (a zero top
  // quotient coefficient) — must serialize byte-for-byte like the cold
  // prover, basic and private (same masking RNG seed), and so must the flag
  // constructor's private key.
  auto rng = SecureRng::deterministic(451);
  for (std::size_t s : {1, 2, 3, 4, 5, 6, 10, 20}) {
    Scenario sc = make_scenario(400 * s, s, rng);
    const std::shared_ptr<const ProverKey> keys[] = {
        ProverKey::build(sc.kp.pk, SIZE_MAX), ProverKey::build(sc.kp.pk, 0)};
    for (const auto& key : keys) ASSERT_TRUE(key->matches(sc.kp.pk));
    const auto other = storage::encode_file(random_bytes(300 * s, rng), s);
    const FileTag other_tag =
        generate_tags(sc.kp.sk, sc.kp.pk, other, Fr::random(rng));
    storage::EncodedFile zero = sc.file, top_zero = sc.file;
    for (auto& chunk : zero.chunks) {
      for (auto& b : chunk) b = Fr::zero();
    }
    for (auto& chunk : top_zero.chunks) chunk.back() = Fr::zero();
    const std::pair<const storage::EncodedFile*, const FileTag*> files[] = {
        {&sc.file, &sc.tag}, {&other, &other_tag}, {&zero, &sc.tag},
        {&top_zero, &sc.tag}};
    for (const auto& [file, tag] : files) {
      Prover flagged(sc.kp.pk, *file, *tag, /*prepare_psi=*/true);
      Prover cold(sc.kp.pk, *file, *tag, /*prepare_psi=*/false);
      for (int i = 0; i < 2; ++i) {
        const Challenge chal = make_challenge(rng, 3 + i);
        const auto want = serialize(cold.prove(chal));
        EXPECT_EQ(serialize(flagged.prove(chal)), want) << "s=" << s;
        for (const auto& key : keys) {
          Prover keyed(sc.kp.pk, *file, *tag, key);
          EXPECT_EQ(serialize(keyed.prove(chal)), want) << "s=" << s;
          auto rng_a = SecureRng::deterministic(500 + i);
          auto rng_b = SecureRng::deterministic(500 + i);
          EXPECT_EQ(serialize(keyed.prove_private(chal, rng_a)),
                    serialize(cold.prove_private(chal, rng_b)))
              << "s=" << s;
        }
      }
    }
    const std::vector<Fr> zeros(sc.kp.pk.g1_alpha_powers.size(), Fr::zero());
    for (const auto& key : keys) EXPECT_TRUE(key->psi(zeros).is_infinity());
    // A key whose power 0 is not g1 (the wire format does not forbid it)
    // gets its own table for that power instead of the generator table's.
    PublicKey odd = sc.kp.pk;
    odd.g1_alpha_powers[0] = curve::g1_random(rng);
    std::vector<Fr> q;
    for (std::size_t j = 0; j < odd.g1_alpha_powers.size(); ++j) {
      q.push_back(Fr::random(rng));
    }
    EXPECT_EQ(ProverKey::build(odd, SIZE_MAX)->psi(q),
              curve::msm<G1>(odd.g1_alpha_powers, q))
        << "s=" << s;
  }
}

TEST(AuditProver, KeyMemoryAndMismatch) {
  // s = 4 (scale-basic's shape): two compact tables, power 0 on the
  // generator table — small enough that a 16-key pool adds ~1 MB — plus the
  // comb for R, exactly 98,304 B (another ~1.57 MB for 16 keys). A key
  // built from any other powers or another e(g1, eps) is refused at
  // construction, including one that differs from pk only in a middle
  // power, and one that differs only in e(g1, eps) (the same alpha with
  // another x).
  constexpr std::size_t kComb = 98'304;
  auto rng = SecureRng::deterministic(452);
  Scenario sc = make_scenario(2000, 4, rng);
  EXPECT_EQ(ff::GtComb(sc.kp.pk.e_g1_epsilon).bytes(), kComb);
  const auto key = ProverKey::build(sc.kp.pk);
  EXPECT_LE(key->bytes(), std::size_t{64'000} + kComb);
  PublicKey no_gt = sc.kp.pk;  // a key without e(g1, eps) builds no comb
  no_gt.e_g1_epsilon = Fp12::zero();
  EXPECT_EQ(key->bytes(), ProverKey::build(no_gt)->bytes() + kComb);
  const auto wide = ProverKey::build(keygen(20, rng).pk);
  EXPECT_LE(wide->bytes(), std::size_t{100'000} + kComb);
  PublicKey mid = sc.kp.pk;
  ASSERT_EQ(mid.g1_alpha_powers.size(), 3u);
  mid.g1_alpha_powers[1] = curve::g1_random(rng);
  PublicKey eps = sc.kp.pk;
  eps.e_g1_epsilon = eps.e_g1_epsilon.cyclotomic_square();
  const KeyPair other = keygen(4, rng);
  for (const PublicKey& pk : {other.pk, mid, eps}) {
    const auto foreign = ProverKey::build(pk);
    EXPECT_FALSE(foreign->matches(sc.kp.pk));
    EXPECT_THROW(Prover(sc.kp.pk, sc.file, sc.tag, foreign),
                 std::invalid_argument);
  }
}

TEST(AuditProver, CombMatchesPowOracle) {
  // The ProverKey comb (8 rows of 32 columns) against the textbook
  // pow_u256, over a keygen key's e(g1, eps) and a random GT base: 0, 1, 2,
  // r - 1, every column boundary 2^{32k} and the bit below it, one column
  // with all 8 rows set, and bits 224..253 (the top row's live bits).
  auto rng = SecureRng::deterministic(453);
  const KeyPair kp = keygen(3, rng);
  PublicKey random_base = kp.pk;
  random_base.e_g1_epsilon =
      pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  ff::U256 rm1;
  bigint::sub_with_borrow(Fr::modulus(), ff::U256{1}, rm1);
  std::vector<ff::U256> exps = {ff::U256{0}, ff::U256{1}, ff::U256{2}, rm1};
  for (unsigned k = 0; k < 8; ++k) {
    ff::U256 edge{};
    edge.limb[k / 2] = std::uint64_t{1} << (32 * (k % 2));
    exps.push_back(edge);  // 2^{32k}
    if (k > 0) {
      ff::U256 below{};
      below.limb[(32 * k - 1) / 64] = std::uint64_t{1} << ((32 * k - 1) % 64);
      exps.push_back(below);  // 2^{32k - 1}, the previous column's top
    }
  }
  for (unsigned col : {0u, 17u, 29u}) {
    ff::U256 column{};
    for (unsigned row = 0; row < 8; ++row) {
      const unsigned b = 32 * row + col;
      column.limb[b / 64] |= std::uint64_t{1} << (b % 64);
    }
    exps.push_back(column);
  }
  ff::U256 top{};
  for (unsigned b = 224; b < 254; ++b) {
    top.limb[b / 64] |= std::uint64_t{1} << (b % 64);
  }
  exps.push_back(top);
  exps.push_back(Fr::random(rng).to_u256());
  for (const PublicKey& pk : {kp.pk, random_base}) {
    const auto key = ProverKey::build(pk);
    for (const ff::U256& e : exps) {
      EXPECT_EQ(key->epsilon_pow(e), pk.e_g1_epsilon.pow_u256(e)) << e.to_hex();
    }
  }
}

TEST(AuditTags, ParallelMatchesSerial) {
  auto rng = SecureRng::deterministic(402);
  auto kp = keygen(5, rng);
  auto data = std::vector<std::uint8_t>(2000, 0xab);
  auto file = storage::encode_file(data, 5);
  Fr name = Fr::random(rng);
  FileTag serial = generate_tags(kp.sk, kp.pk, file, name, 1);
  FileTag parallel = generate_tags(kp.sk, kp.pk, file, name, 4);
  ASSERT_EQ(serial.sigmas.size(), parallel.sigmas.size());
  for (std::size_t i = 0; i < serial.sigmas.size(); ++i) {
    EXPECT_EQ(serial.sigmas[i], parallel.sigmas[i]);
  }
}

// ---------------------------------------------------------------------------
// Batch verification.
// ---------------------------------------------------------------------------

TEST(AuditBatch, ManyRoundsVerifyTogether) {
  auto rng = SecureRng::deterministic(403);
  Scenario sc = make_scenario(3000, 6, rng);
  Verifier verifier(sc.kp.pk);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  auto instances = basic_rounds(verifier, sc, prover, 8, rng);
  EXPECT_TRUE(verify_settlement(instances, rng.bytes32()).all_ok());
}

TEST(AuditBatch, SingleBadProofPoisonsBatch) {
  auto rng = SecureRng::deterministic(404);
  Scenario sc = make_scenario(3000, 6, rng);
  Verifier verifier(sc.kp.pk);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  auto instances = basic_rounds(verifier, sc, prover, 5, rng);
  instances[3].basic->y += Fr::one();
  SettlementOutcome out = verify_settlement(instances, rng.bytes32());
  EXPECT_FALSE(out.all_ok());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(out.ok[i], i != 3) << i;
  }
  EXPECT_TRUE(
      verify_settlement(std::span<const SettlementInstance>{}, rng.bytes32())
          .all_ok());
}

// ---------------------------------------------------------------------------
// Wire formats.
// ---------------------------------------------------------------------------

TEST(AuditWire, ProofSizesMatchPaper) {
  auto rng = SecureRng::deterministic(405);
  Scenario sc = make_scenario(2000, 10, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, 5);
  auto basic = serialize(prover.prove(chal));
  EXPECT_EQ(basic.size(), 96u);  // Fig. 5 "w/o on-chain privacy"
  auto priv = serialize(prover.prove_private(chal, rng));
  EXPECT_EQ(priv.size(), 288u);  // Table II / Fig. 5 "w/ on-chain privacy"
}

TEST(AuditWire, ProofRoundTrip) {
  auto rng = SecureRng::deterministic(406);
  Scenario sc = make_scenario(2000, 10, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, 5);

  Verifier verifier(sc.kp.pk);
  ProofBasic basic = prover.prove(chal);
  auto basic_bytes = serialize(basic);
  auto basic2 = deserialize_basic(basic_bytes);
  ASSERT_TRUE(basic2.has_value());
  EXPECT_EQ(basic2->sigma, basic.sigma);
  EXPECT_EQ(basic2->y, basic.y);
  EXPECT_EQ(basic2->psi, basic.psi);
  EXPECT_TRUE(verifier.verify(sc.name, sc.file.num_chunks(), chal, *basic2));

  ProofPrivate priv = prover.prove_private(chal, rng);
  auto priv_bytes = serialize(priv);
  auto priv2 = deserialize_private(priv_bytes);
  ASSERT_TRUE(priv2.has_value());
  EXPECT_EQ(priv2->big_r, priv.big_r);
  EXPECT_TRUE(
      verifier.verify_private(sc.name, sc.file.num_chunks(), chal, *priv2));
}

// serialize normalizes sigma and psi with one batch inversion. Its bytes must
// equal the per-point g1_compress encodings, also when either point (or
// both) is infinity, whose Z has no inverse.
TEST(AuditWire, ProofHeadMatchesPerPointCompression) {
  auto rng = SecureRng::deterministic(409);
  const G1 a = curve::g1_random(rng) + curve::g1_random(rng);
  const G1 b = curve::g1_random(rng);
  const G1 inf = G1::infinity();
  const Fp12 big_r =
      ::dsaudit::pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  const auto r_bytes = gt_compress(big_r);
  const std::pair<G1, G1> cases[] = {{a, b}, {inf, b}, {a, inf}, {inf, inf}};
  for (const auto& [sigma, psi] : cases) {
    const Fr y = Fr::random(rng);
    std::vector<std::uint8_t> want(96);
    const auto s = curve::g1_compress(sigma);
    std::copy(s.begin(), s.end(), want.begin());
    y.to_be_bytes(std::span<std::uint8_t, 32>(want.data() + 32, 32));
    const auto p = curve::g1_compress(psi);
    std::copy(p.begin(), p.end(), want.begin() + 64);
    const std::string what = std::string(sigma.is_infinity() ? "inf" : "sigma") +
                             "/" + (psi.is_infinity() ? "inf" : "psi");
    const G1::Affine sa = sigma.to_affine_point(), pa = psi.to_affine_point();
    EXPECT_EQ(serialize(ProofBasic{sa, y, pa}), want) << what;
    const auto priv = serialize(ProofPrivate{sa, y, pa, big_r});
    EXPECT_TRUE(std::equal(want.begin(), want.end(), priv.begin())) << what;
    EXPECT_TRUE(std::equal(r_bytes.begin(), r_bytes.end(), priv.begin() + 96))
        << what;
    const auto back = decode_basic(want);
    ASSERT_TRUE(back.ok()) << what;
    EXPECT_EQ(back->sigma, sigma) << what;
    EXPECT_EQ(back->psi, psi) << what;
  }
}

TEST(AuditWire, MalformedProofRejected) {
  std::vector<std::uint8_t> junk(96, 0xff);
  EXPECT_FALSE(deserialize_basic(junk).has_value());
  EXPECT_FALSE(deserialize_basic(std::vector<std::uint8_t>(95)).has_value());
  std::vector<std::uint8_t> junk288(288, 0xff);
  EXPECT_FALSE(deserialize_private(junk288).has_value());
}

// The six canonical Fp coordinates of c, in gt_compress's byte order.
std::array<std::uint8_t, 192> torus_bytes(const ff::Fp6& c) {
  std::array<std::uint8_t, 192> out{};
  const ff::Fp* coords[6] = {&c.c0.c0, &c.c0.c1, &c.c1.c0,
                             &c.c1.c1, &c.c2.c0, &c.c2.c1};
  for (int i = 0; i < 6; ++i) {
    coords[i]->to_be_bytes(std::span<std::uint8_t, 32>(out.data() + 32 * i, 32));
  }
  return out;
}

// The defining quotient (1 + cw)/(1 - cw), computed with a generic Fp12
// inverse rather than the decoder's closed form.
Fp12 torus_quotient(const ff::Fp6& c) {
  return Fp12{ff::Fp6::one(), c} * Fp12{ff::Fp6::one(), -c}.inverse();
}

TEST(AuditWire, GtCompressionRoundTrip) {
  auto rng = SecureRng::deterministic(407);
  for (int i = 0; i < 3; ++i) {
    // Any pairing output is unit-norm.
    Fp12 g = ::dsaudit::pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
    auto bytes = gt_compress(g);
    auto back = gt_decode(bytes);
    ASSERT_TRUE(back.ok()) << to_string(back.error);
    EXPECT_EQ(*back, g);
    EXPECT_EQ(gt_compress(*back), bytes);
    // c = b / (1 + a) is the element's torus coordinate.
    ff::Fp6 c = g.c1 * (ff::Fp6::one() + g.c0).inverse();
    EXPECT_EQ(bytes, torus_bytes(c));
    EXPECT_EQ(torus_quotient(c), g);
  }
  // The identity is c = 0: the all-zero string, both ways.
  const std::array<std::uint8_t, 192> zeros{};
  EXPECT_EQ(gt_compress(Fp12::one()), zeros);
  auto one_back = gt_decode(zeros);
  ASSERT_TRUE(one_back.ok());
  EXPECT_TRUE(one_back->is_one());
  // Non-unit-norm elements are rejected at compression time.
  Fp12 not_gt = Fp12::random(rng);
  EXPECT_THROW(gt_compress(not_gt), std::invalid_argument);
}

TEST(AuditWire, EveryCanonicalTorusCoordinateDecodesToOneUnitNormElement) {
  auto rng = SecureRng::deterministic(411);
  for (int i = 0; i < 4; ++i) {
    // A random canonical c names a unit-norm element with exactly this
    // encoding; it is (overwhelmingly) outside GT, so the decoder refuses it
    // at the subgroup check, with the typed reason.
    ff::Fp6 c = ff::Fp6::random(rng);
    auto bytes = torus_bytes(c);
    Fp12 g = torus_quotient(c);
    EXPECT_TRUE((g * g.conjugate()).is_one());
    EXPECT_EQ(gt_compress(g), bytes);
    ASSERT_FALSE(::dsaudit::pairing::gt_in_subgroup(g));
    EXPECT_EQ(gt_decode(bytes).error, DecodeError::BadGtElement);
  }
  // No flag bits: a set top bit in any coordinate makes it >= p.
  Fp12 g = ::dsaudit::pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  const auto good = gt_compress(g);
  for (int i = 0; i < 6; ++i) {
    auto bytes = good;
    bytes[32 * i] |= 0x80;
    EXPECT_EQ(gt_decode(bytes).error, DecodeError::BadGtElement) << i;
    bytes = good;
    ff::Fp::modulus().to_be_bytes(
        std::span<std::uint8_t, 32>(bytes.data() + 32 * i, 32));
    EXPECT_EQ(gt_decode(bytes).error, DecodeError::BadGtElement) << i;
  }
}

TEST(AuditWire, GtDecompressRejectsUnitNormNonSubgroupElements) {
  auto rng = SecureRng::deterministic(409);
  // f^{p^6 - 1} is unit-norm for any f (it survives gt_compress) but lives in
  // the full order-(p^6+1) subgroup, which is overwhelmingly larger than GT;
  // a decoder that only checks the norm equation would accept it.
  for (int i = 0; i < 3; ++i) {
    Fp12 f = Fp12::random(rng);
    Fp12 u = f.conjugate() * f.inverse();
    ASSERT_FALSE(::dsaudit::pairing::gt_in_subgroup(u));
    auto bytes = gt_compress(u);  // unit-norm: compression accepts
    EXPECT_EQ(gt_decode(bytes).error, DecodeError::BadGtElement);
  }
  // The easy part of the final exponentiation, f^{(p^6-1)(p^2+1)}, lands in
  // the cyclotomic subgroup: such an element passes the Phi_12 identity
  // g^{p^4} * g == g^{p^2}, so only the order-r test can refuse it.
  for (int i = 0; i < 3; ++i) {
    Fp12 f = Fp12::random(rng);
    Fp12 t = f.conjugate() * f.inverse();
    Fp12 cyclo = t.frobenius2() * t;
    ASSERT_TRUE(cyclo.frobenius2().frobenius2() * cyclo == cyclo.frobenius2());
    EXPECT_FALSE(::dsaudit::pairing::gt_in_subgroup(cyclo));
    auto bytes = gt_compress(cyclo);
    EXPECT_EQ(gt_decode(bytes).error, DecodeError::BadGtElement);
  }
  // -1 is unit-norm with order 2; r is odd, so it is not a pairing value. It
  // is also the one unit-norm element without a torus encoding (1 + a = 0),
  // so no byte string decodes to it and compressing it throws.
  Fp12 minus_one{-ff::Fp6::one(), ff::Fp6::zero()};
  EXPECT_FALSE(::dsaudit::pairing::gt_in_subgroup(minus_one));
  EXPECT_THROW(gt_compress(minus_one), std::invalid_argument);
  // Sanity: genuine pairing outputs do pass the subgroup check.
  Fp12 g = ::dsaudit::pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  EXPECT_TRUE(::dsaudit::pairing::gt_in_subgroup(g));
}

TEST(AuditWire, TamperedProofAndKeyEncodingsRejected) {
  auto rng = SecureRng::deterministic(410);
  Scenario sc = make_scenario(1500, 8, rng);
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  Challenge chal = make_challenge(rng, 4);

  // y (resp. y') replaced by the non-canonical encoding r itself.
  auto y_tampered = serialize(prover.prove(chal));
  Fr::modulus().to_be_bytes(
      std::span<std::uint8_t, 32>(y_tampered.data() + 32, 32));
  EXPECT_FALSE(deserialize_basic(y_tampered).has_value());

  // big_r replaced by a unit-norm element outside GT.
  auto priv_bytes = serialize(prover.prove_private(chal, rng));
  Fp12 f = Fp12::random(rng);
  auto bad_r = gt_compress(f.conjugate() * f.inverse());
  std::copy(bad_r.begin(), bad_r.end(), priv_bytes.begin() + 96);
  EXPECT_FALSE(deserialize_private(priv_bytes).has_value());

  // Public keys: s = 0, an infinity epsilon, and a non-GT e(g1, eps) all
  // fail to deserialize.
  auto pk_bytes = serialize(sc.kp.pk, true);
  auto zero_s = pk_bytes;
  std::fill(zero_s.begin(), zero_s.begin() + 8, std::uint8_t{0});
  EXPECT_EQ(decode_public_key(zero_s).error, DecodeError::ZeroForbidden);

  auto inf_eps = pk_bytes;
  std::fill(inf_eps.begin() + 8, inf_eps.begin() + 72, std::uint8_t{0});
  inf_eps[8] = 0x80;  // valid infinity encoding, invalid key component
  EXPECT_EQ(decode_public_key(inf_eps).error, DecodeError::ZeroForbidden);

  auto bad_gt_pk = pk_bytes;
  std::copy(bad_r.begin(), bad_r.end(), bad_gt_pk.end() - 192);
  EXPECT_EQ(decode_public_key(bad_gt_pk).error, DecodeError::BadGtElement);
}

TEST(AuditWire, PublicKeyRoundTripAndFig4Sizes) {
  auto rng = SecureRng::deterministic(408);
  // s = 1 is the one-power edge case (keygen still publishes g1).
  for (std::size_t s : {1u, 2u, 10u, 20u, 50u, 100u}) {
    auto kp = keygen(s, rng);
    for (bool priv : {false, true}) {
      auto bytes = serialize(kp.pk, priv);
      EXPECT_EQ(bytes.size(), PublicKey::serialized_size_for(s, priv));
      // econ's on-chain storage cost prices exactly the serialized key.
      EXPECT_EQ(econ::pk_storage_cost(s, priv, econ::AuditCostModel{}).bytes,
                bytes.size());
      auto back = decode_public_key(bytes);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back->s, s);
      EXPECT_EQ(back->epsilon, kp.pk.epsilon);
      EXPECT_EQ(back->delta, kp.pk.delta);
      ASSERT_EQ(back->g1_alpha_powers.size(), kp.pk.g1_alpha_powers.size());
      if (priv) {
        EXPECT_EQ(back->e_g1_epsilon, kp.pk.e_g1_epsilon);
      }
    }
  }
}

TEST(AuditWire, VerifierKeyBytesMatchSerialize) {
  // The Verifier's once-built encoding is what every contract install puts
  // on chain (and prices), so it must equal serialize(pk, b) byte for byte.
  auto rng = SecureRng::deterministic(409);
  for (std::size_t s : {1u, 4u, 20u}) {
    const auto kp = keygen(s, rng);
    const Verifier verifier(kp.pk);
    for (bool priv : {false, true}) {
      const auto span = verifier.pk_bytes(priv);
      EXPECT_EQ(std::vector<std::uint8_t>(span.begin(), span.end()),
                serialize(kp.pk, priv))
          << "s=" << s << " priv=" << priv;
    }
  }
  // A decoded basic key carries no e(g1, epsilon): its Verifier serves the
  // basic encoding and refuses the private one, as serialize would.
  const auto kp = keygen(4, rng);
  const auto basic = decode_public_key(serialize(kp.pk, false));
  ASSERT_TRUE(basic.ok());
  const Verifier verifier(*basic);
  const auto span = verifier.pk_bytes(false);
  EXPECT_EQ(std::vector<std::uint8_t>(span.begin(), span.end()),
            serialize(kp.pk, false));
  EXPECT_THROW(verifier.pk_bytes(true), std::invalid_argument);
  EXPECT_THROW(serialize(*basic, true), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Misc protocol pieces.
// ---------------------------------------------------------------------------

TEST(AuditMisc, ChunksForConfidenceMatchesPaper) {
  // §VI-A: "setting k to 300 can give D storage assurance of 95% if only 1%
  // of entire data is tampered" — ln(0.05)/ln(0.99) = 298.07 -> 299.
  std::size_t k95 = chunks_for_confidence(0.95, 0.01);
  EXPECT_GE(k95, 295u);
  EXPECT_LE(k95, 300u);
  // Fig. 9's sweep endpoints.
  EXPECT_NEAR(static_cast<double>(chunks_for_confidence(0.91, 0.01)), 240.0, 5.0);
  EXPECT_NEAR(static_cast<double>(chunks_for_confidence(0.99, 0.01)), 460.0, 5.0);
  EXPECT_THROW(chunks_for_confidence(1.0, 0.01), std::invalid_argument);
  EXPECT_THROW(chunks_for_confidence(0.95, 0.0), std::invalid_argument);
}

TEST(AuditMisc, ExpandChallengeDeterministicAndDistinct) {
  auto rng = SecureRng::deterministic(409);
  Challenge c = make_challenge(rng, 50);
  auto a = expand_challenge(c, 200);
  auto b = expand_challenge(c, 200);
  EXPECT_EQ(a.indices, b.indices);
  for (std::size_t i = 0; i < a.coefficients.size(); ++i) {
    EXPECT_EQ(a.coefficients[i], b.coefficients[i]);
  }
  EXPECT_EQ(a.indices.size(), 50u);
  EXPECT_THROW(expand_challenge(c, 0), std::invalid_argument);
  Challenge zero_k = c;
  zero_k.k = 0;
  EXPECT_THROW(expand_challenge(zero_k, 10), std::invalid_argument);
}

TEST(AuditMisc, HashGtIsDeterministicAndSensitive) {
  auto rng = SecureRng::deterministic(410);
  Fp12 a = Fp12::random(rng);
  Fp12 b = Fp12::random(rng);
  EXPECT_EQ(hash_gt_to_fr(a), hash_gt_to_fr(a));
  EXPECT_NE(hash_gt_to_fr(a), hash_gt_to_fr(b));
}

// Pinned outputs of the PRF-to-Z_p and GT-to-Z_p maps: prover and verifier
// must agree on the coefficients and on H' across versions.
TEST(AuditMisc, ChallengeAndGtHashKnownAnswers) {
  Challenge c;
  for (int i = 0; i < 32; ++i) {
    c.c1[i] = static_cast<std::uint8_t>(i);
    c.c2[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  c.k = 8;
  const auto ex = expand_challenge(c, 1000);
  const std::vector<std::uint64_t> indices{845, 540, 456, 295, 861, 993, 464, 970};
  const char* coefficients[] = {
      "0x1406a6f4f38ff9157c502ca6d4c622d128938d9a65f667745efbbef93666854c",
      "0x26963c787a7e73b70bbeb834d626b3ceb9a1ab2ef7454c932caa3df3aa3bac3f",
      "0x2d5f270f46f46ca972691bafe664e1ec5e68f03a30346549ca3a827a6d93a9fa",
      "0x2bf06dd2801a9e18afe2fe01f373f68531f5fcd06a17e416d37eb300f2f53639",
      "0x34b7aed57319b6f7c55ff9712437dd2e7ffba987b932aa6cac65b91069a226d",
      "0x1e47cf667f37a14024180dedb6c2d7651df6d4481accaf531ebdd7b4a86145f1",
      "0xf662b7bbf6f641cbdb1ff37cbf083ebe6ed6f1f2bb12fc374cebde220c4f702",
      "0xa460d6c3d911835f15b87f0b72dd66adc8b9bf7c66caa3e7b8034ea949600e7"};
  EXPECT_EQ(ex.indices, indices);
  ASSERT_EQ(ex.coefficients.size(), 8u);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(ex.coefficients[j].to_u256().to_hex(), coefficients[j]) << j;
  }
  const Fp12 gt = ::dsaudit::pairing::pairing(curve::G1::generator(),
                                              curve::G2::generator());
  EXPECT_EQ(hash_gt_to_fr(gt).to_u256().to_hex(),
            "0x2f769fdcc2eb1bac504ca15622dd705c13e09a2ea85daf7f87054508ce275e40");
}

TEST(AuditMisc, KeygenValidatesS) {
  auto rng = SecureRng::deterministic(411);
  EXPECT_THROW(keygen(0, rng), std::invalid_argument);
  auto kp = keygen(1, rng);
  EXPECT_EQ(kp.pk.g1_alpha_powers.size(), 1u);
  auto kp50 = keygen(50, rng);
  EXPECT_EQ(kp50.pk.g1_alpha_powers.size(), 49u);
  // e(g1, epsilon) consistency.
  EXPECT_EQ(kp50.pk.e_g1_epsilon,
            ::dsaudit::pairing::pairing(curve::G1::generator(), kp50.pk.epsilon));
}

}  // namespace
}  // namespace dsaudit::audit
