// Cross-layer integration tests: beacon -> contract -> prover -> chain ->
// attack, exercising seams that unit tests cannot (challenge derivation from
// beacon outputs, audit trails scraped from chain events, eclipse scenarios
// against a live contract, wire formats across the trust boundary).
#include <gtest/gtest.h>

#include "attack/trail_attack.hpp"
#include "audit/serialize.hpp"
#include "contract/audit_contract.hpp"
#include "pairing/pairing.hpp"

namespace dsaudit {
namespace {

using audit::Challenge;
using primitives::SecureRng;

struct Deployment {
  chain::Blockchain chain;
  std::unique_ptr<chain::RandomnessBeacon> beacon;
  audit::KeyPair kp;
  storage::EncodedFile file;
  audit::FileTag tag;
  audit::Fr name;
  std::unique_ptr<audit::Prover> prover;
  std::unique_ptr<audit::Verifier> verifier;  // borrowed by the contract
  std::unique_ptr<audit::PreparedFile> file_ctx;
  std::unique_ptr<contract::AuditContract> contract;

  Deployment(contract::ContractTerms terms, std::size_t file_size, std::size_t s,
             std::unique_ptr<chain::RandomnessBeacon> b, std::uint64_t seed = 900)
      : beacon(std::move(b)) {
    auto rng = SecureRng::deterministic(seed);
    kp = audit::keygen(s, rng);
    std::vector<std::uint8_t> data(file_size);
    rng.fill(data);
    file = storage::encode_file(data, s);
    name = audit::Fr::random(rng);
    tag = audit::generate_tags(kp.sk, kp.pk, file, name);
    prover = std::make_unique<audit::Prover>(kp.pk, file, tag);
    chain.mint(terms.owner, 1'000'000);
    chain.mint(terms.provider, 1'000'000);
    verifier = std::make_unique<audit::Verifier>(kp.pk);
    file_ctx = std::make_unique<audit::PreparedFile>(
        audit::prepare_file(name, file.num_chunks()));
    contract = std::make_unique<contract::AuditContract>(
        chain, *beacon, terms, *verifier, name, file.num_chunks(),
        file_ctx.get());
  }
};

contract::ContractTerms terms(std::uint64_t num_audits, bool priv) {
  contract::ContractTerms t;
  t.owner = "alice";
  t.provider = "bob";
  t.num_audits = num_audits;
  t.audit_period_s = 3600;
  t.response_window_s = 600;
  t.reward_per_audit = 10;
  t.penalty_per_fail = 20;
  t.challenged_chunks = 999;  // challenge all
  t.private_proofs = priv;
  return t;
}

TEST(Integration, CommitRevealBeaconDrivesContract) {
  // The contract consumes commit-reveal randomness; all rounds pass and the
  // per-round challenges differ.
  std::array<std::uint8_t, 32> seed{};
  seed[0] = 9;
  Deployment d(terms(4, true), 2000, 5,
               std::make_unique<chain::CommitRevealBeacon>(seed, 8));
  audit::Prover* prover = d.prover.get();
  d.contract->set_responder(
      [prover](const Challenge& chal) -> std::optional<std::vector<std::uint8_t>> {
        auto rng = SecureRng::from_os();
        return audit::serialize(prover->prove_private(chal, rng));
      });
  d.contract->negotiated();
  d.contract->acked(true);
  d.contract->freeze();
  d.chain.advance(6 * 3600);
  EXPECT_EQ(d.contract->passes(), 4u);
  EXPECT_FALSE(d.contract->rounds()[0].challenge.r == d.contract->rounds()[1].challenge.r);
}

TEST(Integration, VdfBeaconDrivesContract) {
  std::array<std::uint8_t, 32> seed{};
  seed[1] = 7;
  Deployment d(terms(2, false), 1500, 4,
               std::make_unique<chain::VdfBeacon>(seed, 200));
  audit::Prover* prover = d.prover.get();
  d.contract->set_responder(
      [prover](const Challenge& chal) -> std::optional<std::vector<std::uint8_t>> {
        return audit::serialize(prover->prove(chal));
      });
  d.contract->negotiated();
  d.contract->acked(true);
  d.contract->freeze();
  d.chain.advance(4 * 3600);
  EXPECT_EQ(d.contract->passes(), 2u);
}

TEST(Integration, AttackerScrapesRealContractTrails) {
  // End-to-end §V-C on actual contract records: a NON-private contract runs
  // its full horizon; the adversary reads (challenge, y) pairs straight out
  // of the public RoundRecords and reconstructs the file.
  std::array<std::uint8_t, 32> seed{};
  seed[2] = 5;
  const std::size_t s = 3;
  // Small file so d*s trails fit into the contract horizon.
  Deployment d(terms(24, /*priv=*/false), 400, s,
               std::make_unique<chain::TrustedBeacon>(seed));
  const std::size_t chunks = d.file.num_chunks();
  ASSERT_LE(chunks * s, 24u);  // enough rounds to close the system
  audit::Prover* prover = d.prover.get();
  std::vector<audit::ProofBasic> posted;
  d.contract->set_responder(
      [prover, &posted](const Challenge& chal)
          -> std::optional<std::vector<std::uint8_t>> {
        posted.push_back(prover->prove(chal));
        return audit::serialize(posted.back());
      });
  d.contract->negotiated();
  d.contract->acked(true);
  d.contract->freeze();
  d.chain.advance(26 * 3600);
  ASSERT_EQ(d.contract->passes(), 24u);

  attack::TrailAnalyzer observer(chunks, s);
  const auto& rounds = d.contract->rounds();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    observer.add_trail({rounds[i].challenge, posted[i].y});
  }
  auto loot = observer.recover();
  ASSERT_TRUE(loot.has_value());
  EXPECT_EQ(attack::recovery_rate(*loot, d.file), 1.0);
}

TEST(Integration, PrivateContractTrailsResistTheSameScrape) {
  std::array<std::uint8_t, 32> seed{};
  seed[3] = 5;
  const std::size_t s = 3;
  Deployment d(terms(24, /*priv=*/true), 400, s,
               std::make_unique<chain::TrustedBeacon>(seed));
  audit::Prover* prover = d.prover.get();
  std::vector<audit::ProofPrivate> posted;
  d.contract->set_responder(
      [prover, &posted](const Challenge& chal)
          -> std::optional<std::vector<std::uint8_t>> {
        auto rng = SecureRng::from_os();
        posted.push_back(prover->prove_private(chal, rng));
        return audit::serialize(posted.back());
      });
  d.contract->negotiated();
  d.contract->acked(true);
  d.contract->freeze();
  d.chain.advance(26 * 3600);
  ASSERT_EQ(d.contract->passes(), 24u);

  attack::TrailAnalyzer observer(d.file.num_chunks(), s);
  const auto& rounds = d.contract->rounds();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    observer.add_trail({rounds[i].challenge, posted[i].y_prime});
  }
  EXPECT_FALSE(observer.recover().has_value());
}

TEST(Integration, KeyAndTagFilesRoundTripThroughWireFormats) {
  // The CLI's file formats: every artifact survives serialize/deserialize
  // and still verifies.
  auto rng = SecureRng::deterministic(903);
  auto kp = audit::keygen(7, rng);
  std::vector<std::uint8_t> data(3000);
  rng.fill(data);
  auto file = storage::encode_file(data, 7);
  auto name = audit::Fr::random(rng);
  auto tag = audit::generate_tags(kp.sk, kp.pk, file, name);

  auto sk2 = audit::decode_secret_key(audit::serialize(kp.sk));
  ASSERT_TRUE(sk2.ok());
  EXPECT_EQ(sk2->x, kp.sk.x);
  EXPECT_EQ(sk2->alpha, kp.sk.alpha);

  auto tag2 = audit::decode_file_tag(audit::serialize(tag));
  ASSERT_TRUE(tag2.ok());
  EXPECT_EQ(tag2->name, tag.name);
  ASSERT_EQ(tag2->sigmas.size(), tag.sigmas.size());

  Challenge chal;
  chal.c1 = rng.bytes32();
  chal.c2 = rng.bytes32();
  chal.r = audit::Fr::random(rng);
  chal.k = 5;
  auto chal2 = audit::decode_challenge(audit::serialize(chal));
  ASSERT_TRUE(chal2.ok());
  EXPECT_EQ(chal2->k, 5u);
  EXPECT_EQ(chal2->r, chal.r);
  EXPECT_EQ(chal2->c1, chal.c1);

  // Re-verify through the round-tripped artifacts only.
  auto pk2 = audit::decode_public_key(audit::serialize(kp.pk, true));
  ASSERT_TRUE(pk2.ok());
  audit::Prover prover(*pk2, file, *tag2);
  auto proof = prover.prove_private(*chal2, rng);
  EXPECT_TRUE(audit::Verifier(*pk2).verify_private(tag2->name, tag2->num_chunks,
                                                   *chal2, proof));
}

TEST(Integration, MalformedFileArtifactsRejected) {
  auto rng = SecureRng::deterministic(904);
  auto kp = audit::keygen(4, rng);
  auto sk_bytes = audit::serialize(kp.sk);
  sk_bytes.pop_back();
  EXPECT_EQ(audit::decode_secret_key(sk_bytes).error,
            audit::DecodeError::BadLength);
  std::vector<std::uint8_t> zero_sk(64, 0);
  EXPECT_EQ(audit::decode_secret_key(zero_sk).error,
            audit::DecodeError::ZeroForbidden);

  std::vector<std::uint8_t> data(500);
  rng.fill(data);
  auto file = storage::encode_file(data, 4);
  auto tag = audit::generate_tags(kp.sk, kp.pk, file, audit::Fr::one());
  auto tag_bytes = audit::serialize(tag);
  // Overwrite the first sigma with an unambiguously invalid encoding
  // (x >= p with both flag bits set on a non-zero payload).
  std::fill(tag_bytes.begin() + 48, tag_bytes.begin() + 80, 0xff);
  EXPECT_EQ(audit::decode_file_tag(tag_bytes).error,
            audit::DecodeError::BadPoint);
  tag_bytes.resize(40);
  EXPECT_EQ(audit::decode_file_tag(tag_bytes).error,
            audit::DecodeError::BadLength);

  std::vector<std::uint8_t> chal_bytes(104, 0xff);
  EXPECT_EQ(audit::decode_challenge(chal_bytes).error,
            audit::DecodeError::NonCanonicalScalar);
}

TEST(Integration, TwoContractsShareOneChainIndependently) {
  // Two unrelated (owner, provider) pairs on the same blockchain: one honest,
  // one unresponsive. Outcomes must not bleed across contracts.
  std::array<std::uint8_t, 32> seed{};
  chain::Blockchain bc;
  chain::TrustedBeacon beacon(seed);
  auto rng = SecureRng::deterministic(905);

  auto mk = [&](const std::string& owner, const std::string& provider) {
    auto kp = audit::keygen(4, rng);
    std::vector<std::uint8_t> data(800);
    rng.fill(data);
    auto file = storage::encode_file(data, 4);
    auto name = audit::Fr::random(rng);
    auto tag = audit::generate_tags(kp.sk, kp.pk, file, name);
    bc.mint(owner, 100'000);
    bc.mint(provider, 100'000);
    contract::ContractTerms t = terms(3, true);
    t.owner = owner;
    t.provider = provider;
    return std::tuple{kp, file, tag, name, t};
  };

  auto [kp1, file1, tag1, name1, t1] = mk("o1", "p1");
  auto [kp2, file2, tag2, name2, t2] = mk("o2", "p2");
  audit::Verifier v1(kp1.pk), v2(kp2.pk);
  const auto ctx1 = audit::prepare_file(name1, file1.num_chunks());
  const auto ctx2 = audit::prepare_file(name2, file2.num_chunks());
  contract::AuditContract c1(bc, beacon, t1, v1, name1, file1.num_chunks(),
                             &ctx1);
  contract::AuditContract c2(bc, beacon, t2, v2, name2, file2.num_chunks(),
                             &ctx2);
  audit::Prover p1(kp1.pk, file1, tag1);
  c1.set_responder([&](const Challenge& chal) -> std::optional<std::vector<std::uint8_t>> {
    auto r = SecureRng::from_os();
    return audit::serialize(p1.prove_private(chal, r));
  });
  // c2 has no responder: times out.
  for (auto* c : {&c1, &c2}) {
    c->negotiated();
    c->acked(true);
    c->freeze();
  }
  bc.advance(5 * 3600);
  EXPECT_EQ(c1.passes(), 3u);
  EXPECT_EQ(c1.timeouts(), 0u);
  EXPECT_EQ(c2.passes(), 0u);
  EXPECT_EQ(c2.timeouts(), 3u);
  // p2 lost collateral to o2; p1 earned rewards.
  EXPECT_EQ(bc.balance("p1"), 100'000 + 3 * 10u);
  EXPECT_EQ(bc.balance("o2"), 100'000 + 3 * 20u);
}

TEST(Integration, ProofsAreNotTransferableAcrossFiles) {
  // A proof for file A must not verify against file B's name/tag even under
  // the same key and challenge (the H(name||i) binding).
  auto rng = SecureRng::deterministic(906);
  auto kp = audit::keygen(5, rng);
  std::vector<std::uint8_t> da(1000), db(1000);
  rng.fill(da);
  rng.fill(db);
  auto fa = storage::encode_file(da, 5);
  auto fb = storage::encode_file(db, 5);
  auto na = audit::Fr::random(rng);
  auto nb = audit::Fr::random(rng);
  auto ta = audit::generate_tags(kp.sk, kp.pk, fa, na);
  audit::Prover prover(kp.pk, fa, ta);
  Challenge chal;
  chal.c1 = rng.bytes32();
  chal.c2 = rng.bytes32();
  chal.r = audit::Fr::random(rng);
  chal.k = 3;
  auto proof = prover.prove(chal);
  audit::Verifier verifier(kp.pk);
  EXPECT_TRUE(verifier.verify(na, fa.num_chunks(), chal, proof));
  EXPECT_FALSE(verifier.verify(nb, fb.num_chunks(), chal, proof));
}

}  // namespace
}  // namespace dsaudit
