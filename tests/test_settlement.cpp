// Batched round settlement, end to end: the audit-layer engine (cross-key
// and private batches, exact pairing counts, culprit isolation by
// bisection), the contract-layer BatchSettlement (weight freshness,
// cross-contract blocks), and batched-vs-sequential bit identity of the
// whole simulated network — chain state, gas totals and ledger.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "attack/adversary.hpp"
#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "contract/batch_settlement.hpp"
#include "econ/cost_model.hpp"
#include "pairing/pairing.hpp"
#include "primitives/keccak256.hpp"
#include "sim/network_sim.hpp"
#include "support/audit_textbook.hpp"

namespace dsaudit {
namespace {

using audit::Challenge;
using audit::Fr;
using audit::KeyPair;
using audit::PreparedFile;
using audit::Prover;
using audit::SettlementInstance;
using audit::SettlementOutcome;
using audit::Verifier;
using primitives::SecureRng;

std::vector<std::uint8_t> random_bytes(std::size_t n, SecureRng& rng) {
  std::vector<std::uint8_t> v(n);
  rng.fill(v);
  return v;
}

struct Scenario {
  KeyPair kp;
  storage::EncodedFile file;
  audit::FileTag tag;
  Fr name;
};

Scenario make_scenario(std::size_t file_size, std::size_t s, SecureRng& rng) {
  Scenario sc;
  sc.kp = audit::keygen(s, rng);
  auto data = random_bytes(file_size, rng);
  sc.file = storage::encode_file(data, s);
  sc.name = Fr::random(rng);
  sc.tag = audit::generate_tags(sc.kp.sk, sc.kp.pk, sc.file, sc.name);
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

std::array<std::uint8_t, 32> seed_of(SecureRng& rng) { return rng.bytes32(); }

// ---------------------------------------------------------------------------
// audit::verify_settlement — the aggregation engine.
// ---------------------------------------------------------------------------

TEST(Settlement, SameKeyBatchIsExactlyThreePairings) {
  auto rng = SecureRng::deterministic(900);
  Scenario sc = make_scenario(4000, 6, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(16);
  for (auto& inst : instances) {
    inst.verifier = &verifier;
    inst.file = &ctx;
    inst.challenge = make_challenge(rng, 5);
    inst.basic = prover.prove(inst.challenge);
  }
  pairing::reset_pairing_counters();
  SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
  auto counters = pairing::pairing_counters();

  EXPECT_TRUE(out.all_ok());
  EXPECT_EQ(out.batch_checks, 1u);
  EXPECT_EQ(out.single_checks, 0u);
  // The headline invariant: 16 rounds of one key settle with EXACTLY 3
  // Miller chains and one final exponentiation.
  EXPECT_EQ(counters.chains, 3u);
  EXPECT_EQ(counters.final_exps, 1u);
}

TEST(Settlement, CrossKeyBatchCostsOnePlusTwoPerKey) {
  auto rng = SecureRng::deterministic(901);
  Scenario a = make_scenario(3000, 5, rng);
  Scenario b = make_scenario(3500, 6, rng);
  Verifier va(a.kp.pk), vb(b.kp.pk);
  PreparedFile ca = audit::prepare_file(a.name, a.file.num_chunks());
  PreparedFile cb = audit::prepare_file(b.name, b.file.num_chunks());
  Prover pa(a.kp.pk, a.file, a.tag), pb(b.kp.pk, b.file, b.tag);

  std::vector<SettlementInstance> instances;
  for (int i = 0; i < 4; ++i) {
    SettlementInstance inst;
    const bool first = i % 2 == 0;
    inst.verifier = first ? &va : &vb;
    inst.file = first ? &ca : &cb;
    inst.challenge = make_challenge(rng, 4);
    inst.basic = (first ? pa : pb).prove(inst.challenge);
    instances.push_back(std::move(inst));
  }
  pairing::reset_pairing_counters();
  SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
  auto counters = pairing::pairing_counters();

  EXPECT_TRUE(out.all_ok());
  // Two distinct keys: shared generator chain + (epsilon, delta) per key.
  EXPECT_EQ(counters.chains, 1u + 2u * 2u);
  EXPECT_EQ(counters.final_exps, 1u);
}

TEST(Settlement, SameKeyAcrossDistinctVerifierObjectsStillGroups) {
  auto rng = SecureRng::deterministic(902);
  Scenario sc = make_scenario(3000, 5, rng);
  // Two Verifier objects over the same public key (two contracts of one
  // owner): content-based grouping must still give 3 pairings.
  Verifier v1(sc.kp.pk), v2(sc.kp.pk);
  EXPECT_EQ(v1.key_id(), v2.key_id());
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(4);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    instances[i].verifier = i % 2 ? &v1 : &v2;
    instances[i].file = &ctx;
    instances[i].challenge = make_challenge(rng, 4);
    instances[i].basic = prover.prove(instances[i].challenge);
  }
  pairing::reset_pairing_counters();
  EXPECT_TRUE(audit::verify_settlement(instances, seed_of(rng)).all_ok());
  EXPECT_EQ(pairing::pairing_counters().chains, 3u);
}

TEST(Settlement, PrivateAndMixedProofBatches) {
  auto rng = SecureRng::deterministic(903);
  Scenario sc = make_scenario(4000, 6, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(6);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    instances[i].verifier = &verifier;
    instances[i].file = &ctx;
    instances[i].challenge = make_challenge(rng, 5);
    if (i % 2 == 0) {
      instances[i].priv = prover.prove_private(instances[i].challenge, rng);
    } else {
      instances[i].basic = prover.prove(instances[i].challenge);
    }
  }
  pairing::reset_pairing_counters();
  SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
  EXPECT_TRUE(out.all_ok());
  // The private commitments fold into the GT side; still 3 pairings.
  EXPECT_EQ(pairing::pairing_counters().chains, 3u);

  // A tampered private proof fails its round (and only its round).
  instances[2].priv->y_prime += Fr::one();
  out = audit::verify_settlement(instances, seed_of(rng));
  EXPECT_FALSE(out.ok[2]);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (i != 2) EXPECT_TRUE(out.ok[i]) << i;
  }
}

TEST(Settlement, BisectionIsolatesSingleCulprit) {
  auto rng = SecureRng::deterministic(904);
  Scenario sc = make_scenario(4000, 6, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(9);
  for (auto& inst : instances) {
    inst.verifier = &verifier;
    inst.file = &ctx;
    inst.challenge = make_challenge(rng, 5);
    inst.basic = prover.prove(inst.challenge);
  }
  instances[5].basic->y += Fr::one();  // the cheater

  SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
  EXPECT_FALSE(out.all_ok());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(out.ok[i], i != 5) << i;
  }
  // Bisection ran: more than one aggregate check, and every leaf it opened
  // was re-verified exactly.
  EXPECT_GT(out.batch_checks, 1u);
  EXPECT_GE(out.single_checks, 1u);
}

TEST(Settlement, BisectionIsolatesMultipleCulprits) {
  auto rng = SecureRng::deterministic(905);
  Scenario sc = make_scenario(4000, 6, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(12);
  for (auto& inst : instances) {
    inst.verifier = &verifier;
    inst.file = &ctx;
    inst.challenge = make_challenge(rng, 5);
    inst.basic = prover.prove(inst.challenge);
  }
  // Three cheaters in different halves, plus adjacent honest rounds.
  instances[0].basic->y += Fr::one();
  instances[6].basic->sigma =
      (curve::G1(instances[6].basic->sigma) + curve::G1::generator()).to_affine_point();
  instances[11].basic->psi = -instances[11].basic->psi;

  SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const bool cheat = i == 0 || i == 6 || i == 11;
    EXPECT_EQ(out.ok[i], !cheat) << i;
  }
}

TEST(Settlement, MalformedInstancesFailWithoutPoisoningTheBatch) {
  auto rng = SecureRng::deterministic(906);
  Scenario sc = make_scenario(3000, 5, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(5);
  for (auto& inst : instances) {
    inst.verifier = &verifier;
    inst.file = &ctx;
    inst.challenge = make_challenge(rng, 4);
    inst.basic = prover.prove(inst.challenge);
  }
  instances[0].verifier = nullptr;              // no key
  instances[1].basic.reset();                   // no proof at all
  instances[2].priv = audit::ProofPrivate{};    // both shapes engaged
  instances[3].basic.reset();                   // a private proof whose R is zero
  instances[3].priv = prover.prove_private(instances[3].challenge, rng);
  instances[3].priv->big_r = ff::Fp12::zero();

  SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
  EXPECT_FALSE(out.ok[0]);
  EXPECT_FALSE(out.ok[1]);
  EXPECT_FALSE(out.ok[2]);
  EXPECT_FALSE(out.ok[3]);
  EXPECT_TRUE(out.ok[4]);

  // And the empty batch is trivially clean.
  EXPECT_TRUE(audit::verify_settlement({}, seed_of(rng)).all_ok());
}

TEST(Settlement, ColdPathWithoutPreparedFileMatches) {
  auto rng = SecureRng::deterministic(907);
  Scenario sc = make_scenario(3000, 5, rng);
  Verifier verifier(sc.kp.pk);
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  SettlementInstance inst;
  inst.verifier = &verifier;
  inst.name = sc.name;
  inst.num_chunks = sc.file.num_chunks();
  inst.challenge = make_challenge(rng, 4);
  inst.basic = prover.prove(inst.challenge);
  EXPECT_TRUE(
      audit::verify_settlement(std::span<const SettlementInstance>(&inst, 1),
                               seed_of(rng))
          .all_ok());
  inst.basic->y += Fr::one();
  EXPECT_FALSE(
      audit::verify_settlement(std::span<const SettlementInstance>(&inst, 1),
                               seed_of(rng))
          .all_ok());
}

TEST(Settlement, CheaterAtEveryWindowPosition) {
  // A multi-instant window batch: two keys, three file contexts, mixed
  // Eq. 1 / Eq. 2 shapes — then a cheating round injected at EVERY position
  // in turn. Bisection must isolate exactly the culprit; every honest round
  // in the same window settles Pass, whichever position cheats.
  auto rng = SecureRng::deterministic(910);
  Scenario a = make_scenario(3000, 5, rng);
  Scenario b = make_scenario(2500, 5, rng);
  Verifier va(a.kp.pk), vb(b.kp.pk);
  PreparedFile ca = audit::prepare_file(a.name, a.file.num_chunks());
  PreparedFile cb = audit::prepare_file(b.name, b.file.num_chunks());
  Prover pa(a.kp.pk, a.file, a.tag), pb(b.kp.pk, b.file, b.tag);

  std::vector<SettlementInstance> window(8);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const bool first_key = i % 3 != 0;
    auto& inst = window[i];
    inst.verifier = first_key ? &va : &vb;
    inst.file = first_key ? &ca : &cb;
    inst.challenge = make_challenge(rng, 4);
    Prover& p = first_key ? pa : pb;
    if (i % 2 == 0) {
      inst.priv = p.prove_private(inst.challenge, rng);
    } else {
      inst.basic = p.prove(inst.challenge);
    }
  }

  for (std::size_t cheat = 0; cheat < window.size(); ++cheat) {
    std::vector<SettlementInstance> batch = window;
    if (batch[cheat].basic) {
      batch[cheat].basic->y += Fr::one();
    } else {
      batch[cheat].priv->y_prime += Fr::one();
    }
    SettlementOutcome out = audit::verify_settlement(batch, seed_of(rng));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(out.ok[i], i != cheat) << "cheat at " << cheat << ", round " << i;
    }
    EXPECT_GT(out.batch_checks, 1u) << cheat;   // bisection actually ran
    EXPECT_GE(out.single_checks, 1u) << cheat;  // and re-verified the leaf
  }
}

TEST(Settlement, MixedShapeWindowPairingCountAcrossKeys) {
  // >= 3 contracts' worth of rounds (three file contexts) over 2 distinct
  // keys, Eq. 1 and Eq. 2 mixed: a clean window must cost exactly
  // 1 + 2 * (#keys) Miller chains and one final exponentiation, with every
  // private commitment folded through the shared GT multi-exponentiation.
  auto rng = SecureRng::deterministic(911);
  Scenario a = make_scenario(3200, 6, rng);
  Scenario b = make_scenario(2400, 4, rng);
  Verifier va(a.kp.pk), vb(b.kp.pk);
  PreparedFile ca1 = audit::prepare_file(a.name, a.file.num_chunks());
  Fr second_name = Fr::random(rng);
  auto second_tag = audit::generate_tags(a.kp.sk, a.kp.pk, a.file, second_name);
  PreparedFile ca2 = audit::prepare_file(second_name, a.file.num_chunks());
  PreparedFile cb = audit::prepare_file(b.name, b.file.num_chunks());
  Prover pa1(a.kp.pk, a.file, a.tag), pa2(a.kp.pk, a.file, second_tag);
  Prover pb(b.kp.pk, b.file, b.tag);

  std::vector<SettlementInstance> instances(9);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    auto& inst = instances[i];
    switch (i % 3) {
      case 0: inst.verifier = &va; inst.file = &ca1; break;
      case 1: inst.verifier = &va; inst.file = &ca2; break;
      default: inst.verifier = &vb; inst.file = &cb; break;
    }
    inst.challenge = make_challenge(rng, 4);
    Prover& p = i % 3 == 0 ? pa1 : i % 3 == 1 ? pa2 : pb;
    if (i % 2 == 0) {
      inst.priv = p.prove_private(inst.challenge, rng);
    } else {
      inst.basic = p.prove(inst.challenge);
    }
  }
  pairing::reset_pairing_counters();
  SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
  auto counters = pairing::pairing_counters();
  EXPECT_TRUE(out.all_ok());
  EXPECT_EQ(out.batch_checks, 1u);
  EXPECT_EQ(counters.chains, 1u + 2u * 2u);
  EXPECT_EQ(counters.final_exps, 1u);

  // One cheater per key, different shapes: exactly those two rounds fail.
  instances[3].basic->sigma =
      (curve::G1(instances[3].basic->sigma) + curve::G1::generator()).to_affine_point();
  instances[8].priv->y_prime += Fr::one();
  out = audit::verify_settlement(instances, seed_of(rng));
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(out.ok[i], i != 3 && i != 8) << i;
  }
}

TEST(Settlement, AggregateSettlementTxVerifiesAndBindsItsSeed) {
  // The one-tx-per-window object: seed + nonce + one aggregated KZG opening
  // + the outcome bitmap. An honest tx — whose seed IS
  // derive_settlement_seed(nonce, boundary, transcripts) — is accepted; a
  // ground/self-chosen seed, a tampered nonce or boundary, a substituted
  // opening, a lying bitmap or a count/transcript mismatch is refused.
  auto rng = SecureRng::deterministic(913);
  Scenario sc = make_scenario(4000, 6, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(9);
  std::vector<std::array<std::uint8_t, 32>> transcripts;
  for (auto& inst : instances) {
    inst.verifier = &verifier;
    inst.file = &ctx;
    inst.challenge = make_challenge(rng, 5);
    inst.basic = prover.prove(inst.challenge);
    transcripts.push_back(rng.bytes32());
  }
  instances[4].basic->y += Fr::one();  // one cheater: a dirty-window bitmap

  const std::uint64_t nonce = 0x5EED'0913;
  const std::uint64_t boundary = 4000;
  const auto seed = audit::derive_settlement_seed(nonce, boundary, transcripts);
  audit::SettlementOptions opts;
  opts.compute_aggregate_opening = true;
  SettlementOutcome out = audit::verify_settlement(instances, seed, opts);
  ASSERT_FALSE(out.all_ok());

  audit::AggregateSettlement tx;
  tx.weight_seed = seed;
  tx.seed_nonce = nonce;
  tx.window_boundary = boundary;
  tx.rounds = instances.size();
  tx.opening = out.aggregated_opening;
  tx.outcomes.assign(audit::AggregateSettlement::bitmap_bytes(tx.rounds), 0);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    tx.set_outcome(i, out.ok[i]);
  }

  EXPECT_TRUE(
      audit::verify_settlement_aggregate(instances, transcripts, boundary, tx));
  // Round-trips through the wire format and still verifies.
  auto decoded = audit::decode_aggregate_settlement(audit::serialize(tx));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(audit::verify_settlement_aggregate(instances, transcripts,
                                                 boundary, *decoded));

  // Ground seed: no longer the transcript derivation — refused.
  audit::AggregateSettlement bad = tx;
  bad.weight_seed[0] ^= 1;
  EXPECT_FALSE(
      audit::verify_settlement_aggregate(instances, transcripts, boundary, bad));
  // Tampered nonce: the seed no longer re-derives.
  bad = tx;
  bad.seed_nonce ^= 1;
  EXPECT_FALSE(
      audit::verify_settlement_aggregate(instances, transcripts, boundary, bad));
  // Replay against a different window: the boundary check refuses it (and
  // even a boundary-matching forgery would fail the seed re-derivation).
  EXPECT_FALSE(audit::verify_settlement_aggregate(instances, transcripts,
                                                  boundary + 4000, tx));
  bad = tx;
  bad.window_boundary += 4000;
  EXPECT_FALSE(
      audit::verify_settlement_aggregate(instances, transcripts, boundary, bad));
  // Substituted opening.
  bad = tx;
  bad.opening = bad.opening + curve::G1::generator();
  EXPECT_FALSE(
      audit::verify_settlement_aggregate(instances, transcripts, boundary, bad));
  // Lying bitmap: the cheater marked clean.
  bad = tx;
  bad.outcomes[0] |= static_cast<std::uint8_t>(1u << 4);
  EXPECT_FALSE(
      audit::verify_settlement_aggregate(instances, transcripts, boundary, bad));
  // Count mismatch with the instance set.
  EXPECT_FALSE(audit::verify_settlement_aggregate(
      std::span<const SettlementInstance>(instances.data(), 8),
      std::span<const std::array<std::uint8_t, 32>>(transcripts.data(), 8),
      boundary, tx));
  // Transcript substitution: same instances, different committed identities.
  auto other = transcripts;
  other[0][0] ^= 1;
  EXPECT_FALSE(
      audit::verify_settlement_aggregate(instances, other, boundary, tx));
}

TEST(Settlement, ColludingCancellationUnderSelfChosenSeedIsRefused) {
  // The attack the seed binding exists for: batch weights rho_i are a public
  // function of the seed, so a prover who FIXES a seed before crafting
  // proofs can corrupt two rounds with errors that cancel in the weighted
  // batch check (d2 = -rho1*d1/rho2 on the y slot; zeta = 1 for basic
  // proofs). Under the self-chosen seed the whole window then "settles
  // clean" — the forged tx's bitmap and opening both match. The aggregate
  // verifier must still refuse it, because that seed cannot be presented as
  // Keccak(nonce || boundary || transcripts) over the committed transcripts.
  auto rng = SecureRng::deterministic(914);
  Scenario sc = make_scenario(4000, 6, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(6);
  std::vector<std::array<std::uint8_t, 32>> transcripts;
  for (auto& inst : instances) {
    inst.verifier = &verifier;
    inst.file = &ctx;
    inst.challenge = make_challenge(rng, 5);
    inst.basic = prover.prove(inst.challenge);
    transcripts.push_back(rng.bytes32());
  }

  // The engine's public weight schedule: rho_i = low 16 bytes of
  // Keccak(seed || 'w' || i), interpreted big-endian (see weight_at in
  // protocol.cpp).
  const auto attacker_seed = seed_of(rng);
  auto rho_at = [&](std::uint64_t i) {
    std::array<std::uint8_t, 41> buf;
    std::memcpy(buf.data(), attacker_seed.data(), 32);
    buf[32] = 'w';
    for (int b = 0; b < 8; ++b) {
      buf[33 + b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    const auto h = primitives::Keccak256::hash(
        std::span<const std::uint8_t>(buf.data(), buf.size()));
    std::array<std::uint8_t, 32> wide{};
    std::copy(h.begin(), h.begin() + 16, wide.end() - 16);
    return Fr::from_be_bytes_mod(std::span<const std::uint8_t, 32>(wide));
  };
  const Fr d1 = Fr::random(rng);
  const Fr d2 = -(rho_at(1) * d1) * rho_at(2).inverse();
  instances[1].basic->y += d1;
  instances[2].basic->y += d2;

  // The cancellation is real: under the attacker's seed the weighted batch
  // check passes and every round (the two cheaters included) reads Pass.
  audit::SettlementOptions opts;
  opts.compute_aggregate_opening = true;
  SettlementOutcome forged =
      audit::verify_settlement(instances, attacker_seed, opts);
  ASSERT_TRUE(forged.all_ok());

  // The forged window tx: all-pass bitmap, matching opening, the attacker's
  // seed, and whatever nonce/boundary the attacker claims.
  const std::uint64_t boundary = 8000;
  audit::AggregateSettlement tx;
  tx.weight_seed = attacker_seed;
  tx.seed_nonce = 0xBAD5EED;
  tx.window_boundary = boundary;
  tx.rounds = instances.size();
  tx.opening = forged.aggregated_opening;
  tx.outcomes.assign(audit::AggregateSettlement::bitmap_bytes(tx.rounds), 0);
  for (std::size_t i = 0; i < instances.size(); ++i) tx.set_outcome(i, true);

  // Refused: the self-chosen seed is not the derivation over the committed
  // transcripts, for this (or any feasible) nonce.
  EXPECT_FALSE(
      audit::verify_settlement_aggregate(instances, transcripts, boundary, tx));

  // And the honestly derived seed — fixed only after the transcripts — does
  // not cooperate with the cancellation: both cheaters are isolated.
  const auto honest_seed =
      audit::derive_settlement_seed(tx.seed_nonce, boundary, transcripts);
  SettlementOutcome honest =
      audit::verify_settlement(instances, honest_seed, opts);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(honest.ok[i], i != 1 && i != 2) << i;
  }
}

// ---------------------------------------------------------------------------
// Derived-half bisection: of a failing range only the left half is checked
// directly; the right half's GT value is derived as parent · conj(left).
// ---------------------------------------------------------------------------

/// What bisection visits over rounds whose failing ones are flagged in
/// `culprit`: ranges of >= 2 rounds (each needs a weighted value), the
/// subset of those whose value is derived rather than checked (right halves
/// of a failing range whose left half has >= 2 rounds), and the leaves
/// re-verified exactly. A dirty range fails, a clean one passes.
struct BisectionVisits {
  std::size_t ranges = 0;
  std::size_t derived = 0;
  std::size_t leaves = 0;
};

void visit_bisection(const std::vector<bool>& culprit, std::size_t lo,
                     std::size_t hi, BisectionVisits& v) {
  if (hi - lo == 1) {
    ++v.leaves;
    return;
  }
  ++v.ranges;
  bool dirty = false;
  for (std::size_t j = lo; j < hi; ++j) dirty = dirty || culprit[j];
  if (!dirty) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  if (mid - lo >= 2) ++v.derived;
  visit_bisection(culprit, lo, mid, v);
  visit_bisection(culprit, mid, hi, v);
}

TEST(Settlement, DerivedHalfBisectionPinnedCost) {
  // 8 same-key rounds, culprit at 5. Direct checks: [0,8), [0,4), [4,6);
  // derived: [4,8) and [6,8); exact leaves: rounds 4 and 5. Checking both
  // halves directly took 5 weighted checks.
  auto rng = SecureRng::deterministic(915);
  Scenario sc = make_scenario(4000, 6, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  std::vector<SettlementInstance> instances(8);
  for (auto& inst : instances) {
    inst.verifier = &verifier;
    inst.file = &ctx;
    inst.challenge = make_challenge(rng, 5);
    inst.basic = prover.prove(inst.challenge);
  }
  instances[5].basic->y += Fr::one();

  pairing::reset_pairing_counters();
  SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
  const auto counters = pairing::pairing_counters();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(out.ok[i], i != 5) << i;
  }
  EXPECT_EQ(out.batch_checks, 3u);
  EXPECT_EQ(out.derived_checks, 2u);
  EXPECT_EQ(out.single_checks, 2u);
  // A derived half costs no pairing: one final exponentiation per direct
  // weighted check and per exact leaf.
  EXPECT_EQ(counters.final_exps, out.batch_checks + out.single_checks);
}

TEST(Settlement, DerivedHalfBisectionSweepMatchesPerRoundVerdicts) {
  // Seeded sweep over window sizes 1..40, 1..3 keys, mixed Eq. 1 / Eq. 2
  // rounds and culprit sets (none, first, last, an adjacent pair, all, a
  // random quarter). Every round's verdict must equal its own textbook
  // Eq. 1 / Eq. 2 (audit::eq1_textbook / eq2_textbook, which share no code
  // with the engine), and the work must be exactly the two-sided
  // bisection's ranges, split into direct and derived values.
  auto rng = SecureRng::deterministic(916);
  constexpr std::size_t kKeys = 3, kMaxRounds = 40, kTrials = 24;
  std::vector<Scenario> keys;
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys.push_back(make_scenario(1200, 4, rng));
  }
  std::vector<std::unique_ptr<Verifier>> verifiers;
  std::vector<PreparedFile> ctxs;
  struct PoolRound {
    Challenge challenge;
    audit::ProofBasic basic;
    audit::ProofPrivate priv;
  };
  std::vector<std::vector<PoolRound>> pool(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    verifiers.push_back(std::make_unique<Verifier>(keys[k].kp.pk));
    ctxs.push_back(audit::prepare_file(keys[k].name, keys[k].file.num_chunks()));
    Prover prover(keys[k].kp.pk, keys[k].file, keys[k].tag);
    for (std::size_t j = 0; j < kMaxRounds; ++j) {
      PoolRound r;
      r.challenge = make_challenge(rng, 3);
      r.basic = prover.prove(r.challenge);
      r.priv = prover.prove_private(r.challenge, rng);
      pool[k].push_back(std::move(r));
    }
  }

  const std::size_t fixed_sizes[] = {1, 2, 3, kMaxRounds};
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::size_t n =
        trial < 4 ? fixed_sizes[trial] : 1 + rng.uniform(kMaxRounds);
    const std::size_t key_count = 1 + rng.uniform(kKeys);
    std::vector<bool> tamper(n, false);
    switch (trial % 6) {
      case 0: break;
      case 1: tamper[0] = true; break;
      case 2: tamper[n - 1] = true; break;
      case 3: {
        const std::size_t at = n < 2 ? 0 : rng.uniform(n - 1);
        tamper[at] = true;
        if (at + 1 < n) tamper[at + 1] = true;
        break;
      }
      case 4: tamper.assign(n, true); break;
      default:
        for (std::size_t j = 0; j < n; ++j) tamper[j] = rng.uniform(4) == 0;
    }

    std::vector<SettlementInstance> instances(n);
    std::vector<bool> expected(n), culprit(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t k = rng.uniform(key_count);
      const PoolRound& r = pool[k][j];
      SettlementInstance& inst = instances[j];
      inst.verifier = verifiers[k].get();
      inst.file = &ctxs[k];
      inst.challenge = r.challenge;
      const bool is_private = rng.uniform(2) == 1;
      if (is_private) {
        inst.priv = r.priv;
      } else {
        inst.basic = r.basic;
      }
      if (tamper[j]) {
        const std::uint64_t field = rng.uniform(3);
        curve::G1::Affine& sigma = is_private ? inst.priv->sigma : inst.basic->sigma;
        curve::G1::Affine& psi = is_private ? inst.priv->psi : inst.basic->psi;
        Fr& y = is_private ? inst.priv->y_prime : inst.basic->y;
        auto shift = [](curve::G1::Affine& p) {
          p = (curve::G1(p) + curve::G1::generator()).to_affine_point();
        };
        if (field == 0) y += Fr::one();
        if (field == 1) shift(sigma);
        if (field == 2) shift(psi);
      }
      const std::size_t d = keys[k].file.num_chunks();
      expected[j] = is_private
                        ? audit::eq2_textbook(keys[k].kp.pk, keys[k].name, d,
                                              inst.challenge, *inst.priv)
                        : audit::eq1_textbook(keys[k].kp.pk, keys[k].name, d,
                                              inst.challenge, *inst.basic);
      culprit[j] = !expected[j];
      EXPECT_EQ(culprit[j], tamper[j]) << "trial " << trial << ", round " << j;
    }

    pairing::reset_pairing_counters();
    SettlementOutcome out = audit::verify_settlement(instances, seed_of(rng));
    const auto counters = pairing::pairing_counters();
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(out.ok[j], expected[j]) << "trial " << trial << ", round " << j;
    }
    BisectionVisits visits;
    visit_bisection(culprit, 0, n, visits);
    EXPECT_EQ(out.batch_checks + out.derived_checks, visits.ranges) << trial;
    EXPECT_EQ(out.derived_checks, visits.derived) << trial;
    EXPECT_EQ(out.single_checks, visits.leaves) << trial;
    EXPECT_EQ(counters.final_exps, out.batch_checks + out.single_checks)
        << trial;
  }
}

TEST(Settlement, CancellingPairInsideDerivedHalfIsIsolated) {
  // The natural forgery against a derived half: two colluding rounds whose
  // errors cancel in the UNWEIGHTED product of their terms — y+δ / y−δ on
  // one key's epsilon slot, or σ errors whose zeta-scaled images are +G /
  // −G on the shared generator slot — placed together at rounds 6 and 7, so
  // [4,8) and then [6,8) are derived halves, never checked directly. A third
  // culprit sits in the left half. A derived value is the weighted product
  // itself, not an unweighted one, so the pair cannot cancel there and all
  // three are isolated. Run on one basic single-key batch and one private
  // two-key batch, with each error shape.
  auto rng = SecureRng::deterministic(917);
  Scenario a = make_scenario(3000, 5, rng);
  Scenario b = make_scenario(2500, 5, rng);
  Verifier va(a.kp.pk), vb(b.kp.pk);
  PreparedFile ca = audit::prepare_file(a.name, a.file.num_chunks());
  PreparedFile cb = audit::prepare_file(b.name, b.file.num_chunks());
  Prover pa(a.kp.pk, a.file, a.tag), pb(b.kp.pk, b.file, b.tag);

  constexpr std::size_t kRounds = 8, kLeftCulprit = 2, kPairA = 6, kPairB = 7;
  for (bool is_private : {false, true}) {
    std::vector<SettlementInstance> window(kRounds);
    for (std::size_t i = 0; i < kRounds; ++i) {
      // The private batch spreads over two keys; the pair shares key a, so
      // its y' errors meet on one epsilon slot.
      const bool key_a = !is_private || i % 2 == 1 || i >= kPairA;
      SettlementInstance& inst = window[i];
      inst.verifier = key_a ? &va : &vb;
      inst.file = key_a ? &ca : &cb;
      inst.challenge = make_challenge(rng, 4);
      Prover& p = key_a ? pa : pb;
      if (is_private) {
        inst.priv = p.prove_private(inst.challenge, rng);
      } else {
        inst.basic = p.prove(inst.challenge);
      }
    }
    for (bool sigma_pair : {false, true}) {
      std::vector<SettlementInstance> batch = window;
      auto corrupt = [&](SettlementInstance& inst, bool plus) {
        if (!is_private) {
          if (sigma_pair) {
            const curve::G1 sigma(inst.basic->sigma);
            inst.basic->sigma = (plus ? sigma + curve::G1::generator()
                                      : sigma - curve::G1::generator())
                                    .to_affine_point();
          } else {
            inst.basic->y += plus ? Fr::one() : -Fr::one();
          }
          return;
        }
        if (sigma_pair) {
          // The check multiplies σ by zeta = H'(R); scale the error by
          // zeta⁻¹ so the pair's terms are exactly ±G.
          const Fr inv_zeta = audit::hash_gt_to_fr(inst.priv->big_r).inverse();
          const curve::G1 err = curve::G1::generator().mul(inv_zeta);
          const curve::G1 sigma(inst.priv->sigma);
          inst.priv->sigma = (plus ? sigma + err : sigma - err).to_affine_point();
        } else {
          inst.priv->y_prime += plus ? Fr::one() : -Fr::one();
        }
      };
      corrupt(batch[kPairA], true);
      corrupt(batch[kPairB], false);
      corrupt(batch[kLeftCulprit], true);

      SettlementOutcome out = audit::verify_settlement(batch, seed_of(rng));
      for (std::size_t i = 0; i < kRounds; ++i) {
        const bool cheat = i == kLeftCulprit || i == kPairA || i == kPairB;
        EXPECT_EQ(out.ok[i], !cheat)
            << (is_private ? "private" : "basic")
            << (sigma_pair ? " sigma pair" : " y pair") << ", round " << i;
      }
      // Direct: [0,8) [0,4) [0,2) [4,6); derived: [4,8) [2,4) [6,8).
      EXPECT_EQ(out.batch_checks, 4u);
      EXPECT_EQ(out.derived_checks, 3u);
      EXPECT_EQ(out.single_checks, 4u);
    }
  }
}

TEST(Settlement, ColdChiFoldMatchesPreparedFile) {
  // Without a PreparedFile the engine keeps a round's k chunk hashes and
  // folds their challenge coefficients into the epsilon-slot weights
  // (-rho*zeta*c_j) instead of aggregating chi first; a prepared file
  // contributes its one precomputed chi with coefficient one. Both are the
  // same group element, so the same window must settle identically either
  // way: verdicts, direct / derived / leaf checks and the aggregated opening,
  // with the verdicts equal to each round's textbook equation and the checks
  // equal to the bisection the culprits force.
  // Sweep k in {1, 3, 8}, basic / private, 1-3 keys, culprits none / first /
  // last / a y+1, y-1 pair that cancels in the unweighted product, and
  // windows wider than 2 * kStrausMaxBases, whose MSMs leave the Straus
  // kernel at either scalar width (basic rounds weigh sigma by 128-bit rho).
  auto rng = SecureRng::deterministic(918);
  constexpr std::size_t kKeys = 3;
  std::vector<Scenario> keys;
  keys.reserve(kKeys);
  std::vector<std::unique_ptr<Verifier>> verifiers;
  std::vector<PreparedFile> ctxs;
  std::vector<std::unique_ptr<Prover>> provers;
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys.push_back(make_scenario(1200, 4, rng));
    verifiers.push_back(std::make_unique<Verifier>(keys[k].kp.pk));
    ctxs.push_back(audit::prepare_file(keys[k].name, keys[k].file.num_chunks()));
    provers.push_back(
        std::make_unique<Prover>(keys[k].kp.pk, keys[k].file, keys[k].tag));
  }
  ASSERT_GE(keys[0].file.num_chunks(), 8u);

  enum Culprits { kNone, kFirst, kLast, kCancellingPair };
  struct Case {
    std::size_t k, rounds, key_count;
    bool is_private;
    Culprits culprits;
  };
  constexpr std::size_t kWide = 2 * curve::kStrausMaxBases + 4;
  const Case cases[] = {
      {1, 6, 1, false, kNone},         {1, 6, 2, true, kFirst},
      {1, 7, 3, false, kLast},         {1, 6, 1, true, kCancellingPair},
      {3, 5, 2, false, kCancellingPair}, {3, 7, 1, true, kNone},
      {3, 6, 3, true, kLast},          {8, 5, 1, false, kFirst},
      {8, 6, 3, false, kNone},         {8, 7, 2, true, kCancellingPair},
      {1, kWide, 1, false, kLast},     {3, kWide, 2, true, kCancellingPair},
      {8, kWide, 3, false, kNone},
  };
  audit::SettlementOptions opts;
  opts.compute_aggregate_opening = true;
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const Case& cs = cases[c];
    std::vector<SettlementInstance> prepared(cs.rounds);
    std::vector<bool> culprit(cs.rounds, false);
    for (std::size_t j = 0; j < cs.rounds; ++j) {
      // The cancelling pair shares key 0 so its errors meet on one slot.
      const bool in_pair =
          cs.culprits == kCancellingPair && (j == 2 || j == 3);
      const std::size_t key = in_pair ? 0 : j % cs.key_count;
      SettlementInstance& inst = prepared[j];
      inst.verifier = verifiers[key].get();
      inst.file = &ctxs[key];
      inst.name = keys[key].name;
      inst.num_chunks = keys[key].file.num_chunks();
      inst.challenge = make_challenge(rng, cs.k);
      if (cs.is_private) {
        inst.priv = provers[key]->prove_private(inst.challenge, rng);
      } else {
        inst.basic = provers[key]->prove(inst.challenge);
      }
      culprit[j] = (cs.culprits == kFirst && j == 0) ||
                   (cs.culprits == kLast && j + 1 == cs.rounds) || in_pair;
      if (culprit[j]) {
        Fr& y = cs.is_private ? inst.priv->y_prime : inst.basic->y;
        y += j == 3 ? -Fr::one() : Fr::one();
      }
    }
    std::vector<SettlementInstance> cold = prepared;
    for (SettlementInstance& inst : cold) inst.file = nullptr;

    const auto seed = seed_of(rng);
    const SettlementOutcome a = audit::verify_settlement(prepared, seed, opts);
    const SettlementOutcome b = audit::verify_settlement(cold, seed, opts);
    for (std::size_t j = 0; j < cs.rounds; ++j) {
      const SettlementInstance& inst = prepared[j];
      const audit::PublicKey& pk = inst.verifier->pk();
      const bool textbook =
          cs.is_private ? audit::eq2_textbook(pk, inst.name, inst.num_chunks,
                                              inst.challenge, *inst.priv)
                        : audit::eq1_textbook(pk, inst.name, inst.num_chunks,
                                              inst.challenge, *inst.basic);
      EXPECT_EQ(textbook, !culprit[j]) << "case " << c << ", round " << j;
      EXPECT_EQ(a.ok[j], textbook) << "case " << c << ", round " << j;
    }
    // Both paths share the batch check's chi fold, so pin its work against
    // the bisection it must run, not only against each other.
    BisectionVisits visits;
    visit_bisection(culprit, 0, cs.rounds, visits);
    EXPECT_EQ(a.batch_checks + a.derived_checks, visits.ranges) << "case " << c;
    EXPECT_EQ(a.derived_checks, visits.derived) << "case " << c;
    EXPECT_EQ(a.single_checks, visits.leaves) << "case " << c;
    EXPECT_EQ(b.ok, a.ok) << "case " << c;
    EXPECT_EQ(b.batch_checks, a.batch_checks) << "case " << c;
    EXPECT_EQ(b.derived_checks, a.derived_checks) << "case " << c;
    EXPECT_EQ(b.single_checks, a.single_checks) << "case " << c;
    EXPECT_EQ(b.aggregated_opening, a.aggregated_opening) << "case " << c;
  }
}

TEST(Settlement, SingleRoundForgeriesMatchTheTextbookEquation) {
  // A one-round range is the only place a round is refused, and it runs the
  // batch check at unit weight. Its verdict must be the round's own Eq. 1 /
  // Eq. 2 exactly: for the honest round and each natural forgery — y (y')
  // + 1, sigma + g1, psi + g1, the challenge's r replaced and, for Eq. 2, R
  // replaced by another GT element (which changes zeta too) — a one-instance
  // batch, the same round as a bisection leaf of an 8-round batch and the
  // textbook equation must agree. Basic and private rounds, each with and
  // without a PreparedFile.
  auto rng = SecureRng::deterministic(919);
  Scenario sc = make_scenario(3000, 5, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);
  // Round 4 is the other culprit: [4,6) then fails whatever round 5 holds,
  // so round 5 always settles as a leaf. Direct: [0,8) [0,4) [4,6); derived:
  // [4,8) [6,8); leaves: rounds 4 and 5.
  constexpr std::size_t kRounds = 8, kCulprit = 4, kProbe = 5;

  for (bool is_private : {false, true}) {
    for (bool with_file : {true, false}) {
      const std::string tag = std::string(is_private ? "private" : "basic") +
                              (with_file ? ", prepared" : ", cold");
      auto round = [&] {
        SettlementInstance inst;
        inst.verifier = &verifier;
        inst.file = with_file ? &ctx : nullptr;
        inst.name = sc.name;
        inst.num_chunks = sc.file.num_chunks();
        inst.challenge = make_challenge(rng, 4);
        if (is_private) {
          inst.priv = prover.prove_private(inst.challenge, rng);
        } else {
          inst.basic = prover.prove(inst.challenge);
        }
        return inst;
      };
      std::vector<SettlementInstance> window(kRounds);
      for (SettlementInstance& inst : window) inst = round();
      if (is_private) {
        window[kCulprit].priv->y_prime += Fr::one();
      } else {
        window[kCulprit].basic->y += Fr::one();
      }

      const SettlementInstance honest = window[kProbe];
      auto shift = [](curve::G1::Affine& p) {
        p = (curve::G1(p) + curve::G1::generator()).to_affine_point();
      };
      std::vector<std::pair<std::string, SettlementInstance>> inputs;
      inputs.emplace_back("honest", honest);
      inputs.emplace_back("y + 1", honest);
      inputs.emplace_back("sigma + g1", honest);
      inputs.emplace_back("psi + g1", honest);
      inputs.emplace_back("r replaced", honest);
      if (is_private) {
        SettlementInstance& r_swap = inputs.emplace_back("R replaced", honest).second;
        r_swap.priv->big_r =
            prover.prove_private(honest.challenge, rng).big_r;
        ASSERT_FALSE(r_swap.priv->big_r == honest.priv->big_r);
      }
      for (std::size_t f = 1; f < 4; ++f) {
        SettlementInstance& inst = inputs[f].second;
        Fr& y = is_private ? inst.priv->y_prime : inst.basic->y;
        curve::G1::Affine& sigma = is_private ? inst.priv->sigma : inst.basic->sigma;
        curve::G1::Affine& psi = is_private ? inst.priv->psi : inst.basic->psi;
        if (f == 1) y += Fr::one();
        if (f == 2) shift(sigma);
        if (f == 3) shift(psi);
      }
      inputs[4].second.challenge.r = Fr::random(rng);

      for (const auto& [name, inst] : inputs) {
        const bool textbook =
            is_private ? audit::eq2_textbook(sc.kp.pk, sc.name, inst.num_chunks,
                                             inst.challenge, *inst.priv)
                       : audit::eq1_textbook(sc.kp.pk, sc.name, inst.num_chunks,
                                             inst.challenge, *inst.basic);
        EXPECT_EQ(textbook, name == "honest") << tag << ", " << name;

        const SettlementOutcome alone = audit::verify_settlement(
            std::span<const SettlementInstance>(&inst, 1), seed_of(rng));
        EXPECT_EQ(alone.ok[0], textbook) << tag << ", " << name;
        EXPECT_EQ(alone.batch_checks, 0u) << tag << ", " << name;
        EXPECT_EQ(alone.single_checks, 1u) << tag << ", " << name;

        std::vector<SettlementInstance> batch = window;
        batch[kProbe] = inst;
        const SettlementOutcome out = audit::verify_settlement(batch, seed_of(rng));
        for (std::size_t i = 0; i < kRounds; ++i) {
          const bool want = i == kProbe ? textbook : i != kCulprit;
          EXPECT_EQ(out.ok[i], want) << tag << ", " << name << ", round " << i;
        }
        EXPECT_EQ(out.batch_checks, 3u) << tag << ", " << name;
        EXPECT_EQ(out.derived_checks, 2u) << tag << ", " << name;
        EXPECT_EQ(out.single_checks, 2u) << tag << ", " << name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// contract::BatchSettlement — the block-level coordinator.
// ---------------------------------------------------------------------------

TEST(BatchSettlementEngine, ReplayedWeightSeedsAreRejected) {
  contract::BatchSettlement batch(7);
  auto rng = SecureRng::deterministic(908);
  auto seed = rng.bytes32();
  EXPECT_TRUE(batch.consume_weight_seed(seed));
  EXPECT_FALSE(batch.consume_weight_seed(seed));  // replay refused
  EXPECT_TRUE(batch.consume_weight_seed(rng.bytes32()));
}

TEST(BatchSettlementEngine, UnknownTicketThrows) {
  contract::BatchSettlement batch(8);
  EXPECT_THROW(batch.outcome({42, 0, 0}), std::logic_error);
}

TEST(BatchSettlementEngine, OpenWindowTicketThrows) {
  // A ticket redeems only once its window's barrier has flushed it; before
  // that the engine refuses rather than flushing on demand.
  auto rng = SecureRng::deterministic(910);
  Scenario sc = make_scenario(2500, 5, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  chain::ChainConfig cc;
  cc.settlement_window_s = 100;
  chain::Blockchain chain(cc);
  chain.advance(30);
  contract::BatchSettlement batch(10);
  SettlementInstance inst;
  inst.verifier = &verifier;
  inst.file = &ctx;
  inst.challenge = make_challenge(rng, 4);
  inst.basic = prover.prove(inst.challenge);
  const auto ticket = batch.enqueue(chain, std::move(inst), rng.bytes32());
  EXPECT_EQ(ticket.settle_at, 100u);

  EXPECT_THROW(batch.outcome(ticket), std::logic_error);
  chain.advance(69);  // t = 99: still inside the window
  EXPECT_THROW(batch.outcome(ticket), std::logic_error);
  EXPECT_EQ(batch.stats().batches, 0u);
  chain.advance(1);  // t = 100: the boundary barrier flushes
  EXPECT_EQ(batch.stats().batches, 1u);
  EXPECT_TRUE(batch.outcome(ticket).ok);
}

TEST(BatchSettlementEngine, FlushSeedEntersReplayRegistry) {
  // Every settled window's derived Fiat–Shamir seed lands in the freshness
  // registry: replaying it is refused, and consecutive windows never share
  // a seed.
  auto rng = SecureRng::deterministic(909);
  Scenario sc = make_scenario(2500, 5, rng);
  Verifier verifier(sc.kp.pk);
  PreparedFile ctx = audit::prepare_file(sc.name, sc.file.num_chunks());
  Prover prover(sc.kp.pk, sc.file, sc.tag);

  chain::Blockchain chain;
  contract::BatchSettlement batch(9);
  EXPECT_FALSE(batch.last_weight_seed().has_value());

  std::array<std::uint8_t, 32> seeds[2];
  for (int window = 0; window < 2; ++window) {
    SettlementInstance inst;
    inst.verifier = &verifier;
    inst.file = &ctx;
    inst.challenge = make_challenge(rng, 4);
    inst.basic = prover.prove(inst.challenge);
    auto ticket = batch.enqueue(chain, std::move(inst), rng.bytes32());
    chain.advance(0);  // the window's barrier at now() flushes it
    EXPECT_TRUE(batch.outcome(ticket).ok);
    ASSERT_TRUE(batch.last_weight_seed().has_value());
    seeds[window] = *batch.last_weight_seed();
    // The flush itself consumed the seed — a replay is refused.
    EXPECT_FALSE(batch.consume_weight_seed(seeds[window]));
  }
  EXPECT_NE(seeds[0], seeds[1]);  // fresh nonce per window
}

// ---------------------------------------------------------------------------
// Windowed settlement across chain instants.
// ---------------------------------------------------------------------------

/// Three contracts over two keys with staggered audit cadences and mixed
/// proof shapes, all deferring into one shared engine on a chain with a
/// settlement window: rounds due at three DIFFERENT instants must settle in
/// one flush at the window boundary, for 1 + 2·keys pairings total.
TEST(WindowedSettlement, MultiInstantWindowMixedShapesAcrossContracts) {
  auto rng = SecureRng::deterministic(920);
  Scenario a = make_scenario(2500, 5, rng);
  Scenario b = make_scenario(2000, 4, rng);

  chain::ChainConfig cc;
  cc.settlement_window_s = 4000;
  chain::Blockchain chain(cc);
  chain::TrustedBeacon beacon(rng.bytes32());
  contract::BatchSettlement batch(11);

  struct Party {
    Scenario* sc;
    chain::Timestamp period;
    bool priv;
    std::unique_ptr<Prover> prover;
    std::unique_ptr<primitives::SecureRng> prng;
    std::unique_ptr<Verifier> verifier;
    std::unique_ptr<PreparedFile> file_ctx;
    std::unique_ptr<contract::AuditContract> contract;
  };
  Party parties[3] = {
      {&a, 1000, false, nullptr, nullptr, nullptr, nullptr, nullptr},
      {&a, 1300, true, nullptr, nullptr, nullptr, nullptr, nullptr},
      {&b, 1600, true, nullptr, nullptr, nullptr, nullptr, nullptr}};
  for (int i = 0; i < 3; ++i) {
    Party& p = parties[i];
    std::string owner = "owner-" + std::to_string(i);
    std::string provider = "provider-" + std::to_string(i);
    chain.mint(owner, 100'000);
    chain.mint(provider, 100'000);
    p.prover = std::make_unique<Prover>(p.sc->kp.pk, p.sc->file, p.sc->tag);
    p.prng = std::make_unique<SecureRng>(SecureRng::deterministic(921 + i));
    contract::ContractTerms terms;
    terms.owner = owner;
    terms.provider = provider;
    terms.num_audits = 2;
    terms.audit_period_s = p.period;
    terms.response_window_s = 100;
    terms.reward_per_audit = 10;
    terms.penalty_per_fail = 25;
    terms.challenged_chunks = 4;
    terms.private_proofs = p.priv;
    p.verifier = std::make_unique<Verifier>(p.sc->kp.pk);
    p.file_ctx = std::make_unique<PreparedFile>(
        audit::prepare_file(p.sc->name, p.sc->file.num_chunks()));
    p.contract = std::make_unique<contract::AuditContract>(
        chain, beacon, terms, *p.verifier, p.sc->name,
        p.sc->file.num_chunks(), p.file_ctx.get());
    p.contract->enable_deferred_settlement(batch);
    Prover* prover = p.prover.get();
    primitives::SecureRng* prng = p.prng.get();
    bool priv = p.priv;
    p.contract->set_responder(
        [prover, prng, priv](const Challenge& chal)
            -> std::optional<std::vector<std::uint8_t>> {
          if (priv) return audit::serialize(prover->prove_private(chal, *prng));
          return audit::serialize(prover->prove(chal));
        });
    p.contract->negotiated();
    p.contract->acked(true);
    p.contract->freeze();
  }

  // Round 1 of the three contracts is due at t = 1100, 1400 and 1700; the
  // window boundary is 4000. Nothing settles before it...
  pairing::reset_pairing_counters();
  chain.advance(3999);
  EXPECT_EQ(batch.stats().batches, 0u);
  EXPECT_EQ(pairing::pairing_counters().chains, 0u);
  for (const Party& p : parties) {
    EXPECT_EQ(p.contract->rounds_completed(), 0u);
  }

  // ...and the boundary settles all three rounds in ONE flush: a shared
  // generator chain plus (epsilon, delta) per distinct key.
  chain.advance(2);
  EXPECT_EQ(batch.stats().batches, 1u);
  EXPECT_EQ(batch.stats().rounds, 3u);
  EXPECT_EQ(batch.stats().instants, 3u);  // three distinct due instants
  EXPECT_EQ(pairing::pairing_counters().chains, 1u + 2u * 2u);
  EXPECT_EQ(pairing::pairing_counters().final_exps, 1u);
  for (const Party& p : parties) {
    EXPECT_EQ(p.contract->rounds_completed(), 1u);
    EXPECT_EQ(p.contract->passes(), 1u);
  }

  // The window's seed sits in the replay registry.
  ASSERT_TRUE(batch.last_weight_seed().has_value());
  EXPECT_FALSE(batch.consume_weight_seed(*batch.last_weight_seed()));

  // Round 2 re-challenges on the original cadence (anchored at the round-1
  // challenge times, all past by now, so they fire together) and settles at
  // the next boundary; everything completes and everyone was paid.
  chain.advance(20'000);
  EXPECT_EQ(batch.stats().batches, 2u);
  EXPECT_EQ(batch.stats().rounds, 6u);
  for (const Party& p : parties) {
    EXPECT_EQ(p.contract->state(), contract::State::Closed);
    EXPECT_EQ(p.contract->passes(), 2u);
    EXPECT_EQ(p.contract->fails() + p.contract->timeouts(), 0u);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(chain.balance("provider-" + std::to_string(i)), 100'000u + 2 * 10);
  }
}

// ---------------------------------------------------------------------------
// Batched vs sequential settlement of a whole simulated network.
// ---------------------------------------------------------------------------

struct SimSnapshot {
  sim::NetworkStats stats;
  std::vector<std::uint64_t> balances;
  std::size_t blocks = 0;
  std::size_t txs = 0;
  // Settlement-layer chain footprint, split by tx kind.
  std::uint64_t prove_txs = 0, prove_bytes = 0, prove_gas = 0;
  std::uint64_t window_txs = 0, window_bytes = 0, window_gas = 0;
};

// `cheater`: provider-1 drops chunk 0 of every shard it holds and sends a
// corrupt proof on every challenge.
SimSnapshot run_sim(bool batched, bool discount, std::size_t num_owners = 2,
                    bool cheater = true,
                    chain::Timestamp settlement_window_s = 0,
                    bool aggregate = false) {
  sim::NetworkConfig c;
  c.num_owners = num_owners;
  c.num_providers = 3;
  c.file_bytes = 1000;
  c.s = 5;
  c.erasure_data = 2;
  c.erasure_parity = 1;
  c.num_audits = 2;
  c.challenged_chunks = 999;  // sample every chunk: corruption always caught
  c.private_proofs = true;
  c.batched_settlement = batched;
  c.batch_gas_discount = discount;
  c.settlement_window_s = settlement_window_s;
  c.aggregate_settlement = aggregate;
  sim::NetworkSim net(c);
  if (cheater) {
    net.set_adversary(1, std::make_shared<attack::ColludingStrategy>(7, 1000));
  }
  net.deploy();
  net.run_to_completion();
  SimSnapshot snap;
  snap.stats = net.stats();
  for (std::size_t o = 0; o < c.num_owners; ++o) {
    snap.balances.push_back(net.balance("owner-" + std::to_string(o)));
  }
  for (std::size_t p = 0; p < c.num_providers; ++p) {
    snap.balances.push_back(net.balance("provider-" + std::to_string(p)));
  }
  snap.blocks = net.chain().blocks().size();
  snap.txs = net.chain().transactions().size();
  for (const auto& tx : net.chain().transactions()) {
    if (tx.description == "prove") {
      ++snap.prove_txs;
      snap.prove_bytes += tx.payload_bytes;
      snap.prove_gas += tx.gas_used;
    } else if (tx.description == "settle-window") {
      ++snap.window_txs;
      snap.window_bytes += tx.payload_bytes;
      snap.window_gas += tx.gas_used;
    }
  }
  if (batched) {
    const contract::BatchSettlement* bs = net.batch_settlement();
    EXPECT_NE(bs, nullptr);
    EXPECT_GT(bs->stats().batches, 0u);
    EXPECT_EQ(bs->stats().rounds, snap.stats.total_rounds);
  }
  return snap;
}

TEST(BatchedSettlementSim, BitIdenticalToSequentialSettlement) {
  SimSnapshot seq = run_sim(false, false);
  SimSnapshot bat = run_sim(true, false);
  // Honest providers in the cheater's block still pass: outcomes identical.
  EXPECT_EQ(seq.stats.total_rounds, bat.stats.total_rounds);
  EXPECT_EQ(seq.stats.passes, bat.stats.passes);
  EXPECT_EQ(seq.stats.fails, bat.stats.fails);
  EXPECT_EQ(seq.stats.timeouts, bat.stats.timeouts);
  // Chain state, gas totals and ledger: bit-identical.
  EXPECT_EQ(seq.stats.total_gas, bat.stats.total_gas);
  EXPECT_EQ(seq.stats.chain_bytes, bat.stats.chain_bytes);
  EXPECT_EQ(seq.balances, bat.balances);
  EXPECT_EQ(seq.blocks, bat.blocks);
  EXPECT_EQ(seq.txs, bat.txs);
  EXPECT_GT(bat.stats.fails, 0u);  // the cheater was actually caught
}

TEST(WindowedSettlementSim, Window1BitIdenticalToPerInstantAndInline) {
  // The acceptance invariant: a settlement window of 1 degenerates to the
  // per-instant deferred engine, which is itself bit-identical to inline
  // settlement — chain bytes, gas totals, ledger, block and tx counts.
  SimSnapshot inline_run = run_sim(false, false);
  SimSnapshot per_instant = run_sim(true, false);
  SimSnapshot window1 = run_sim(true, false, 2, /*cheater=*/true, 1);
  for (const SimSnapshot* other : {&per_instant, &window1}) {
    EXPECT_EQ(inline_run.stats.total_rounds, other->stats.total_rounds);
    EXPECT_EQ(inline_run.stats.passes, other->stats.passes);
    EXPECT_EQ(inline_run.stats.fails, other->stats.fails);
    EXPECT_EQ(inline_run.stats.timeouts, other->stats.timeouts);
    EXPECT_EQ(inline_run.stats.total_gas, other->stats.total_gas);
    EXPECT_EQ(inline_run.stats.chain_bytes, other->stats.chain_bytes);
    EXPECT_EQ(inline_run.balances, other->balances);
    EXPECT_EQ(inline_run.blocks, other->blocks);
    EXPECT_EQ(inline_run.txs, other->txs);
  }
  EXPECT_GT(window1.stats.fails, 0u);  // the cheater was still caught
}

TEST(WindowedSettlementSim, WideWindowSettlesEveryRoundAndMatchesOutcomes) {
  // A window spanning two audit periods: every round's redemption defers to
  // a boundary, yet outcomes, payouts and (undiscounted) gas match the
  // per-instant run exactly — the cheater loses every round, honest
  // providers never pay for sharing its window.
  SimSnapshot per_instant = run_sim(true, false);
  SimSnapshot windowed = run_sim(true, false, 2, /*cheater=*/true, 7200);
  EXPECT_EQ(per_instant.stats.total_rounds, windowed.stats.total_rounds);
  EXPECT_EQ(per_instant.stats.passes, windowed.stats.passes);
  EXPECT_EQ(per_instant.stats.fails, windowed.stats.fails);
  EXPECT_EQ(windowed.stats.timeouts, 0u);
  EXPECT_GT(windowed.stats.fails, 0u);
  EXPECT_EQ(per_instant.stats.total_gas, windowed.stats.total_gas);
  EXPECT_EQ(per_instant.balances, windowed.balances);
}

TEST(AggregateSettlementSim, CleanWindowsPostOneTxAndCutBytesAndGasFivefold) {
  // ISSUE 10 tentpole: aggregate mode replaces every per-round prove tx in a
  // clean window with ONE settle-window tx (seed + aggregated opening +
  // bitmap). Outcomes and the ledger match the legacy windowed run exactly;
  // settlement bytes and gas per audited round drop by >= 5x.
  SimSnapshot legacy = run_sim(true, false, 2, /*cheater=*/false, 7200);
  SimSnapshot agg = run_sim(true, false, 2, /*cheater=*/false,
                            7200, /*aggregate=*/true);

  // Outcomes, payouts: identical.
  EXPECT_EQ(legacy.stats.total_rounds, agg.stats.total_rounds);
  EXPECT_EQ(legacy.stats.passes, agg.stats.passes);
  EXPECT_EQ(legacy.stats.fails, agg.stats.fails);
  EXPECT_EQ(legacy.balances, agg.balances);

  // Clean windows: no per-round prove txs, no per-round gas; the stats
  // mirror the chain exactly.
  EXPECT_EQ(agg.prove_txs, 0u);
  EXPECT_EQ(agg.stats.total_gas, 0u);
  EXPECT_GT(agg.window_txs, 0u);
  EXPECT_EQ(agg.stats.aggregate_txs, agg.window_txs);
  EXPECT_EQ(agg.stats.aggregate_tx_bytes, agg.window_bytes);
  EXPECT_EQ(agg.stats.aggregate_tx_gas, agg.window_gas);
  EXPECT_EQ(agg.stats.fallback_windows, 0u);

  // The acceptance bar: >= 5x on settlement bytes AND gas per round.
  ASSERT_GT(agg.window_bytes, 0u);
  ASSERT_GT(agg.window_gas, 0u);
  EXPECT_GE(static_cast<double>(legacy.prove_bytes) /
                static_cast<double>(agg.window_bytes),
            5.0);
  EXPECT_GE(static_cast<double>(legacy.prove_gas) /
                static_cast<double>(agg.window_gas),
            5.0);
  // Whole-chain footprint shrinks too.
  EXPECT_LT(agg.stats.chain_bytes, legacy.stats.chain_bytes);
}

TEST(AggregateSettlementSim, DirtyWindowFallsBackToPerRoundProofs) {
  // A cheater inside the window: the bisection evidence must land on chain,
  // so the whole window re-posts its individual prove txs (fallback), and
  // the ledger still matches the legacy windowed run — honest providers in
  // the cheater's window are paid identically.
  SimSnapshot legacy = run_sim(true, false, 2, /*cheater=*/true, 7200);
  SimSnapshot agg = run_sim(true, false, 2, /*cheater=*/true,
                            7200, /*aggregate=*/true);

  EXPECT_GT(agg.stats.fails, 0u);  // the cheater was caught
  EXPECT_GT(agg.stats.fallback_windows, 0u);
  // Every fallback round re-posted its prove tx with the legacy gas row.
  EXPECT_GT(agg.prove_txs, 0u);
  EXPECT_EQ(legacy.stats.passes, agg.stats.passes);
  EXPECT_EQ(legacy.stats.fails, agg.stats.fails);
  EXPECT_EQ(legacy.balances, agg.balances);
  // The window tx (with its failure bitmap) is still posted on top.
  EXPECT_EQ(agg.stats.aggregate_txs, agg.window_txs);
  EXPECT_GT(agg.window_txs, 0u);
}

TEST(AggregateSettlementSim, RequiresBatchedSettlement) {
  sim::NetworkConfig c;
  c.num_owners = 1;
  c.num_providers = 3;
  c.erasure_data = 2;
  c.erasure_parity = 1;
  c.batched_settlement = false;
  c.aggregate_settlement = true;
  EXPECT_THROW(sim::NetworkSim net(c), std::invalid_argument);
}

TEST(BatchedSettlementSim, CulpritIsolationAtPopulationScale) {
  SimSnapshot bat = run_sim(true, false, 3);
  // provider-1 holds some shards; every one of its rounds fails, every
  // other round passes — no honest round pays for the cheater.
  EXPECT_GT(bat.stats.fails, 0u);
  EXPECT_EQ(bat.stats.timeouts, 0u);
  EXPECT_EQ(bat.stats.passes + bat.stats.fails, bat.stats.total_rounds);
}

TEST(BatchedSettlementSim, GasDiscountRowIsExactAndCheaper) {
  econ::AuditCostModel model;
  // The discount row nests inside the §VII-B anchor: a batch of one is the
  // unbatched constant...
  ASSERT_DOUBLE_EQ(model.verify_prep_ms + model.verify_pair_ms, model.verify_ms);
  EXPECT_EQ(model.gas_per_audit_batched(1), model.gas_per_audit());
  EXPECT_EQ(model.gas_per_audit_batched(1), 589'000u);
  // ...and larger blocks are strictly cheaper, monotonically.
  EXPECT_LT(model.gas_per_audit_batched(8), model.gas_per_audit_batched(2));
  EXPECT_LT(model.gas_per_audit_batched(64), model.gas_per_audit_batched(8));
  EXPECT_THROW(model.batched_verify_ms(0), std::invalid_argument);

  // In the sim: 2 owners x 3 shards = 6 deployments, all audited at the
  // same instants, so every round settles in a batch of 6 and pays the
  // exact calibrated batch-of-6 constant.
  SimSnapshot bat = run_sim(true, true, 2, /*cheater=*/false);
  const std::uint64_t expected = model.gas_per_audit_batched(6);
  EXPECT_EQ(bat.stats.total_gas, bat.stats.total_rounds * expected);
  EXPECT_LT(bat.stats.total_gas, bat.stats.total_rounds * 589'000u);
}

}  // namespace
}  // namespace dsaudit
