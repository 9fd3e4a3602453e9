// Fig. 2 state-machine tests: the full happy path plus every misbehaviour
// path (timeout, corrupted data, rejection, out-of-order messages) and
// conservation of escrowed funds.
#include <gtest/gtest.h>

#include <tuple>

#include "audit/serialize.hpp"
#include "contract/audit_contract.hpp"
#include "contract/tx_format.hpp"
#include "econ/cost_model.hpp"

namespace dsaudit::contract {
namespace {

using audit::FileTag;
using audit::KeyPair;
using primitives::SecureRng;

struct World {
  chain::Blockchain chain;
  std::unique_ptr<chain::TrustedBeacon> beacon;
  KeyPair kp;
  storage::EncodedFile file;
  FileTag tag;
  audit::Fr name;
  std::unique_ptr<audit::Prover> prover;
  std::unique_ptr<audit::Verifier> verifier;  // borrowed by the contract
  std::unique_ptr<audit::PreparedFile> file_ctx;
  std::unique_ptr<AuditContract> contract;

  World(ContractTerms terms, std::size_t file_size = 4000, std::size_t s = 8) {
    auto rng = SecureRng::deterministic(500);
    std::array<std::uint8_t, 32> bseed{};
    bseed[0] = 0x42;
    beacon = std::make_unique<chain::TrustedBeacon>(bseed);
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
    contract = std::make_unique<AuditContract>(chain, *beacon, terms, *verifier,
                                               name, file.num_chunks(),
                                               file_ctx.get());
  }

  AuditContract::Responder honest_responder(bool private_proofs) {
    return [this, private_proofs](const audit::Challenge& chal)
               -> std::optional<std::vector<std::uint8_t>> {
      if (private_proofs) {
        auto rng = SecureRng::from_os();
        return audit::serialize(prover->prove_private(chal, rng));
      }
      return audit::serialize(prover->prove(chal));
    };
  }
};

ContractTerms default_terms() {
  ContractTerms t;
  t.owner = "alice";
  t.provider = "bob";
  t.num_audits = 3;
  t.audit_period_s = 3600;
  t.response_window_s = 600;
  t.reward_per_audit = 100;
  t.penalty_per_fail = 250;
  t.challenged_chunks = 5;
  t.private_proofs = true;
  return t;
}

TEST(Contract, HappyPathAllRoundsPass) {
  ContractTerms terms = default_terms();
  World w(terms);
  w.contract->set_responder(w.honest_responder(true));

  w.contract->negotiated();
  EXPECT_EQ(w.contract->state(), State::Ack);
  w.contract->acked(true);
  EXPECT_EQ(w.contract->state(), State::Freeze);
  w.contract->freeze();
  EXPECT_EQ(w.contract->state(), State::Audit);
  EXPECT_EQ(w.contract->escrow_balance(), 3 * 100u + 3 * 250u);

  // Three audit periods + slack: all rounds complete and the contract closes.
  w.chain.advance(4 * terms.audit_period_s);
  EXPECT_EQ(w.contract->state(), State::Closed);
  EXPECT_EQ(w.contract->rounds_completed(), 3u);
  EXPECT_EQ(w.contract->passes(), 3u);
  EXPECT_EQ(w.contract->fails(), 0u);
  EXPECT_EQ(w.contract->timeouts(), 0u);

  // Funds: provider earned 3 rewards and recovered all collateral.
  EXPECT_EQ(w.chain.balance("bob"), 1'000'000 + 300u);
  EXPECT_EQ(w.chain.balance("alice"), 1'000'000 - 300u);
  EXPECT_EQ(w.contract->escrow_balance(), 0u);
}

TEST(Contract, NonPrivateProofsAlsoWork) {
  ContractTerms terms = default_terms();
  terms.private_proofs = false;
  World w(terms);
  w.contract->set_responder(w.honest_responder(false));
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(4 * terms.audit_period_s);
  EXPECT_EQ(w.contract->passes(), 3u);
  // 96-byte proofs on the wire.
  for (const auto& r : w.contract->rounds()) EXPECT_EQ(r.proof_bytes, 96u);
}

TEST(Contract, PayloadBytesMatchRealSerializedSizes) {
  // ISSUE 10 satellite: every payload_bytes posted on chain must equal the
  // size of the bytes that would actually be serialized for that message —
  // no hand-maintained magic constants drifting from the wire formats.
  ContractTerms terms = default_terms();
  World w(terms);
  w.contract->set_responder(w.honest_responder(true));
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(4 * terms.audit_period_s);
  ASSERT_EQ(w.contract->state(), State::Closed);

  // pk || file name (Fr) || num_chunks (u64): the registration payload.
  const std::size_t pk_bytes =
      audit::serialize(w.kp.pk, terms.private_proofs).size();
  const std::size_t negotiated_bytes =
      pk_bytes + audit::kFrWireBytes + audit::kU64WireBytes;
  std::size_t seen = 0;
  for (const auto& tx : w.chain.transactions()) {
    ++seen;
    if (tx.description == "negotiated") {
      EXPECT_EQ(tx.payload_bytes, negotiated_bytes);
      EXPECT_EQ(tx.payload_bytes, txfmt::negotiated_payload(pk_bytes));
    } else if (tx.description == "acked") {
      EXPECT_EQ(tx.payload_bytes, txfmt::kAckPayload);
    } else if (tx.description == "freeze") {
      EXPECT_EQ(tx.payload_bytes, txfmt::kFreezePayload);
    } else if (tx.description == "challenged" || tx.description == "retry") {
      // The challenge payload is the beacon output itself.
      EXPECT_EQ(tx.payload_bytes, std::tuple_size_v<chain::BeaconOutput>);
      EXPECT_EQ(tx.payload_bytes, txfmt::kChallengePayload);
    } else if (tx.description == "prove") {
      // Private proofs in this world: the exact ProofPrivate wire size.
      EXPECT_EQ(tx.payload_bytes, audit::ProofPrivate::kWireSize);
    } else if (tx.description == "slashed" ||
               tx.description == "provider-exit") {
      EXPECT_EQ(tx.payload_bytes, txfmt::kClosePayload);
    } else {
      ADD_FAILURE() << "unaccounted tx description: " << tx.description;
    }
  }
  EXPECT_GE(seen, 3u + 3u + 3u);  // lifecycle + 3x(challenge, prove)
}

TEST(Contract, UnresponsiveProviderTimesOutAndPaysOwner) {
  ContractTerms terms = default_terms();
  World w(terms);
  // No responder installed: S never answers.
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(4 * terms.audit_period_s);
  EXPECT_EQ(w.contract->state(), State::Closed);
  EXPECT_EQ(w.contract->timeouts(), 3u);
  // Owner recovers all rewards plus 3 penalties.
  EXPECT_EQ(w.chain.balance("alice"), 1'000'000 + 3 * 250u);
  EXPECT_EQ(w.chain.balance("bob"), 1'000'000 - 3 * 250u);
}

TEST(Contract, CorruptedDataFailsOnlyWhenSampled) {
  ContractTerms terms = default_terms();
  terms.num_audits = 6;
  terms.challenged_chunks = 999;  // challenge every chunk -> always detected
  World w(terms);
  // Corrupt one block after tagging; an honest-but-lossy provider.
  w.file.chunks[1][2] += audit::Fr::one();
  w.prover = std::make_unique<audit::Prover>(w.kp.pk, w.file, w.tag);
  w.contract->set_responder(w.honest_responder(true));
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(7 * terms.audit_period_s);
  EXPECT_EQ(w.contract->state(), State::Closed);
  EXPECT_EQ(w.contract->fails(), 6u);
  EXPECT_EQ(w.chain.balance("alice"), 1'000'000 + 6 * 250u);
}

TEST(Contract, ConsecutiveTimeoutsTripTheSlash) {
  ContractTerms terms = default_terms();
  terms.slash_after_consecutive = 2;
  World w(terms);
  // No responder installed: S misses every deadline.
  CloseReason seen = CloseReason::None;
  w.contract->set_on_closed([&](CloseReason r) { seen = r; });
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(4 * terms.audit_period_s);
  EXPECT_EQ(w.contract->state(), State::Closed);
  EXPECT_EQ(w.contract->close_reason(), CloseReason::Slashed);
  EXPECT_EQ(seen, CloseReason::Slashed);
  // Round 2 is never challenged: the threshold fires first.
  EXPECT_EQ(w.contract->rounds_completed(), 2u);
  EXPECT_EQ(w.contract->timeouts(), 2u);
  // The owner ends up with the ENTIRE escrow: two settled penalties plus
  // everything left (undelivered rewards and remaining collateral).
  EXPECT_EQ(w.chain.balance("alice"), 1'000'000 + 3 * 250u);
  EXPECT_EQ(w.chain.balance("bob"), 1'000'000 - 3 * 250u);
  EXPECT_EQ(w.contract->escrow_balance(), 0u);
}

TEST(Contract, TimeoutRetryRedeemsALateProvider) {
  ContractTerms terms = default_terms();
  terms.timeout_retry_limit = 1;
  World w(terms);
  // Round 0's first challenge (t=3600) gets no proof; the retry challenge
  // (issued at t=4800, one response window past the missed deadline) does.
  auto honest = w.honest_responder(true);
  w.contract->set_responder(
      [&w, honest](const audit::Challenge& chal)
          -> std::optional<std::vector<std::uint8_t>> {
        if (w.chain.now() < 4200) return std::nullopt;
        return honest(chal);
      });
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(4 * terms.audit_period_s);
  EXPECT_EQ(w.contract->state(), State::Closed);
  EXPECT_EQ(w.contract->close_reason(), CloseReason::Expired);
  EXPECT_EQ(w.contract->passes(), 3u);
  EXPECT_EQ(w.contract->timeouts(), 0u);
  EXPECT_EQ(w.contract->timeout_retries(), 1u);
  EXPECT_EQ(w.contract->rounds()[0].retries, 1u);
  // The redeemed round pays like any pass: the happy-path ledger.
  EXPECT_EQ(w.chain.balance("bob"), 1'000'000 + 300u);
  EXPECT_EQ(w.chain.balance("alice"), 1'000'000 - 300u);
}

TEST(Contract, RetryBudgetExhaustedStillSettlesTimeout) {
  ContractTerms terms = default_terms();
  terms.timeout_retry_limit = 1;
  World w(terms);
  // Proofs only flow from round 1 on (t >= 7200): round 0's first attempt
  // AND its retry both miss, so the retry budget runs out and the round
  // settles Timeout — one penalty, then business as usual.
  auto honest = w.honest_responder(true);
  w.contract->set_responder(
      [&w, honest](const audit::Challenge& chal)
          -> std::optional<std::vector<std::uint8_t>> {
        if (w.chain.now() < 7200) return std::nullopt;
        return honest(chal);
      });
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(4 * terms.audit_period_s);
  EXPECT_EQ(w.contract->state(), State::Closed);
  EXPECT_EQ(w.contract->passes(), 2u);
  EXPECT_EQ(w.contract->timeouts(), 1u);
  EXPECT_EQ(w.contract->timeout_retries(), 1u);
  EXPECT_EQ(w.chain.balance("alice"),
            1'000'000 - 2 * 100u + 250u);  // 2 rewards out, 1 penalty in
}

TEST(Contract, ProviderExitSettlesEscrowAndAbortsInFlightRound) {
  ContractTerms terms = default_terms();
  World w(terms);
  w.contract->set_responder(w.honest_responder(true));
  CloseReason seen = CloseReason::None;
  w.contract->set_on_closed([&](CloseReason r) { seen = r; });
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  // Stop just past round 0's challenge (t=3600): the proof is posted but
  // the verify deadline (t=4200) hasn't arrived — the round is in flight.
  w.chain.advance(terms.audit_period_s + 10);
  ASSERT_EQ(w.contract->state(), State::Prove);

  w.contract->provider_exit();
  EXPECT_EQ(w.contract->state(), State::Closed);
  EXPECT_EQ(w.contract->close_reason(), CloseReason::ProviderExit);
  EXPECT_EQ(seen, CloseReason::ProviderExit);
  // Escrow release: alice recovers all 3 undelivered rewards plus a one-
  // penalty exit fee; bob keeps the rest of his collateral.
  EXPECT_EQ(w.chain.balance("alice"), 1'000'000 + 250u);
  EXPECT_EQ(w.chain.balance("bob"), 1'000'000 - 250u);
  EXPECT_EQ(w.contract->escrow_balance(), 0u);
  // The in-flight round is recorded Aborted and never settles.
  ASSERT_EQ(w.contract->rounds().size(), 1u);
  EXPECT_EQ(w.contract->rounds()[0].outcome, RoundOutcome::Aborted);
  EXPECT_EQ(w.contract->rounds_completed(), 0u);

  // The already-scheduled verify deadline must be inert on a closed
  // contract: no further settlement, no ledger movement.
  w.chain.advance(2 * terms.audit_period_s);
  EXPECT_EQ(w.contract->rounds_completed(), 0u);
  EXPECT_EQ(w.chain.balance("alice"), 1'000'000 + 250u);
  EXPECT_EQ(w.chain.balance("bob"), 1'000'000 - 250u);
  EXPECT_THROW(w.contract->provider_exit(), std::logic_error);
}

TEST(Contract, ProviderCanRejectAtAck) {
  ContractTerms terms = default_terms();
  World w(terms);
  w.contract->negotiated();
  w.contract->acked(false);
  EXPECT_EQ(w.contract->state(), State::Closed);
  // No deposits were taken.
  EXPECT_EQ(w.contract->escrow_balance(), 0u);
  EXPECT_THROW(w.contract->freeze(), std::logic_error);
}

TEST(Contract, OutOfOrderMessagesRejected) {
  ContractTerms terms = default_terms();
  World w(terms);
  EXPECT_THROW(w.contract->acked(true), std::logic_error);
  EXPECT_THROW(w.contract->freeze(), std::logic_error);
  w.contract->negotiated();
  EXPECT_THROW(w.contract->negotiated(), std::logic_error);
  w.contract->acked(true);
  EXPECT_THROW(w.contract->acked(true), std::logic_error);
}

TEST(Contract, InsufficientDepositAborts) {
  ContractTerms terms = default_terms();
  terms.reward_per_audit = 10'000'000;  // more than alice owns
  World w(terms);
  w.contract->negotiated();
  w.contract->acked(true);
  EXPECT_THROW(w.contract->freeze(), std::runtime_error);
}

TEST(Contract, TermsValidation) {
  ContractTerms terms = default_terms();
  terms.num_audits = 0;
  chain::Blockchain bc;
  std::array<std::uint8_t, 32> seed{};
  chain::TrustedBeacon beacon(seed);
  auto rng = SecureRng::deterministic(501);
  auto kp = audit::keygen(4, rng);
  audit::Verifier verifier(kp.pk);
  EXPECT_THROW(
      AuditContract(bc, beacon, terms, verifier, audit::Fr::one(), 10),
      std::logic_error);
  terms = default_terms();
  terms.response_window_s = terms.audit_period_s;  // window must fit
  EXPECT_THROW(
      AuditContract(bc, beacon, terms, verifier, audit::Fr::one(), 10),
      std::logic_error);
}

TEST(Contract, MismatchedFileContextIsRefused) {
  // A PreparedFile carries the chunk hashes of one (name, num_chunks); a
  // contract handed another file's table would fail every honest proof, so
  // construction refuses it outright.
  ContractTerms terms = default_terms();
  chain::Blockchain bc;
  std::array<std::uint8_t, 32> seed{};
  chain::TrustedBeacon beacon(seed);
  auto rng = SecureRng::deterministic(502);
  auto kp = audit::keygen(4, rng);
  audit::Verifier verifier(kp.pk);
  const audit::Fr name = audit::Fr::one();
  const audit::PreparedFile ctx = audit::prepare_file(name, 10);
  EXPECT_THROW(AuditContract(bc, beacon, terms, verifier, name + name, 10,
                             &ctx),
               std::logic_error);
  EXPECT_THROW(AuditContract(bc, beacon, terms, verifier, name, 11, &ctx),
               std::logic_error);
  // The matching context, and no context at all, are both accepted.
  EXPECT_NO_THROW(AuditContract(bc, beacon, terms, verifier, name, 10, &ctx));
  EXPECT_NO_THROW(AuditContract(bc, beacon, terms, verifier, name, 10));
}

TEST(Contract, EventLogMatchesFig2Vocabulary) {
  ContractTerms terms = default_terms();
  terms.num_audits = 1;
  World w(terms);
  w.contract->set_responder(w.honest_responder(true));
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(2 * terms.audit_period_s);
  std::vector<std::string> got;
  for (const auto& e : w.contract->events()) got.push_back(e.what);
  std::vector<std::string> expect{"negotiated", "acked",       "inited",
                                  "challenged", "proofposted", "pass",
                                  "expired"};
  EXPECT_EQ(got, expect);
}

TEST(Contract, GasPerAuditIsTheExactCalibratedConstant) {
  ContractTerms terms = default_terms();
  terms.num_audits = 2;
  World w(terms);
  w.contract->set_responder(w.honest_responder(true));
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(3 * terms.audit_period_s);
  // Settlement gas comes from the calibrated econ::AuditCostModel, not this
  // run's verify wall-clock: a 288-byte private proof costs the paper's
  // §VII-B anchor of exactly 589,000 gas, every round, on any machine.
  econ::AuditCostModel model;
  ASSERT_EQ(model.gas_per_audit(), 589'000u);
  for (const auto& r : w.contract->rounds()) {
    EXPECT_EQ(r.proof_bytes, 288u);
    EXPECT_EQ(r.gas_used, 589'000u);
    // The measured verification time is still recorded, as telemetry only.
    EXPECT_GT(r.verify_ms, 0.0);
  }
}

TEST(Contract, NonPrivateGasIsDeterministicToo) {
  ContractTerms terms = default_terms();
  terms.num_audits = 2;
  terms.private_proofs = false;
  World w(terms);
  w.contract->set_responder(w.honest_responder(false));
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(3 * terms.audit_period_s);
  econ::AuditCostModel model;
  model.proof_bytes = 96;  // Eq. 1 proofs
  const std::uint64_t expected = model.gas_per_audit();
  ASSERT_EQ(w.contract->rounds().size(), 2u);
  for (const auto& r : w.contract->rounds()) {
    EXPECT_EQ(r.proof_bytes, 96u);
    EXPECT_EQ(r.gas_used, expected);
  }
}

TEST(Contract, ChallengesAreUnpredictableAcrossRounds) {
  ContractTerms terms = default_terms();
  terms.num_audits = 3;
  World w(terms);
  w.contract->set_responder(w.honest_responder(true));
  w.contract->negotiated();
  w.contract->acked(true);
  w.contract->freeze();
  w.chain.advance(4 * terms.audit_period_s);
  const auto& rounds = w.contract->rounds();
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_NE(rounds[0].challenge.c1, rounds[1].challenge.c1);
  EXPECT_NE(rounds[1].challenge.c2, rounds[2].challenge.c2);
  EXPECT_FALSE(rounds[0].challenge.r == rounds[1].challenge.r);
}

}  // namespace
}  // namespace dsaudit::contract
