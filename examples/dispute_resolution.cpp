// Dispute resolution (§III-C, Fig. 2): a provider silently drops part of the
// archive mid-contract. The contract detects it through failed audits,
// compensates the owner from the provider's collateral, and the final ledger
// shows exactly who paid whom — no court, no trusted third party.
//
// Build & run:  ./build/examples/dispute_resolution
#include <cstdio>

#include "audit/serialize.hpp"
#include "contract/audit_contract.hpp"

using namespace dsaudit;

int main() {
  auto rng = primitives::SecureRng::from_os();
  chain::Blockchain chainsim;
  auto bseed = rng.bytes32();
  chain::TrustedBeacon beacon(bseed);

  // Setup: 20 KiB archive, s = 10.
  const std::size_t s = 10;
  audit::KeyPair kp = audit::keygen(s, rng);
  std::vector<std::uint8_t> data(20 * 1024);
  rng.fill(data);
  storage::EncodedFile file = storage::encode_file(data, s);
  audit::Fr name = audit::Fr::random(rng);
  audit::FileTag tag = audit::generate_tags(kp.sk, kp.pk, file, name, 4);

  contract::ContractTerms terms;
  terms.owner = "alice";
  terms.provider = "mallory";
  terms.num_audits = 10;
  terms.audit_period_s = 86400;
  terms.response_window_s = 3600;
  terms.reward_per_audit = 100;
  terms.penalty_per_fail = 300;
  terms.challenged_chunks = file.num_chunks();  // small file: challenge all
  terms.private_proofs = true;

  chainsim.mint("alice", 10'000);
  chainsim.mint("mallory", 10'000);
  std::printf("ledger before: alice=%llu mallory=%llu\n",
              (unsigned long long)chainsim.balance("alice"),
              (unsigned long long)chainsim.balance("mallory"));

  // The contract verifies against the key alice records at Initialize,
  // with the file's chunk-hash table prepared once up front.
  audit::Verifier verifier(kp.pk);
  audit::PreparedFile file_ctx = audit::prepare_file(name, file.num_chunks());
  contract::AuditContract contract(chainsim, beacon, terms, verifier, name,
                                   file.num_chunks(), &file_ctx);

  // Mallory behaves for 4 rounds, then "reclaims space" by zeroing a chunk
  // (the §III-C adversarial behaviour: "simply drop the data to reclaim
  // more storage for more monetary benefits").
  storage::EncodedFile held = file;
  int round = 0;
  audit::Prover honest_prover(kp.pk, held, tag);
  contract.set_responder(
      [&](const audit::Challenge& chal) -> std::optional<std::vector<std::uint8_t>> {
        ++round;
        if (round == 5) {
          for (auto& b : held.chunks[3]) b = audit::Fr::zero();
          std::printf("round %d: mallory silently drops chunk 3\n", round);
        }
        audit::Prover p(kp.pk, held, tag);
        return audit::serialize(p.prove_private(chal, rng));
      });

  contract.negotiated();
  contract.acked(true);
  contract.freeze();
  std::printf("escrow locked: %llu (rewards %llu + collateral %llu)\n",
              (unsigned long long)contract.escrow_balance(),
              (unsigned long long)(terms.reward_per_audit * terms.num_audits),
              (unsigned long long)(terms.penalty_per_fail * terms.num_audits));

  chainsim.advance((terms.num_audits + 1) * terms.audit_period_s);

  std::printf("\naudit history:\n");
  for (const auto& r : contract.rounds()) {
    const char* outcome = r.outcome == contract::RoundOutcome::Pass ? "PASS"
                          : r.outcome == contract::RoundOutcome::Fail
                              ? "FAIL (slash)"
                              : "TIMEOUT (slash)";
    std::printf("  round %2llu: %-14s proof=%zuB gas=%llu\n",
                (unsigned long long)r.round, outcome, r.proof_bytes,
                (unsigned long long)r.gas_used);
  }
  std::printf("\nsummary: %llu passed, %llu failed, %llu timeouts\n",
              (unsigned long long)contract.passes(),
              (unsigned long long)contract.fails(),
              (unsigned long long)contract.timeouts());
  std::printf("ledger after:  alice=%llu mallory=%llu (escrow=%llu)\n",
              (unsigned long long)chainsim.balance("alice"),
              (unsigned long long)chainsim.balance("mallory"),
              (unsigned long long)contract.escrow_balance());

  // Economic outcome: mallory earned 4 honest rewards but lost 6 penalties.
  bool mallory_lost = chainsim.balance("mallory") < 10'000;
  std::printf("dispute resolved on-chain: mallory %s\n",
              mallory_lost ? "paid for the data loss" : "escaped (BUG)");
  return mallory_lost ? 0 : 1;
}
