// The paper's motivating scenario (§I-A): backing up a photo collection
// off-site on a decentralized storage network.
//
// Pipeline (§III-A storage infrastructure + §V auditing):
//   1. encrypt client-side (mandatory),
//   2. erasure-code 3-of-10 (the §VII-B redundancy example),
//   3. place shards on providers discovered via the Chord DHT,
//   4. one audit contract per shard-holding provider,
//   5. run months of scheduled audits on the simulated chain,
//   6. lose three providers entirely — and still recover the photos.
//
// Build & run:  ./build/examples/archive_backup
#include <cstdio>

#include "audit/serialize.hpp"
#include "contract/audit_contract.hpp"
#include "econ/cost_model.hpp"
#include "storage/dht.hpp"
#include "storage/erasure.hpp"

using namespace dsaudit;

int main() {
  auto rng = primitives::SecureRng::from_os();

  // --- 1. The photo collection, encrypted before anything leaves home. ----
  std::vector<std::uint8_t> photos(256 * 1024);
  rng.fill(photos);
  auto original = photos;

  std::array<std::uint8_t, 32> master_key = rng.bytes32();
  storage::encrypt_in_place(photos, master_key, /*file_id=*/2026);
  std::printf("owner: encrypted %zu KiB of photos\n", photos.size() / 1024);

  // --- 2. Erasure-code into 10 shards, any 3 reconstruct. -----------------
  storage::ReedSolomon rs(3, 7);
  auto shards = rs.encode(photos);
  std::printf("owner: 3-of-10 Reed-Solomon -> %zu shards x %zu KiB\n",
              shards.size(), shards[0].size() / 1024);

  // --- 3. Provider discovery on the DHT ring. -----------------------------
  storage::ChordRing ring;
  for (int i = 0; i < 40; ++i) ring.join("provider-" + std::to_string(i));
  auto holders = ring.successors(storage::ring_hash("photos-2026"), shards.size());
  std::size_t total_hops = 0;
  for (auto id : holders) total_hops += ring.lookup(id).hops;
  std::printf("owner: placed shards on %zu of %zu providers (avg %.1f routing hops)\n",
              holders.size(), ring.size(),
              static_cast<double>(total_hops) / holders.size());

  // --- 4. One audit contract per shard holder. ----------------------------
  const std::size_t s = 20;
  chain::Blockchain chainsim;
  std::array<std::uint8_t, 32> bseed = rng.bytes32();
  chain::TrustedBeacon beacon(bseed);

  audit::KeyPair kp = audit::keygen(s, rng);
  // One prepared verifier for the owner's key, shared by every contract.
  audit::Verifier verifier(kp.pk);
  chainsim.mint("owner", 10'000'000);

  struct ShardDeployment {
    storage::EncodedFile file;
    audit::FileTag tag;
    audit::Fr name;
    std::unique_ptr<audit::Prover> prover;
    audit::PreparedFile file_ctx;  // the shard's chunk-hash table
    // Each shard's contract answers challenges from its own RNG stream:
    // with DSAUDIT_THREADS > 1 the chain prepares concurrent rounds across
    // contracts, and a shared stream would race.
    std::unique_ptr<primitives::SecureRng> prover_rng;
    std::unique_ptr<contract::AuditContract> contract;
  };
  std::vector<ShardDeployment> deployments(shards.size());

  contract::ContractTerms base_terms;
  base_terms.owner = "owner";
  base_terms.num_audits = 30;          // one month, daily
  base_terms.audit_period_s = 86400;
  base_terms.response_window_s = 3600;
  base_terms.reward_per_audit = 10;
  base_terms.penalty_per_fail = 25;
  base_terms.challenged_chunks = 50;
  base_terms.private_proofs = true;

  for (std::size_t i = 0; i < shards.size(); ++i) {
    auto& dep = deployments[i];
    dep.file = storage::encode_file(shards[i], s);
    dep.name = audit::Fr::random(rng);
    dep.tag = audit::generate_tags(kp.sk, kp.pk, dep.file, dep.name, 4);
    dep.prover = std::make_unique<audit::Prover>(kp.pk, dep.file, dep.tag);

    contract::ContractTerms terms = base_terms;
    terms.provider = *ring.node_name(holders[i]);
    chainsim.mint(terms.provider, 100'000);
    dep.file_ctx = audit::prepare_file(dep.name, dep.file.num_chunks());
    dep.contract = std::make_unique<contract::AuditContract>(
        chainsim, beacon, terms, verifier, dep.name, dep.file.num_chunks(),
        &dep.file_ctx);
    audit::Prover* prover = dep.prover.get();
    dep.prover_rng = std::make_unique<primitives::SecureRng>(rng.bytes32());
    primitives::SecureRng* dep_rng = dep.prover_rng.get();
    dep.contract->set_responder(
        [prover, dep_rng](const audit::Challenge& chal)
            -> std::optional<std::vector<std::uint8_t>> {
          return audit::serialize(prover->prove_private(chal, *dep_rng));
        });
    dep.contract->negotiated();
    dep.contract->acked(true);
    dep.contract->freeze();
  }
  std::printf("owner: %zu audit contracts funded and scheduled\n",
              deployments.size());

  // --- 5. A month of daily audits on the chain. ---------------------------
  chainsim.advance(31ull * 86400);
  std::uint64_t passes = 0, gas = 0;
  for (auto& dep : deployments) {
    passes += dep.contract->passes();
    for (const auto& r : dep.contract->rounds()) gas += r.gas_used;
  }
  chain::PriceModel price;
  std::printf("month 1: %llu/%u audits passed, %.2f USD total on-chain cost\n",
              static_cast<unsigned long long>(passes),
              static_cast<unsigned>(deployments.size() * base_terms.num_audits),
              price.usd(gas));

  econ::AuditCostModel model;
  std::printf("model:   %.2f USD/audit x 10 providers x 365 days = %.0f USD/yr "
              "(daily auditing, full redundancy)\n",
              model.usd_per_audit(),
              econ::contract_fee_usd(model, 365, 1.0, 10));

  // --- 6. Catastrophe: three providers vanish. Recover from any 3 shards. -
  std::vector<std::optional<std::vector<std::uint8_t>>> surviving(shards.size());
  surviving[1] = shards[1];
  surviving[4] = shards[4];
  surviving[9] = shards[9];
  auto recovered = rs.reconstruct(surviving, photos.size());
  if (!recovered) {
    std::printf("recovery FAILED\n");
    return 1;
  }
  storage::decrypt_in_place(*recovered, master_key, 2026);
  bool intact = *recovered == original;
  std::printf("recovery from 3 surviving shards: %s\n",
              intact ? "photos intact" : "CORRUPTED");
  return intact ? 0 : 1;
}
