// One storage provider, many data owners (§VII-D / Fig. 10 right).
//
// A provider holding data for many owners must answer every owner's audit
// each round; authenticators are per-owner-key, so proofs cannot be merged
// across owners. This example measures the provider's aggregate proving time
// as its tenant count grows, and shows the contract side settling a round of
// audits for all of them with one verify_settlement batch.
//
// Build & run:  ./build/examples/multi_user_provider
#include <chrono>
#include <cstdio>

#include "audit/protocol.hpp"

using namespace dsaudit;
using Clock = std::chrono::steady_clock;

int main() {
  auto rng = primitives::SecureRng::from_os();
  const std::size_t s = 20;
  const std::size_t file_bytes = 8 * 1024;
  const std::size_t k = 10;

  struct Tenant {
    audit::KeyPair kp;
    storage::EncodedFile file;
    audit::FileTag tag;
    audit::Fr name;
  };

  std::printf("provider load vs tenant count (s=%zu, %zu KiB/file, k=%zu):\n",
              s, file_bytes / 1024, k);
  std::printf("%8s %14s %14s\n", "tenants", "prove-all (ms)", "ms/tenant");

  std::vector<Tenant> tenants;
  for (std::size_t target : {5u, 10u, 20u, 40u}) {
    while (tenants.size() < target) {
      Tenant t;
      t.kp = audit::keygen(s, rng);
      std::vector<std::uint8_t> data(file_bytes);
      rng.fill(data);
      t.file = storage::encode_file(data, s);
      t.name = audit::Fr::random(rng);
      t.tag = audit::generate_tags(t.kp.sk, t.kp.pk, t.file, t.name, 4);
      tenants.push_back(std::move(t));
    }
    // One audit round: every tenant's contract challenges this provider.
    audit::Challenge chal;
    chal.c1 = rng.bytes32();
    chal.c2 = rng.bytes32();
    chal.r = audit::Fr::random(rng);
    chal.k = k;

    // One prepared verifier per owner key, built outside the timed region.
    std::vector<audit::Verifier> verifiers;
    verifiers.reserve(tenants.size());
    for (const auto& t : tenants) verifiers.emplace_back(t.kp.pk);

    auto t0 = Clock::now();
    std::vector<audit::SettlementInstance> round;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const Tenant& t = tenants[i];
      audit::Prover prover(t.kp.pk, t.file, t.tag);
      audit::SettlementInstance inst;
      inst.verifier = &verifiers[i];
      inst.name = t.name;
      inst.num_chunks = t.file.num_chunks();
      inst.challenge = chal;
      inst.basic = prover.prove(chal);
      round.push_back(inst);
    }
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    std::printf("%8zu %14.1f %14.2f\n", tenants.size(), ms, ms / tenants.size());

    // The owners' contracts settle the round together. Keys are per owner,
    // so the batch shares only the generator pairing: 1 + 2 * tenants
    // pairings for a clean round.
    if (!audit::verify_settlement(round, rng.bytes32()).all_ok()) {
      std::printf("verification failed for a tenant (BUG)\n");
      return 1;
    }
  }

  std::printf("\nscaling is linear in tenants, matching Fig. 10 (right); at the\n"
              "paper's scale (300 owners/provider) extrapolate ms/tenant x 300.\n");
  return 0;
}
