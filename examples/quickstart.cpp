// Quickstart: one complete audit round, end to end, on one page.
//
//   owner: keygen -> encode file -> authenticators
//   contract: challenge from beacon randomness
//   provider: privacy-assured proof (288 bytes)
//   contract: Eq. 2 verification
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "audit/protocol.hpp"
#include "audit/serialize.hpp"

using namespace dsaudit;

int main() {
  auto rng = primitives::SecureRng::from_os();

  // --- Data owner D: pick s, generate keys, encode + tag the file. --------
  const std::size_t s = 50;  // blocks per chunk (paper's sweet spot)
  audit::KeyPair kp = audit::keygen(s, rng);

  std::vector<std::uint8_t> archive(64 * 1024);  // a 64 KiB archive file
  rng.fill(archive);

  storage::EncodedFile file = storage::encode_file(archive, s);
  audit::Fr name = audit::Fr::random(rng);  // on-chain file identifier
  audit::FileTag tag = audit::generate_tags(kp.sk, kp.pk, file, name);

  std::printf("owner: encoded %zu bytes into %zu blocks = %zu chunks (s = %zu)\n",
              archive.size(), file.num_blocks, file.num_chunks(), s);
  std::printf("owner: public key is %zu bytes on chain\n",
              audit::PublicKey::serialized_size_for(s, /*with_privacy=*/true));

  // One prepared verifier per public key serves every check against it.
  audit::Verifier verifier(kp.pk);

  // --- Storage provider S: accept only if the authenticators check out. ---
  if (!verifier.verify_tags(file, tag)) {
    std::printf("provider: REJECTED tags (owner tried to cheat)\n");
    return 1;
  }
  std::printf("provider: authenticators verified, contract acked\n");

  // --- Smart contract: challenge k chunks (95%% confidence at 1%% loss). --
  audit::Challenge chal;
  chal.c1 = rng.bytes32();  // in production: randomness beacon output
  chal.c2 = rng.bytes32();
  chal.r = audit::Fr::random(rng);
  chal.k = audit::chunks_for_confidence(0.95, 0.01);
  std::printf("contract: challenged k = %zu of %zu chunks\n", chal.k,
              file.num_chunks());

  // --- Provider: the 288-byte privacy-assured response. -------------------
  audit::Prover prover(kp.pk, file, tag);
  audit::ProverTimings t;
  audit::ProofPrivate proof = prover.prove_private(chal, rng, &t);
  auto wire = audit::serialize(proof);
  std::printf("provider: proof = %zu bytes (Zp %.2f ms | ECC %.2f ms | GT %.2f ms)\n",
              wire.size(), t.zp_ms, t.ecc_ms, t.gt_ms);

  // --- Contract: constant-cost verification (Eq. 2). ----------------------
  auto received = audit::decode_private(wire);
  if (!received) {
    std::printf("contract: proof refused (%s)\n",
                audit::to_string(received.error));
    return 1;
  }
  bool ok = verifier.verify_private(name, file.num_chunks(), chal, *received);
  std::printf("contract: verification %s -> micro-payment to %s\n",
              ok ? "PASS" : "FAIL", ok ? "provider" : "owner");
  return ok ? 0 : 1;
}
