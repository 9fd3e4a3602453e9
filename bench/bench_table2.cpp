// Table II: SNARK-based strawman vs the main HLA+KZG solution.
//
// Strawman column: the R1CS constraint count comes from the real Merkle
// circuit shape; time/size figures come from the Table II-calibrated Groth16
// cost model (see DESIGN.md substitutions) — the real Merkle logic is also
// executed and timed for reference.
// Main column: everything is actually executed; the 1 GB preprocessing time
// is extrapolated from a measured 8 MiB run (tag generation is per-chunk
// linear in file size).
#include "audit/serialize.hpp"
#include "bench/bench_util.hpp"
#include "strawman/strawman_audit.hpp"

using namespace dsaudit;
using namespace dsaudit::benchutil;

int main() {
  auto rng = primitives::SecureRng::deterministic(42);
  header("Table II reproduction: strawman vs main solution");

  // ---------------- Strawman on the paper's 1 KB file ----------------------
  std::vector<std::uint8_t> small(1024);
  rng.fill(small);
  strawman::StrawmanAuditor sim(small);
  const auto& model = sim.cost_model();
  std::size_t constraints = sim.circuit().constraints;

  double merkle_prove_ms = time_best_ms([&] {
    auto proof = sim.prove(sim.challenge_leaf(7));
    (void)proof;
  });
  double merkle_verify_ms = time_best_ms([&] {
    auto proof = sim.prove(sim.challenge_leaf(7));
    if (!strawman::StrawmanAuditor::verify(sim.root(), proof)) std::abort();
  });

  // ---------------- Main protocol, s = 50, k = 300 ------------------------
  const std::size_t s = 50;
  const std::size_t sample_bytes = 8 * 1024 * 1024;  // measured slice
  auto t0 = Clock::now();
  Scenario sc = make_scenario(sample_bytes, s, rng, 4);
  double pre_ms_sample = ms_since(t0);
  double pre_s_1gb = pre_ms_sample / 1000.0 * (1024.0 * 1024 * 1024 / sample_bytes);

  audit::Prover prover(sc.kp.pk, sc.file, sc.tag);
  audit::Challenge chal = make_challenge(rng, 300);
  audit::ProofPrivate proof;
  double prove_ms = time_best_ms([&] { proof = prover.prove_private(chal, rng); });
  auto wire = audit::serialize(proof);
  double verify_ms = time_best_ms([&] {
    if (!audit::Verifier(sc.kp.pk).verify_private(
            sc.name, sc.file.num_chunks(), chal, proof)) {
      std::abort();
    }
  });
  std::size_t param_bytes = audit::PublicKey::serialized_size_for(s, true);
  // Prover working set while answering a challenge: the k challenged chunks'
  // coefficients, their authenticators, the SRS powers and the aggregation
  // buffers (the file itself streams from disk chunk by chunk).
  std::size_t prover_mem = 300 * s * 32        // challenged chunk data
                           + 300 * sizeof(curve::G1)  // their sigmas
                           + sc.kp.pk.g1_alpha_powers.size() * sizeof(curve::G1) +
                           2 * s * 32;  // P_k and quotient coefficients

  std::printf("\n%-28s %-26s %-26s\n", "", "Strawman (1 KB file)", "Main (1 GB file, s=50)");
  std::printf("%-28s %-26s %-26s\n", "----------------------------",
              "--------------------------", "--------------------------");
  std::printf("%-28s %-26s %-26s\n", "paper: pre-process", "260 s", "~120 s");
  std::printf("%-28s %-9.0f s (model)      %.0f s (measured 8 MiB x %.0f)\n",
              "ours:  pre-process", model.setup_ms(constraints) / 1000.0,
              pre_s_1gb, 1024.0 * 1024 * 1024 / sample_bytes);
  std::printf("%-28s %-26s %-26s\n", "paper: param size", "150 MB", "~5 KB");
  std::printf("%-28s %-9.0f MB (model)     %zu bytes (exact)\n",
              "ours:  param size",
              model.params_bytes(constraints) / 1024 / 1024, param_bytes);
  std::printf("%-28s %-26s %-26s\n", "paper: # constraints", "3x10^5", "-");
  std::printf("%-28s %-26zu %-26s\n", "ours:  # constraints", constraints, "-");
  std::printf("%-28s %-26s %-26s\n", "paper: proof generation", "30 s", "46 ms");
  std::printf("%-28s %-9.0f s (model)      %.1f ms (measured)\n",
              "ours:  proof generation", model.prove_ms(constraints) / 1000.0,
              prove_ms);
  std::printf("       (real Merkle open:    %.3f ms)\n", merkle_prove_ms);
  std::printf("%-28s %-26s %-26s\n", "paper: prover memory", "~300 MB", "3 MB");
  std::printf("%-28s %-9.0f MB (model)     %.1f MB (working set)\n",
              "ours:  prover memory", model.memory_bytes(constraints) / 1024 / 1024,
              prover_mem / 1024.0 / 1024.0);
  std::printf("%-28s %-26s %-26s\n", "paper: proof size", "384 bytes", "288 bytes");
  std::printf("%-28s %-9zu bytes          %zu bytes (exact)\n",
              "ours:  proof size", model.proof_bytes, wire.size());
  std::printf("%-28s %-26s %-26s\n", "paper: verification", "30 ms", "7 ms");
  std::printf("%-28s %-9.0f ms (model)     %.1f ms (measured)\n",
              "ours:  verification", model.verify_ms, verify_ms);
  std::printf("       (real Merkle check:   %.3f ms)\n", merkle_verify_ms);

  std::printf("\nshape check: main wins pre-process (file 10^6 x larger, similar time),\n"
              "proof generation (ms vs tens of s), params (KB vs 100s of MB);\n"
              "both proofs are O(100) bytes with main's 288 < strawman's 384.\n");
  return 0;
}
