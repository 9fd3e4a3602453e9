// Ablation benches for the design choices DESIGN.md calls out:
//   A1  Pippenger MSM vs naive per-point scalar multiplication
//   A2  shared-final-exponentiation multi-pairing vs separate pairings
//   A3  batch verification vs one-by-one (the §VII-D batching claim)
//   A4  the s-parameter's provider storage overhead (paper: extra storage
//       is 1/s of the file)
//   A5  GT compression: 288-byte vs 480-byte private proofs, and the
//       decompression cost it buys
#include "audit/serialize.hpp"
#include "bench/bench_util.hpp"
#include "pairing/pairing.hpp"

using namespace dsaudit;
using namespace dsaudit::benchutil;

int main() {
  auto rng = primitives::SecureRng::deterministic(60);
  header("Ablation A1: Pippenger MSM vs naive scalar-mul-and-add");
  {
    std::vector<curve::G1> pts;
    std::vector<ff::Fr> sc;
    for (int i = 0; i < 300; ++i) {
      pts.push_back(curve::g1_random(rng));
      sc.push_back(ff::Fr::random(rng));
    }
    double t_msm = time_best_ms([&] { (void)curve::msm<curve::G1>(pts, sc); });
    double t_naive = time_best_ms([&] {
      curve::G1 acc = curve::G1::infinity();
      for (int i = 0; i < 300; ++i) acc += pts[i].mul(sc[i]);
      (void)acc;
    });
    std::printf("n=300: naive %.1f ms, Pippenger %.1f ms  (%.1fx)\n", t_naive,
                t_msm, t_naive / t_msm);
  }

  header("Ablation A2: multi-pairing (shared final exp) vs separate pairings");
  {
    std::vector<std::pair<curve::G1, curve::G2>> pairs;
    for (int i = 0; i < 4; ++i) {
      pairs.emplace_back(curve::g1_random(rng), curve::g2_random(rng));
    }
    double t_multi = time_best_ms([&] { (void)pairing::multi_pairing(pairs); });
    double t_sep = time_best_ms([&] {
      ff::Fp12 acc = ff::Fp12::one();
      for (const auto& [p, q] : pairs) acc *= pairing::pairing(p, q);
      (void)acc;
    });
    std::printf("4 pairings: separate %.1f ms, multi %.1f ms  (%.1fx)\n", t_sep,
                t_multi, t_sep / t_multi);
  }

  header("Ablation A3: batch verification vs one-by-one (Eq. 1 instances)");
  {
    Scenario sc = make_scenario(64 * 31 * 20, 20, rng);
    audit::Prover prover(sc.kp.pk, sc.file, sc.tag);
    audit::Verifier verifier(sc.kp.pk);
    std::vector<audit::SettlementInstance> instances;
    for (int i = 0; i < 8; ++i) {
      audit::SettlementInstance inst;
      inst.verifier = &verifier;
      inst.name = sc.name;
      inst.num_chunks = sc.file.num_chunks();
      inst.challenge = make_challenge(rng, 10);
      inst.basic = prover.prove(inst.challenge);
      instances.push_back(inst);
    }
    double t_batch = time_best_ms([&] {
      if (!audit::verify_settlement(instances, rng.bytes32()).all_ok()) {
        std::abort();
      }
    }, 2);
    double t_each = time_best_ms([&] {
      for (const auto& inst : instances) {
        if (!verifier.verify(inst.name, inst.num_chunks, inst.challenge,
                             *inst.basic)) {
          std::abort();
        }
      }
    }, 2);
    std::printf("8 audits: one-by-one %.1f ms, batched %.1f ms  (%.1fx)\n",
                t_each, t_batch, t_each / t_batch);
  }

  header("Ablation A4: provider storage overhead vs s (paper: 1/s of file)");
  {
    const std::size_t file_bytes = 310000;
    std::printf("%6s %18s %16s\n", "s", "tag bytes", "fraction of file");
    for (std::size_t s : {1u, 10u, 50u, 100u}) {
      auto file = storage::encode_file(std::vector<std::uint8_t>(file_bytes, 7), s);
      // One 32-byte compressed sigma per chunk.
      std::size_t tag_bytes = 48 + 32 * file.num_chunks();
      std::printf("%6zu %18zu %15.4f%%\n", s, tag_bytes,
                  100.0 * tag_bytes / file_bytes);
    }
  }

  header("Ablation A5: GT compression (the 288-byte proof)");
  {
    Scenario sc = make_scenario(31 * 10 * 40, 10, rng);
    audit::Prover prover(sc.kp.pk, sc.file, sc.tag);
    auto proof = prover.prove_private(make_challenge(rng, 10), rng);
    auto wire = audit::serialize(proof);
    std::size_t uncompressed = 32 + 32 + 32 + 12 * 32;  // raw Fp12 for R
    double t_comp = time_best_ms([&] { (void)audit::gt_compress(proof.big_r); });
    auto bytes = audit::gt_compress(proof.big_r);
    double t_decomp = time_best_ms([&] {
      if (!audit::gt_decode(bytes)) std::abort();
    });
    std::printf("proof: %zu B compressed vs %zu B raw (-%zu B calldata "
                "= %llu gas/audit saved)\n",
                wire.size(), uncompressed, uncompressed - wire.size(),
                static_cast<unsigned long long>((uncompressed - wire.size()) * 16));
    std::printf("cost: compress %.3f ms (prover), decode %.2f ms "
                "(torus decode + GT membership, verifier side)\n", t_comp,
                t_decomp);
  }
  return 0;
}
