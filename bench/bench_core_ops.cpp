// Google-benchmark microbenchmarks of every cryptographic building block,
// from field multiplication up to full proof verification. These are the
// constants behind all the per-figure numbers.
#include <benchmark/benchmark.h>

#include <memory>

#include "audit/serialize.hpp"
#include "bench/bench_util.hpp"
#include "pairing/pairing.hpp"
#include "parallel/thread_pool.hpp"

using namespace dsaudit;

namespace {

primitives::SecureRng& rng() {
  static auto r = primitives::SecureRng::deterministic(51);
  return r;
}

void BM_FpMul(benchmark::State& state) {
  ff::Fp a = ff::Fp::random(rng()), b = ff::Fp::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a * b);
  }
}
BENCHMARK(BM_FpMul);

void BM_FpInverse(benchmark::State& state) {
  ff::Fp a = ff::Fp::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a.inverse() + ff::Fp::one());
  }
}
BENCHMARK(BM_FpInverse);

/// The square root and Legendre symbol on 64 random inputs in turn: the
/// roots on squares (g1_decompress's case), the symbols on random elements
/// (hash_to_g1's screen, half of them non-residues).
void BM_FpSqrt(benchmark::State& state) {
  std::array<ff::Fp, 64> squares;
  for (auto& s : squares) s = ff::Fp::random(rng()).square();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(squares[i++ % squares.size()].sqrt());
  }
}
BENCHMARK(BM_FpSqrt);

void BM_FpLegendre(benchmark::State& state) {
  std::array<ff::Fp, 64> xs;
  for (auto& x : xs) x = ff::Fp::random(rng());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xs[i++ % xs.size()].legendre());
  }
}
BENCHMARK(BM_FpLegendre);

/// One 32-byte G1 decode: the canonical-x check, x^3 + 3 and a square root.
/// A basic proof carries two.
void BM_G1Decompress(benchmark::State& state) {
  std::array<std::array<std::uint8_t, 32>, 64> encodings;
  for (auto& e : encodings) e = curve::g1_compress(curve::g1_random(rng()));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        curve::g1_decompress(encodings[i++ % encodings.size()]));
  }
}
BENCHMARK(BM_G1Decompress);

void BM_Fp12Mul(benchmark::State& state) {
  ff::Fp12 a = ff::Fp12::random(rng()), b = ff::Fp12::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a * b);
  }
}
BENCHMARK(BM_Fp12Mul);

void BM_G1ScalarMul(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  ff::Fr k = ff::Fr::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.mul(k));
  }
}
BENCHMARK(BM_G1ScalarMul);

void BM_G1ScalarMulNaive(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  ff::Fr k = ff::Fr::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.mul_naive(k));
  }
}
BENCHMARK(BM_G1ScalarMulNaive);

void BM_G1FixedBaseMul(benchmark::State& state) {
  curve::g1_generator_table();  // build outside the timed region
  ff::Fr k = ff::Fr::random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::g1_mul_generator(k));
  }
}
BENCHMARK(BM_G1FixedBaseMul);

// The prover's psi MSM over a key's s - 1 SRS powers, random quotients, in
// each form an audit::ProverKey can take, plus the cold msm it replaces.
// Form 0: cold msm; 1: one compact fixed-base table per power (the
// generator table for power 0); 2: one shifted-base table over all powers.
// audit::kPsiTableMaxPowers is read from these rows.
void BM_PsiMsm(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  const int form = static_cast<int>(state.range(1));
  const audit::KeyPair kp = audit::keygen(s, rng());
  const auto& powers = kp.pk.g1_alpha_powers;
  std::vector<ff::Fr> q;
  for (std::size_t j = 0; j < powers.size(); ++j) {
    q.push_back(ff::Fr::random(rng()));
  }
  curve::g1_generator_table();  // build outside the timed region
  const auto key = audit::ProverKey::build(
      kp.pk, form == 1 ? powers.size() : 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(form == 0 ? curve::msm<curve::G1>(powers, q)
                                       : key->psi(q));
  }
}
BENCHMARK(BM_PsiMsm)
    ->ArgNames({"s", "form"})
    ->ArgsProduct({{3, 4, 5, 6, 10, 20}, {0, 1, 2}});

void BM_HashToG1(benchmark::State& state) {
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::chunk_hash(ff::Fr::from_u64(7), ctr++));
  }
}
BENCHMARK(BM_HashToG1);

void BM_MsmG1(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<curve::G1> pts;
  std::vector<ff::Fr> sc;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(curve::g1_random(rng()));
    sc.push_back(ff::Fr::random(rng()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::msm<curve::G1>(pts, sc));
  }
}
// 1-32 straddle the full-width Straus/Pippenger crossover at
// curve::kStrausMaxBases (16) through the dispatching msm; BM_MsmRoute times
// each route alone.
BENCHMARK(BM_MsmG1)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Arg(50)->Arg(256)->Arg(1024)->Arg(4096);

// Each G1 MSM route called directly on the same affine bases: route 0 is
// curve::detail::msm_straus, route 1 curve::detail::msm_pippenger, at
// full-width (254-bit) and 128-bit scalars. curve::kStrausMaxBases is read
// from these rows.
void BM_MsmRoute(benchmark::State& state) {
  const bool pippenger = state.range(0) != 0;
  const bool short_scalars = state.range(1) == 128;
  const auto n = static_cast<std::size_t>(state.range(2));
  std::vector<curve::G1> pts;
  std::vector<ff::Fr> sc;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(curve::g1_random(rng()));
    sc.push_back(short_scalars ? ff::Fr::from_u256(ff::U256{
                                     rng().next_u64(), rng().next_u64(), 0, 0})
                               : ff::Fr::random(rng()));
  }
  const std::vector<curve::G1::Affine> affine = curve::G1::batch_to_affine(pts);
  const std::span<const curve::G1::Affine> bases(affine);
  const std::span<const ff::Fr> scalars(sc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pippenger ? curve::detail::msm_pippenger<curve::G1>(bases, scalars)
                  : curve::detail::msm_straus<curve::G1>(bases, scalars));
  }
}
BENCHMARK(BM_MsmRoute)
    ->ArgNames({"route", "bits", "n"})
    ->ArgsProduct({{0, 1},
                   {254, 128},
                   {1, 2, 4, 6, 8, 10, 12, 14, 16, 17, 18, 19, 20, 22, 24, 28,
                    32, 48, 64}});

void BM_Pairing(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  curve::G2 q = curve::g2_random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::pairing(p, q));
  }
}
BENCHMARK(BM_Pairing);

void BM_G2Prepare(benchmark::State& state) {
  curve::G2 q = curve::g2_random(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::G2Prepared(q));
  }
}
BENCHMARK(BM_G2Prepare);

/// Pairing against a cached line table — the per-call cost a prepared
/// verifier key pays.
void BM_PairingPrepared(benchmark::State& state) {
  curve::G1 p = curve::g1_random(rng());
  pairing::G2Prepared q(curve::g2_random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::pairing(p, q));
  }
}
BENCHMARK(BM_PairingPrepared);

void BM_FinalExp(benchmark::State& state) {
  ff::Fp12 m = pairing::miller_loop(curve::g1_random(rng()), curve::g2_random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::final_exponentiation(m));
  }
}
BENCHMARK(BM_FinalExp);

void BM_MultiPairing4(benchmark::State& state) {
  std::vector<std::pair<curve::G1, curve::G2>> pairs;
  for (int i = 0; i < 4; ++i) {
    pairs.emplace_back(curve::g1_random(rng()), curve::g2_random(rng()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::multi_pairing(pairs));
  }
}
BENCHMARK(BM_MultiPairing4);

/// The verification-equation shape: 4 Miller loops over fixed, prepared G2
/// points, lock-step squarings, one final exponentiation.
void BM_MultiPairing4Prepared(benchmark::State& state) {
  std::vector<pairing::G2Prepared> prep;
  std::vector<curve::G1> g1s;
  for (int i = 0; i < 4; ++i) {
    prep.emplace_back(curve::g2_random(rng()));
    g1s.push_back(curve::g1_random(rng()));
  }
  std::vector<pairing::PreparedPair> pairs;
  for (int i = 0; i < 4; ++i) pairs.push_back({g1s[i], &prep[i]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::multi_pairing(pairs));
  }
}
BENCHMARK(BM_MultiPairing4Prepared);

struct ProveFixture {
  benchutil::Scenario sc;
  std::unique_ptr<audit::Prover> prover;
  audit::Challenge chal;

  ProveFixture() {
    sc = benchutil::make_scenario(320 * 50 * 31, 50, rng());
    prover = std::make_unique<audit::Prover>(sc.kp.pk, sc.file, sc.tag,
                                             /*prepare_psi=*/true,
                                             /*prepare_sigma=*/true);
    chal = benchutil::make_challenge(rng(), 300);
  }
};

ProveFixture& fixture() {
  static ProveFixture f;
  return f;
}

void BM_ProveBasic_k300_s50(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.prover->prove(f.chal));
  }
}
BENCHMARK(BM_ProveBasic_k300_s50);

void BM_ProvePrivate_k300_s50(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.prover->prove_private(f.chal, rng()));
  }
}
BENCHMARK(BM_ProvePrivate_k300_s50);

void BM_VerifyBasic_k300(benchmark::State& state) {
  auto& f = fixture();
  auto proof = f.prover->prove(f.chal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::Verifier(f.sc.kp.pk).verify(
        f.sc.name, f.sc.file.num_chunks(), f.chal, proof));
  }
}
BENCHMARK(BM_VerifyBasic_k300);

void BM_VerifyPrivate_k300(benchmark::State& state) {
  auto& f = fixture();
  auto proof = f.prover->prove_private(f.chal, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::Verifier(f.sc.kp.pk).verify_private(
        f.sc.name, f.sc.file.num_chunks(), f.chal, proof));
  }
}
BENCHMARK(BM_VerifyPrivate_k300);

/// The production verifier: G2 line tables prepared once per public key and
/// the chunk-hash table once per file, amortized over every round (the
/// contract's steady state).
void BM_VerifyBasicPrepared_k300(benchmark::State& state) {
  auto& f = fixture();
  static audit::Verifier verifier(fixture().sc.kp.pk);
  static audit::PreparedFile file_ctx =
      audit::prepare_file(fixture().sc.name, fixture().sc.file.num_chunks());
  auto proof = f.prover->prove(f.chal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify(file_ctx, f.chal, proof));
  }
}
BENCHMARK(BM_VerifyBasicPrepared_k300);

void BM_VerifyPrivatePrepared_k300(benchmark::State& state) {
  auto& f = fixture();
  static audit::Verifier verifier(fixture().sc.kp.pk);
  static audit::PreparedFile file_ctx =
      audit::prepare_file(fixture().sc.name, fixture().sc.file.num_chunks());
  auto proof = f.prover->prove_private(f.chal, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify_private(file_ctx, f.chal, proof));
  }
}
BENCHMARK(BM_VerifyPrivatePrepared_k300);

// ---------------------------------------------------------------------------
// Thread scaling: the same hot paths with the parallel layer pinned to 1, 2,
// 4 and 8 threads (overriding DSAUDIT_THREADS for the timed region). Results
// are identical at every width — these measure wall-clock only.
// ---------------------------------------------------------------------------

/// Pins the pool width for one benchmark run and restores the environment
/// default afterwards.
struct ThreadPin {
  explicit ThreadPin(unsigned n) { parallel::set_thread_count(n); }
  ~ThreadPin() { parallel::set_thread_count(0); }
};

void BM_MsmG1Threads(benchmark::State& state) {
  ThreadPin pin(static_cast<unsigned>(state.range(0)));
  constexpr std::size_t n = 4096;
  std::vector<curve::G1> pts;
  std::vector<ff::Fr> sc;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(curve::g1_random(rng()));
    sc.push_back(ff::Fr::random(rng()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::msm<curve::G1>(pts, sc));
  }
}
BENCHMARK(BM_MsmG1Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_MultiPairing4PreparedThreads(benchmark::State& state) {
  ThreadPin pin(static_cast<unsigned>(state.range(0)));
  std::vector<pairing::G2Prepared> prep;
  std::vector<curve::G1> g1s;
  for (int i = 0; i < 4; ++i) {
    prep.emplace_back(curve::g2_random(rng()));
    g1s.push_back(curve::g1_random(rng()));
  }
  std::vector<pairing::PreparedPair> pairs;
  for (int i = 0; i < 4; ++i) pairs.push_back({g1s[i], &prep[i]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::multi_pairing(pairs));
  }
}
BENCHMARK(BM_MultiPairing4PreparedThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_ProveBasicThreads(benchmark::State& state) {
  ThreadPin pin(static_cast<unsigned>(state.range(0)));
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.prover->prove(f.chal));
  }
}
BENCHMARK(BM_ProveBasicThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_VerifyPrivatePreparedThreads(benchmark::State& state) {
  ThreadPin pin(static_cast<unsigned>(state.range(0)));
  auto& f = fixture();
  static audit::Verifier verifier(fixture().sc.kp.pk);
  static audit::PreparedFile file_ctx =
      audit::prepare_file(fixture().sc.name, fixture().sc.file.num_chunks());
  auto proof = f.prover->prove_private(f.chal, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify_private(file_ctx, f.chal, proof));
  }
}
BENCHMARK(BM_VerifyPrivatePreparedThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Batched settlement + the cyclotomic exponentiations behind it.
// ---------------------------------------------------------------------------

/// GT exponentiation by a random 254-bit scalar (the cyclotomic ladder).
void BM_GtPowCyclotomic(benchmark::State& state) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  auto e = ff::Fr::random(rng()).to_u256();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.cyclotomic_pow_u256(e));
  }
}
BENCHMARK(BM_GtPowCyclotomic);

/// The same power of a key's e(g1, eps) through its ProverKey comb: the
/// prover's R = e(g1, eps)^z.
void BM_GtPowFixedBase(benchmark::State& state) {
  static const auto key = audit::ProverKey::build(audit::keygen(3, rng()).pk);
  auto e = ff::Fr::random(rng()).to_u256();
  for (auto _ : state) {
    benchmark::DoNotOptimize(key->epsilon_pow(e));
  }
}
BENCHMARK(BM_GtPowFixedBase);

/// The settlement weights' shape, shared by both multi-exp benchmarks so
/// their ratio (the README speedup table) always compares like for like:
/// n random GT elements with dense 128-bit exponents.
std::pair<std::vector<ff::Fp12>, std::vector<ff::U256>> gt_multipow_inputs(
    std::size_t n) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  std::vector<ff::Fp12> bases(n);
  std::vector<ff::U256> exps(n);
  for (std::size_t i = 0; i < n; ++i) {
    bases[i] = g.cyclotomic_pow_u256(ff::Fr::random(rng()).to_u256());
    exps[i] = ff::U256{rng().next_u64(), rng().next_u64(), 0, 0};
  }
  return {std::move(bases), std::move(exps)};
}

/// GT multi-exponentiation through multi_pow at the pool's width (from
/// kGtShardMinBases bases it shards, hence real time); items/sec is
/// per-element throughput.
void BM_GtMultiPow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto [bases, exps] = gt_multipow_inputs(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ff::Fp12::multi_pow(bases, exps));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GtMultiPow)
    ->Arg(2)
    ->Arg(8)
    ->Arg(64)
    ->Arg(346)
    ->Arg(900)
    ->UseRealTime();

/// The naive baseline for the same shape: n independent 128-bit ladders
/// (what verify_settlement paid per round before the multi-exp reroute).
void BM_GtMultiPowNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto [bases, exps] = gt_multipow_inputs(n);
  for (auto _ : state) {
    ff::Fp12 acc = ff::Fp12::one();
    for (std::size_t i = 0; i < n; ++i) {
      acc *= bases[i].cyclotomic_pow_u256(exps[i]);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GtMultiPowNaive)->Arg(2)->Arg(8)->Arg(64)->Arg(346)->Arg(900);

/// Settling `batch_size` same-key Eq. 1 rounds in one weighted check (3
/// pairings total); time is for the whole batch — divide by the argument
/// for per-round cost. bench_settlement emits the JSON trajectory.
void BM_SettleBatchBasic(benchmark::State& state) {
  auto& f = fixture();
  static audit::Verifier verifier(fixture().sc.kp.pk);
  static audit::PreparedFile file_ctx =
      audit::prepare_file(fixture().sc.name, fixture().sc.file.num_chunks());
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  static std::vector<audit::SettlementInstance> pool = [] {
    std::vector<audit::SettlementInstance> v(64);
    for (auto& inst : v) {
      inst.verifier = &verifier;
      inst.file = &file_ctx;
      inst.challenge = benchutil::make_challenge(rng(), 8);
      inst.basic = fixture().prover->prove(inst.challenge);
    }
    return v;
  }();
  std::span<const audit::SettlementInstance> batch(pool.data(), n);
  auto seed = rng().bytes32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::verify_settlement(batch, seed));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SettleBatchBasic)->Arg(1)->Arg(8)->Arg(64);

void BM_GtCompress(benchmark::State& state) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::gt_compress(g));
  }
}
BENCHMARK(BM_GtCompress);

/// The decode layer of a private proof, split three ways: the order-r
/// membership test alone, the 192-byte GT decode (torus decode plus that
/// test), and the whole 288-byte decode_private (two G1 decompressions,
/// the scalar check and the GT decode).
void BM_GtInSubgroup(benchmark::State& state) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::gt_in_subgroup(g));
  }
}
BENCHMARK(BM_GtInSubgroup);

void BM_GtDecode(benchmark::State& state) {
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()));
  auto bytes = audit::gt_compress(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::gt_decode(bytes));
  }
}
BENCHMARK(BM_GtDecode);

void BM_DecodePrivate(benchmark::State& state) {
  audit::ProofPrivate proof{
      curve::g1_random(rng()).to_affine_point(), ff::Fr::random(rng()),
      curve::g1_random(rng()).to_affine_point(),
      pairing::pairing(curve::g1_random(rng()), curve::g2_random(rng()))};
  auto bytes = audit::serialize(proof);
  if (!audit::decode_private(bytes)) state.SkipWithError("decode refused");
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::decode_private(bytes));
  }
}
BENCHMARK(BM_DecodePrivate);

}  // namespace

BENCHMARK_MAIN();
