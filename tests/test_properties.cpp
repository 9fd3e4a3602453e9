// Property-based sweeps across module boundaries: randomized serialization
// fuzzing, statistical properties of the challenge expansion, erasure-coding
// loss sweeps, and algebraic cross-identities that tie independent
// implementations together.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "primitives/prp.hpp"
#include "pairing/pairing.hpp"
#include "parallel/thread_pool.hpp"
#include "storage/erasure.hpp"

namespace dsaudit {
namespace {

using primitives::SecureRng;

// ---------------------------------------------------------------------------
// Serialization fuzzing: random byte strings must never crash decoders and
// accepted inputs must re-encode to the same bytes (canonical formats).
// ---------------------------------------------------------------------------

TEST(Fuzz, G1DecompressNeverCrashesAndIsCanonical) {
  auto rng = SecureRng::deterministic(1000);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::array<std::uint8_t, 32> buf;
    rng.fill(buf);
    auto p = curve::g1_decompress(buf);
    if (p) {
      ++accepted;
      EXPECT_EQ(curve::g1_compress(*p), buf);  // canonical round-trip
      EXPECT_TRUE(curve::G1(*p).is_on_curve());
    }
  }
  // Random x < p is on-curve with probability ~1/2 and the two top bits must
  // be clear-ish; expect a healthy mix of accept/reject.
  EXPECT_GT(accepted, 100);
  EXPECT_LT(accepted, 1900);
}

TEST(Fuzz, ProofDecodersNeverCrash) {
  auto rng = SecureRng::deterministic(1001);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> buf(96);
    rng.fill(buf);
    (void)audit::deserialize_basic(buf);
    std::vector<std::uint8_t> buf2(288);
    rng.fill(buf2);
    (void)audit::deserialize_private(buf2);
    std::vector<std::uint8_t> buf3(104);
    rng.fill(buf3);
    (void)audit::decode_challenge(buf3);
  }
  // Lengths other than the exact wire size are rejected outright.
  for (std::size_t len : {0u, 1u, 95u, 97u, 287u, 289u, 4096u}) {
    std::vector<std::uint8_t> buf(len, 0xab);
    EXPECT_FALSE(audit::deserialize_basic(buf).has_value());
    EXPECT_FALSE(audit::deserialize_private(buf).has_value());
  }
}

TEST(Fuzz, PublicKeyDecoderRejectsTruncations) {
  auto rng = SecureRng::deterministic(1002);
  auto kp = audit::keygen(10, rng);
  auto bytes = audit::serialize(kp.pk, true);
  for (std::size_t cut = 1; cut < bytes.size(); cut += 37) {
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.end() - cut);
    // Below the smallest key it is a bad length; above it, the s field no
    // longer matches the buffer.
    EXPECT_EQ(audit::decode_public_key(trunc).error,
              trunc.size() < 8 + 64 + 64 + 32 ? audit::DecodeError::BadLength
                                              : audit::DecodeError::BadStructure)
        << cut;
  }
}

// ---------------------------------------------------------------------------
// Challenge expansion statistics.
// ---------------------------------------------------------------------------

TEST(Properties, ChallengeIndicesAreUniformish) {
  // Each chunk should be sampled roughly k/d of the time across many seeds —
  // a grossly biased PRP would undermine the §VI-A detection probability.
  auto rng = SecureRng::deterministic(1003);
  const std::size_t d = 40, k = 10;
  std::vector<int> hits(d, 0);
  const int rounds = 400;
  for (int round = 0; round < rounds; ++round) {
    auto c1 = rng.bytes32();
    for (auto idx : primitives::challenge_indices(c1, d, k)) hits[idx]++;
  }
  double expect = rounds * static_cast<double>(k) / d;  // 100
  for (std::size_t i = 0; i < d; ++i) {
    EXPECT_GT(hits[i], expect * 0.5) << "chunk " << i << " undersampled";
    EXPECT_LT(hits[i], expect * 1.6) << "chunk " << i << " oversampled";
  }
}

TEST(Properties, CoefficientsAreDistinctAcrossPositionsAndSeeds) {
  auto rng = SecureRng::deterministic(1004);
  std::set<std::string> seen;
  for (int seed = 0; seed < 20; ++seed) {
    auto c2 = rng.bytes32();
    for (std::uint64_t j = 0; j < 20; ++j) {
      auto coeff = ff::Fr::from_be_bytes_mod(primitives::prf_bytes(c2, j));
      EXPECT_TRUE(seen.insert(coeff.to_dec()).second);
    }
  }
}

// ---------------------------------------------------------------------------
// Erasure-coding loss sweep.
// ---------------------------------------------------------------------------

class ErasureLossSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ErasureLossSweep, RandomLossPatterns) {
  auto [k, m] = GetParam();
  auto rng = SecureRng::deterministic(1005 + k * 31 + m);
  std::vector<std::uint8_t> data(997);
  rng.fill(data);
  storage::ReedSolomon rs(k, m);
  auto shards = rs.encode(data);
  for (int trial = 0; trial < 20; ++trial) {
    // Drop a random subset of exactly m shards; reconstruction must succeed.
    std::vector<std::size_t> order(k + m);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform(i)]);
    }
    std::vector<std::optional<std::vector<std::uint8_t>>> present(k + m);
    for (int i = 0; i < k; ++i) present[order[i]] = shards[order[i]];
    auto rec = rs.reconstruct(present, data.size());
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(*rec, data);
  }
}

INSTANTIATE_TEST_SUITE_P(Codings, ErasureLossSweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                           std::pair{3, 7}, std::pair{10, 4},
                                           std::pair{20, 20}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.first) + "_m" +
                                  std::to_string(info.param.second);
                         });

// ---------------------------------------------------------------------------
// Algebraic cross-identities.
// ---------------------------------------------------------------------------

TEST(Properties, AuditPsiIsTheKzgWitness) {
  // The prover's psi = g1^{q(alpha)} is the KZG opening witness over the
  // key's SRS powers. Both ProverKey forms (per-power tables and the
  // shifted table) and the cold msm must equal textbook double-and-add
  // under the secret alpha, an oracle that shares no MSM code with them.
  auto rng = SecureRng::deterministic(1006);
  for (std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{10}}) {
    audit::KeyPair kp = audit::keygen(s, rng);
    auto tables = audit::ProverKey::build(kp.pk, SIZE_MAX);
    auto shifted = audit::ProverKey::build(kp.pk, 0);
    std::vector<ff::Fr> random_q(s - 1);
    for (auto& c : random_q) c = ff::Fr::random(rng);
    for (const auto& q : {random_q, std::vector<ff::Fr>(s - 1)}) {
      ff::Fr q_at_alpha = ff::Fr::zero();
      for (std::size_t j = q.size(); j-- > 0;) {
        q_at_alpha = q_at_alpha * kp.sk.alpha + q[j];
      }
      curve::G1 expected = curve::G1::generator().mul_naive(q_at_alpha);
      EXPECT_EQ(tables->psi(q), expected) << "s=" << s;
      EXPECT_EQ(shifted->psi(q), expected) << "s=" << s;
      EXPECT_EQ(curve::msm<curve::G1>(kp.pk.g1_alpha_powers, q), expected)
          << "s=" << s;
    }
    const std::vector<ff::Fr> too_many(s, ff::Fr::one());
    EXPECT_THROW(tables->psi(too_many), std::invalid_argument);
    EXPECT_THROW(shifted->psi(too_many), std::invalid_argument);
  }
}

TEST(Properties, SparseLineMulMatchesGenericMul) {
  auto rng = SecureRng::deterministic(1008);
  for (int i = 0; i < 20; ++i) {
    ff::Fp12 f = ff::Fp12::random(rng);
    ff::Fp2 a = ff::Fp2::random(rng);
    ff::Fp2 b = ff::Fp2::random(rng);
    ff::Fp2 c = ff::Fp2::random(rng);
    ff::Fp12 sparse{ff::Fp6{a, ff::Fp2::zero(), ff::Fp2::zero()},
                    ff::Fp6{b, c, ff::Fp2::zero()}};
    EXPECT_EQ(f.mul_by_line(a, b, c), f * sparse);
  }
}

TEST(Properties, GtElementsHaveOrderR) {
  // Every pairing output lies in the order-r subgroup: g^r == 1 and
  // g^{r-1} == g^{-1} == conj(g).
  auto rng = SecureRng::deterministic(1009);
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  EXPECT_TRUE(g.pow_u256(ff::Fr::modulus()).is_one());
  ff::U256 rm1;
  bigint::sub_with_borrow(ff::Fr::modulus(), ff::U256{1}, rm1);
  EXPECT_EQ(g.pow_u256(rm1), g.conjugate());
  EXPECT_EQ(g * g.conjugate(), ff::Fp12::one());
}

TEST(Properties, AuthenticatorHomomorphism) {
  // sigma_i * sigma_j under challenge weights equals the authenticator of the
  // weighted polynomial sum — the core HLA property, checked directly against
  // the secret key (test-only knowledge).
  auto rng = SecureRng::deterministic(1010);
  auto kp = audit::keygen(4, rng);
  std::vector<std::uint8_t> data(400);
  rng.fill(data);
  auto file = storage::encode_file(data, 4);
  auto name = ff::Fr::random(rng);
  auto tag = audit::generate_tags(kp.sk, kp.pk, file, name);
  ASSERT_GE(file.num_chunks(), 2u);

  ff::Fr c0 = ff::Fr::random(rng), c1 = ff::Fr::random(rng);
  curve::G1 combined = tag.sigmas[0].mul(c0) + tag.sigmas[1].mul(c1);
  // Recompute from scratch: (g1^{c0 M_0(a) + c1 M_1(a)} * H0^{c0} H1^{c1})^x.
  ff::Fr m = ff::Fr::zero();
  ff::Fr power = ff::Fr::one();
  for (std::size_t l = 0; l < 4; ++l) {
    m += (c0 * file.chunks[0][l] + c1 * file.chunks[1][l]) * power;
    power *= kp.sk.alpha;
  }
  curve::G1 expect = (curve::G1::generator().mul(m) +
                      audit::chunk_hash(name, 0).mul(c0) +
                      audit::chunk_hash(name, 1).mul(c1))
                         .mul(kp.sk.x);
  EXPECT_EQ(combined, expect);
}

// ---------------------------------------------------------------------------
// GT multi-exponentiation: Fp12::multi_pow pinned bit-identical to the
// textbook per-element pow_u256, across batch shapes (both engines, serial
// and sharded) and exponent edge cases, plus GT-subgroup closure.
// ---------------------------------------------------------------------------

/// Random GT elements: powers of one pairing output (stays in the order-r
/// cyclotomic subgroup, the multi_pow contract).
std::vector<ff::Fp12> random_gt_elements(std::size_t n, const ff::Fp12& g,
                                         SecureRng& rng) {
  std::vector<ff::Fp12> out(n);
  for (auto& b : out) {
    b = g.cyclotomic_pow_u256(ff::Fr::random(rng).to_u256());
  }
  return out;
}

TEST(GtMultiExp, MatchesNaivePerElementOracle) {
  // n = 346 and 900 (the churn and private window sizes) lie above both
  // kGtShardMinBases and kGtStrausMaxBases; each n runs at 1, 2 and 8
  // threads, so serial and sharded Straus and buckets all meet the oracle.
  static_assert(346 / ff::kGtShardMinBases >= 8 &&
                346 / 8 > ff::kGtStrausMaxBases);
  const unsigned original = parallel::thread_count();
  auto rng = SecureRng::deterministic(1100);
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  ff::U256 rm1;
  bigint::sub_with_borrow(ff::Fr::modulus(), ff::U256{1}, rm1);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{17}, std::size_t{64}, std::size_t{346},
                        std::size_t{900}}) {
    auto bases = random_gt_elements(n, g, rng);
    std::vector<ff::U256> exps(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Cycle the edge exponents through every batch position across sizes:
      // 0, 1, r-1 (the conjugate), dense 128-bit, dense 64-bit.
      switch ((i + n) % 5) {
        case 0: exps[i] = ff::U256{}; break;
        case 1: exps[i] = ff::U256{1}; break;
        case 2: exps[i] = rm1; break;
        case 3: exps[i] = ff::U256{rng.next_u64(), rng.next_u64(), 0, 0}; break;
        default: exps[i] = ff::U256{rng.next_u64()}; break;
      }
    }
    ff::Fp12 expect = ff::Fp12::one();
    for (std::size_t i = 0; i < n; ++i) expect *= bases[i].pow_u256(exps[i]);
    for (unsigned width : {1u, 2u, 8u}) {
      parallel::set_thread_count(width);
      ff::Fp12 got = ff::Fp12::multi_pow(bases, exps);
      // bit-identical field element
      EXPECT_TRUE(got == expect) << "n=" << n << " threads=" << width;
    }
  }
  parallel::set_thread_count(original);
}

TEST(GtMultiExp, HomogeneousEdgeExponents) {
  auto rng = SecureRng::deterministic(1101);
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  auto bases = random_gt_elements(5, g, rng);
  // All-zero exponents: the empty product.
  std::vector<ff::U256> zeros(bases.size(), ff::U256{});
  EXPECT_TRUE(ff::Fp12::multi_pow(bases, zeros).is_one());
  // All-one exponents: the plain product.
  std::vector<ff::U256> ones(bases.size(), ff::U256{1});
  ff::Fp12 prod = ff::Fp12::one();
  for (const auto& b : bases) prod *= b;
  EXPECT_TRUE(ff::Fp12::multi_pow(bases, ones) == prod);
  // r-1 on every slot: the product of conjugates (g^{r-1} = g^{-1} in GT).
  ff::U256 rm1;
  bigint::sub_with_borrow(ff::Fr::modulus(), ff::U256{1}, rm1);
  std::vector<ff::U256> invs(bases.size(), rm1);
  ff::Fp12 conj = ff::Fp12::one();
  for (const auto& b : bases) conj *= b.conjugate();
  EXPECT_TRUE(ff::Fp12::multi_pow(bases, invs) == conj);
  // Identity bases contribute nothing.
  std::vector<ff::Fp12> units(3, ff::Fp12::one());
  std::vector<ff::U256> exps(3, ff::U256{rng.next_u64()});
  EXPECT_TRUE(ff::Fp12::multi_pow(units, exps).is_one());
  // Length mismatch is an error, not a silent truncation.
  EXPECT_THROW(ff::Fp12::multi_pow(bases, std::span<const ff::U256>(ones.data(), 2)),
               std::invalid_argument);
}

TEST(GtMultiExp, SignedDigitsMatchPerElementLadder) {
  // The signed-digit engines (half-size Straus tables or buckets, conjugate
  // negatives) must agree with their one oracle, the per-element
  // pow_u256, on every batch shape and on carry-adversarial exponents
  // (all-ones windows force the signed recoder to carry through the entire
  // length).
  auto rng = SecureRng::deterministic(1103);
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  ff::U256 rm1;
  bigint::sub_with_borrow(ff::Fr::modulus(), ff::U256{1}, rm1);
  for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{16},
                        std::size_t{64}, std::size_t{129}}) {
    auto bases = random_gt_elements(n, g, rng);
    std::vector<ff::U256> exps(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 6) {
        case 0: exps[i] = rm1; break;
        case 1: exps[i] = ff::U256{}; break;
        case 2:
          // All-ones to the 253-bit line: worst-case carry chain.
          exps[i] = ff::U256{~0ULL, ~0ULL, ~0ULL, 0x1fffffffffffffffULL};
          break;
        case 3: exps[i] = ff::U256{1, 0, 0, 0x2000000000000000ULL}; break;
        default: exps[i] = ff::Fr::random(rng).to_u256(); break;
      }
    }
    ff::Fp12 s = ff::Fp12::multi_pow(bases, exps);
    ff::Fp12 expect = ff::Fp12::one();
    for (std::size_t i = 0; i < n; ++i) expect *= bases[i].pow_u256(exps[i]);
    EXPECT_TRUE(s == expect) << "n=" << n;
  }
}

TEST(GtMultiExp, SubgroupClosure) {
  // multi_pow over GT inputs stays in GT: the order-r subgroup membership
  // test (cyclotomic identity + order check) accepts every output.
  auto rng = SecureRng::deterministic(1102);
  ff::Fp12 g = pairing::pairing(curve::g1_random(rng), curve::g2_random(rng));
  auto bases = random_gt_elements(9, g, rng);
  std::vector<ff::U256> exps(bases.size());
  for (auto& e : exps) e = ff::U256{rng.next_u64(), rng.next_u64(), 0, 0};
  ff::Fp12 out = ff::Fp12::multi_pow(bases, exps);
  EXPECT_TRUE(pairing::gt_in_subgroup(out));
  EXPECT_TRUE(out.pow_u256(ff::Fr::modulus()).is_one());
}

TEST(Properties, CodecPreservesArbitrarySizes) {
  auto rng = SecureRng::deterministic(1011);
  for (int i = 0; i < 40; ++i) {
    std::size_t size = rng.uniform(5000);
    std::size_t s = 1 + rng.uniform(64);
    std::vector<std::uint8_t> data(size);
    rng.fill(data);
    auto file = storage::encode_file(data, s);
    EXPECT_EQ(storage::decode_file(file), data) << "size=" << size << " s=" << s;
  }
}

}  // namespace
}  // namespace dsaudit
