// Group-law, hashing, compression and MSM tests for G1/G2.
#include <gtest/gtest.h>

#include "curve/g1.hpp"
#include "curve/g2.hpp"
#include "curve/glv.hpp"
#include "primitives/keccak256.hpp"
#include "support/varuint.hpp"

namespace dsaudit::curve {
namespace {

using bigint::VarUInt;
using ff::Fr;
using primitives::SecureRng;

// Everything in the crypto stack flows from a handful of constants (the BN
// parameter t, the two moduli, the G2 generator, the GLV basis). A silent
// typo would produce a scheme that "works" against itself but is not BN254,
// so this re-derives the moduli and the GLV parameters from t and checks
// the generators, subgroup orders and the twist endomorphism.
TEST(Params, Bn254SelfCheck) {
  // 1. Moduli match the BN polynomial family at t = kBnParamT.
  VarUInt t{ff::kBnParamT};
  VarUInt t2 = t * t, t3 = t2 * t, t4 = t3 * t;
  VarUInt p = VarUInt{36} * t4 + VarUInt{36} * t3 + VarUInt{24} * t2 +
              VarUInt{6} * t + VarUInt{1};
  VarUInt r = VarUInt{36} * t4 + VarUInt{36} * t3 + VarUInt{18} * t2 +
              VarUInt{6} * t + VarUInt{1};
  EXPECT_EQ(p.to_u256(), ff::Fp::modulus()) << "p(t) != Fp modulus";
  EXPECT_EQ(r.to_u256(), Fr::modulus()) << "r(t) != Fr modulus";

  // 2. Generators are on their curves and have order r.
  EXPECT_TRUE(G1::generator().is_on_curve());
  EXPECT_TRUE(G1::generator().mul(Fr::modulus()).is_infinity());
  EXPECT_TRUE(G2::generator().is_on_curve());
  EXPECT_TRUE(g2_in_subgroup(G2::generator()));
  // The G2 generator is EIP-197's, given there in decimal.
  auto [gx, gy] = G2::generator().to_affine();
  EXPECT_EQ(VarUInt{gx.c0.to_u256()},
            VarUInt::from_dec("1085704699902305713594457076223282948137075635957"
                              "8518086990519993285655852781"));
  EXPECT_EQ(VarUInt{gx.c1.to_u256()},
            VarUInt::from_dec("1155973203298638710799100402139228578392581286182"
                              "1192530917403151452391805634"));
  EXPECT_EQ(VarUInt{gy.c0.to_u256()},
            VarUInt::from_dec("8495653923123431417604973247489272438418190587263"
                              "600148770280649306958101930"));
  EXPECT_EQ(VarUInt{gy.c1.to_u256()},
            VarUInt::from_dec("4082367875863433681332203403145435568316851327593"
                              "401208105741076214120093531"));
  // G2's b' = 3/xi and G1's b = 3.
  EXPECT_EQ(G2::curve_b() * ff::xi(), ff::Fp2::from_u64(3, 0));
  EXPECT_EQ(G1::curve_b(), ff::Fp::from_u64(3));

  // 3. Twist endomorphism psi satisfies psi(Q) = [p]Q on the r-subgroup
  //    (the eigenvalue of Frobenius on G2 is p mod r).
  Fr p_mod_r = Fr::from_u256(ff::Fp::modulus());
  G2 q = G2::generator().mul(Fr::from_u64(12345));
  EXPECT_EQ(g2_frobenius(q), q.mul(p_mod_r)) << "psi(Q) != [p]Q";
  EXPECT_EQ(g2_frobenius2(q), q.mul(p_mod_r * p_mod_r)) << "psi^2(Q) != [p^2]Q";

  // 4. GLV endomorphism parameters, re-derived independently over VarUInt.
  //    lambda = 36t^3 + 18t^2 + 6t + 1, the cube root of unity mod r that
  //    phi(x, y) = (beta*x, y) realizes on G1; the lattice basis
  //    v1 = (a1, b1), v2 = (-b1, b2) spans the kernel of
  //    (k1, k2) -> k1 + k2*lambda mod r with determinant exactly r.
  const GlvParams& glv = kGlvParams;
  VarUInt lambda = VarUInt{36} * t3 + VarUInt{18} * t2 + VarUInt{6} * t +
                   VarUInt{1};
  VarUInt a1 = VarUInt{6} * t2 + VarUInt{4} * t + VarUInt{1};
  VarUInt b1 = VarUInt{2} * t + VarUInt{1};
  VarUInt b2 = VarUInt{6} * t2 + VarUInt{2} * t;
  EXPECT_EQ(lambda.to_u256(), glv.lambda) << "GLV lambda != 36t^3+18t^2+6t+1";
  EXPECT_EQ(a1.to_u256(), glv.a1);
  EXPECT_EQ(b1.to_u256(), glv.b1);
  EXPECT_EQ(b2.to_u256(), glv.b2);
  EXPECT_EQ(a1 * b2 + b1 * b1, r) << "GLV lattice determinant != r";
  // The Babai-rounding reciprocals g1 = floor(2^256 b2 / r) and
  // g2 = floor(2^256 b1 / r).
  EXPECT_EQ(VarUInt::divmod(b2.shl(256), r).first.to_u256(), glv.g1);
  EXPECT_EQ(VarUInt::divmod(b1.shl(256), r).first.to_u256(), glv.g2);
  // Exact polynomial identity for the BN family:
  //   lambda^2 + lambda + 1 = (36t^2 + 3) * r.
  EXPECT_EQ(lambda * lambda + lambda + VarUInt{1},
            (VarUInt{36} * t2 + VarUInt{3}) * r);
  // beta is a primitive cube root of unity in Fp, oriented so that the
  // curve endomorphism matches the eigenvalue lambda on all of G1.
  EXPECT_NE(glv.beta, ff::Fp::one());
  EXPECT_EQ(glv.beta * glv.beta * glv.beta, ff::Fp::one());
  G1 gpt = G1::generator().mul(Fr::from_u64(987654321));
  auto [x, y] = gpt.to_affine();
  EXPECT_EQ(G1(x * glv.beta, y), gpt.mul_naive(glv.lambda))
      << "phi(P) != [lambda]P";
}

template <typename G>
class GroupLaw : public ::testing::Test {
 public:
  static G random(SecureRng& rng) { return G::generator().mul(Fr::random(rng)); }
};

using Groups = ::testing::Types<G1, G2>;
TYPED_TEST_SUITE(GroupLaw, Groups);

TYPED_TEST(GroupLaw, GeneratorOnCurve) {
  EXPECT_TRUE(TypeParam::generator().is_on_curve());
  EXPECT_TRUE(TypeParam::infinity().is_on_curve());
  EXPECT_TRUE(TypeParam::infinity().is_infinity());
}

TYPED_TEST(GroupLaw, AbelianGroupAxioms) {
  auto rng = SecureRng::deterministic(41);
  for (int i = 0; i < 10; ++i) {
    TypeParam p = this->random(rng);
    TypeParam q = this->random(rng);
    TypeParam r = this->random(rng);
    EXPECT_TRUE((p + q).is_on_curve());
    EXPECT_EQ(p + q, q + p);
    EXPECT_EQ((p + q) + r, p + (q + r));
    EXPECT_EQ(p + TypeParam::infinity(), p);
    EXPECT_TRUE((p + (-p)).is_infinity());
    EXPECT_EQ(p - q, p + (-q));
  }
}

TYPED_TEST(GroupLaw, DoublingConsistent) {
  auto rng = SecureRng::deterministic(42);
  TypeParam p = this->random(rng);
  EXPECT_EQ(p.dbl(), p + p);
  EXPECT_EQ(p.dbl().dbl(), p + p + p + p);
  EXPECT_TRUE(TypeParam::infinity().dbl().is_infinity());
  // Adding a point to itself must fall back to doubling.
  TypeParam q = p;
  EXPECT_EQ(p + q, p.dbl());
}

TYPED_TEST(GroupLaw, ScalarMulMatchesRepeatedAdd) {
  auto rng = SecureRng::deterministic(43);
  TypeParam p = this->random(rng);
  TypeParam acc = TypeParam::infinity();
  for (int k = 0; k <= 20; ++k) {
    EXPECT_EQ(p.mul(Fr::from_u64(k)), acc) << "k=" << k;
    acc += p;
  }
}

TYPED_TEST(GroupLaw, ScalarMulHomomorphism) {
  auto rng = SecureRng::deterministic(44);
  TypeParam p = this->random(rng);
  Fr a = Fr::random(rng), b = Fr::random(rng);
  EXPECT_EQ(p.mul(a) + p.mul(b), p.mul(a + b));
  EXPECT_EQ(p.mul(a).mul(b), p.mul(a * b));
}

TYPED_TEST(GroupLaw, OrderIsR) {
  auto rng = SecureRng::deterministic(45);
  TypeParam p = this->random(rng);
  EXPECT_TRUE(p.mul(Fr::modulus()).is_infinity());
}

TEST(G1Hash, DeterministicAndOnCurve) {
  G1 a = hash_to_g1("name||0");
  G1 b = hash_to_g1("name||0");
  G1 c = hash_to_g1("name||1");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a.is_on_curve());
  EXPECT_TRUE(c.is_on_curve());
  EXPECT_FALSE(a.is_infinity());
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

// Pinned compressed outputs of the try-and-increment map. Every tag and
// chi is built from H, so the map's output must never change.
TEST(G1Hash, KnownAnswers) {
  const std::pair<const char*, const char*> kats[] = {
      {"", "0e9153a11cf13df331d89058d0020ca1fe7ca0e1fd95c956b3af321ae5298da5"},
      {"abc", "1bcdeb772783fb909c61e04f8ee4fe107bd2c085e3c42747835e0ab09f01df1b"},
      {"dsaudit-kat",
       "6fda1e7db83fac3863e0c9d374740ad7f70c07baac5dcab2990f5f865f68e795"},
      {"the quick brown fox jumps over the lazy dog",
       "61f670526a96a3e7bd003852fd97b84f838645d89765a8578ba8be1feefd0e2d"}};
  for (const auto& [in, want] : kats) {
    EXPECT_EQ(hex(g1_compress(hash_to_g1(in))), want) << "input '" << in << "'";
  }
}

// 10^4 outputs, Keccak-256 over their concatenated compressed encodings,
// pinned from the map before the Jacobi screen: screening candidates by
// their symbol must pick the same candidate and root for every input.
TEST(G1Hash, DigestOfTenThousandOutputs) {
  primitives::Keccak256 k;
  for (int i = 0; i < 10000; ++i) {
    k.update(g1_compress(hash_to_g1("h2g1-digest-" + std::to_string(i))));
  }
  EXPECT_EQ(hex(k.finalize()),
            "7232c51409e37ba297bfc5c951eb853e909dc2e674be8f9f2e735acaa9022461");
}

TEST(G1Hash, ManyInputsAllValid) {
  for (int i = 0; i < 100; ++i) {
    std::string s = "file-xyz||" + std::to_string(i);
    G1 p = hash_to_g1(s);
    EXPECT_TRUE(p.is_on_curve());
    EXPECT_FALSE(p.is_infinity());
  }
}

TEST(G1Compress, RoundTrip) {
  auto rng = SecureRng::deterministic(46);
  for (int i = 0; i < 30; ++i) {
    G1 p = g1_random(rng);
    auto bytes = g1_compress(p);
    auto q = g1_decompress(bytes);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, p);
  }
  // Infinity round-trips.
  auto inf_bytes = g1_compress(G1::infinity());
  auto inf = g1_decompress(inf_bytes);
  ASSERT_TRUE(inf.has_value());
  EXPECT_TRUE(inf->is_infinity());
}

TEST(G1Compress, RejectsMalformed) {
  std::array<std::uint8_t, 32> bad{};
  bad.fill(0xff);  // x >= p with flag bits set oddly
  EXPECT_FALSE(g1_decompress(bad).has_value());
  // x = p (non-canonical)
  auto pbytes = ff::Fp::modulus();
  std::array<std::uint8_t, 32> buf;
  pbytes.to_be_bytes(buf);
  EXPECT_FALSE(g1_decompress(buf).has_value());
  // infinity flag with non-zero payload
  std::array<std::uint8_t, 32> inf_bad{};
  inf_bad[0] = 0x80;
  inf_bad[31] = 1;
  EXPECT_FALSE(g1_decompress(inf_bad).has_value());
}

TEST(G2Compress, RejectsMalformed) {
  auto rng = SecureRng::deterministic(45);
  const G2 q = g2_random(rng);
  const auto good = g2_compress(q);
  ASSERT_EQ(g2_decompress(good), q);
  // Bytes 0..31 carry x.c1 (and the flag bits), bytes 32..63 x.c0.
  auto with_half = [&good](std::size_t offset, const ff::U256& v) {
    auto buf = good;
    v.to_be_bytes(std::span<std::uint8_t, 32>(buf.data() + offset, 32));
    return buf;
  };
  // x.c0 = p and x.c1 = p (non-canonical), and x.c0 + p: the same x
  // written non-canonically.
  EXPECT_FALSE(g2_decompress(with_half(32, ff::Fp::modulus())).has_value());
  EXPECT_FALSE(g2_decompress(with_half(0, ff::Fp::modulus())).has_value());
  ff::U256 x0_plus_p;
  bigint::add_with_carry(q.to_affine().first.c0.to_u256(), ff::Fp::modulus(),
                         x0_plus_p);
  EXPECT_FALSE(g2_decompress(with_half(32, x0_plus_p)).has_value());
  // Infinity flag with a nonzero payload in either half, or with the sign
  // bit set.
  std::array<std::uint8_t, 64> inf{};
  inf[0] = 0x80;
  ASSERT_TRUE(g2_decompress(inf).has_value());
  for (std::size_t i : {std::size_t{1}, std::size_t{31}, std::size_t{63}}) {
    auto bad = inf;
    bad[i] = 1;
    EXPECT_FALSE(g2_decompress(bad).has_value()) << "payload byte " << i;
  }
  auto inf_sign = inf;
  inf_sign[0] |= 0x40;
  EXPECT_FALSE(g2_decompress(inf_sign).has_value());
  // An x whose twist RHS x^3 + b' has no square root (its norm is not an
  // Fp square), and a twist point outside the r-subgroup.
  bool no_root = false, cofactor = false;
  for (int tries = 0; tries < 100 && !(no_root && cofactor); ++tries) {
    ff::Fp2 x = ff::Fp2::random(rng);
    ff::Fp2 rhs = x.square() * x + G2::curve_b();
    std::array<std::uint8_t, 64> enc{};
    x.c1.to_be_bytes(std::span<std::uint8_t, 32>(enc.data(), 32));
    x.c0.to_be_bytes(std::span<std::uint8_t, 32>(enc.data() + 32, 32));
    if (auto y = rhs.sqrt()) {
      ASSERT_FALSE(g2_in_subgroup(G2{x, *y}));
      cofactor = true;
    } else {
      ASSERT_EQ((rhs.c0.square() + rhs.c1.square()).legendre(), -1);
      no_root = true;
    }
    EXPECT_FALSE(g2_decompress(enc).has_value());
    enc[0] |= 0x40;
    EXPECT_FALSE(g2_decompress(enc).has_value());
  }
  EXPECT_TRUE(no_root && cofactor);
  // The sign bit picks -Q, never Q.
  for (int i = 0; i < 5; ++i) {
    const G2 p = g2_random(rng);
    auto flipped = g2_compress(p);
    flipped[0] ^= 0x40;
    EXPECT_EQ(g2_decompress(flipped), -p);
  }
}

TEST(G2Compress, RoundTrip) {
  auto rng = SecureRng::deterministic(47);
  for (int i = 0; i < 10; ++i) {
    G2 p = g2_random(rng);
    auto bytes = g2_compress(p);
    auto q = g2_decompress(bytes);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, p);
  }
  auto inf = g2_decompress(g2_compress(G2::infinity()));
  ASSERT_TRUE(inf.has_value());
  EXPECT_TRUE(inf->is_infinity());
}

TEST(G2Subgroup, GeneratorInButTwistPointOut) {
  EXPECT_TRUE(g2_in_subgroup(G2::generator()));
  // A point on the twist but outside the r-subgroup: found by hashing x
  // candidates on the twist and excluding the subgroup. The twist's order is
  // r * c2 with c2 > 1, so a random twist point is in the subgroup with
  // negligible probability.
  auto rng = SecureRng::deterministic(48);
  for (int tries = 0; tries < 50; ++tries) {
    ff::Fp2 x = ff::Fp2::random(rng);
    ff::Fp2 rhs = x.square() * x + G2::curve_b();
    auto y = rhs.sqrt();
    if (!y) continue;
    G2 p{x, *y};
    EXPECT_TRUE(p.is_on_curve());
    EXPECT_FALSE(g2_in_subgroup(p));
    // And decompression must reject its encoding.
    EXPECT_FALSE(g2_decompress(g2_compress(p)).has_value());
    return;
  }
  FAIL() << "no twist point found in 50 attempts (sqrt broken?)";
}

TEST(G2Frobenius, MatchesScalarP) {
  auto rng = SecureRng::deterministic(49);
  Fr p_mod_r = Fr::from_u256(ff::Fp::modulus());
  for (int i = 0; i < 5; ++i) {
    G2 q = g2_random(rng);
    EXPECT_EQ(g2_frobenius(q), q.mul(p_mod_r));
    EXPECT_EQ(g2_frobenius2(q), g2_frobenius(g2_frobenius(q)));
  }
  EXPECT_TRUE(g2_frobenius(G2::infinity()).is_infinity());
}

// ---------------------------------------------------------------------------
// Fast-path differential tests: every optimized route must be bit-identical
// to the retained naive reference.
// ---------------------------------------------------------------------------

TYPED_TEST(GroupLaw, WnafMulMatchesDoubleAndAdd) {
  auto rng = SecureRng::deterministic(53);
  TypeParam p = this->random(rng);
  // Random scalars plus the adversarial shapes for signed-digit recoding:
  // all-ones windows, single bits, values near the modulus, and the full
  // 256-bit range (wNAF must handle the transient overflow past 2^256).
  std::vector<ff::U256> ks;
  for (int i = 0; i < 10; ++i) ks.push_back(Fr::random(rng).to_u256());
  ks.push_back(ff::U256{0});
  ks.push_back(ff::U256{1});
  ks.push_back(ff::U256{31});   // 11111b: max-magnitude wNAF digit
  ks.push_back(ff::U256{0xffffffffffffffffULL, 0xffffffffffffffffULL,
                        0xffffffffffffffffULL, 0xffffffffffffffffULL});
  ks.push_back(Fr::modulus());
  for (unsigned b : {1u, 63u, 64u, 127u, 254u, 255u}) {
    ff::U256 k;
    k.limb[b / 64] = std::uint64_t{1} << (b % 64);
    ks.push_back(k);
  }
  for (const auto& k : ks) {
    EXPECT_EQ(p.mul(k), p.mul_naive(k)) << "k=" << k.to_hex();
  }
  EXPECT_TRUE(TypeParam::infinity().mul(ks[0]).is_infinity());
}

TYPED_TEST(GroupLaw, MixedAddMatchesGeneralAdd) {
  auto rng = SecureRng::deterministic(54);
  TypeParam p = this->random(rng);
  TypeParam q = this->random(rng);
  auto qa = q.to_affine_point();
  EXPECT_EQ(p.mixed_add(qa), p + q);
  // Edge cases: infinity operands, doubling, cancellation.
  EXPECT_EQ(TypeParam::infinity().mixed_add(qa), q);
  EXPECT_EQ(p.mixed_add(typename TypeParam::Affine{}), p);
  EXPECT_EQ(q.mixed_add(qa), q.dbl());
  EXPECT_TRUE((-q).mixed_add(qa).is_infinity());
}

TYPED_TEST(GroupLaw, BatchToAffineMatchesElementwise) {
  auto rng = SecureRng::deterministic(55);
  std::vector<TypeParam> pts;
  for (int i = 0; i < 9; ++i) {
    pts.push_back(this->random(rng));
    if (i % 3 == 1) pts.push_back(TypeParam::infinity());
  }
  auto affs = TypeParam::batch_to_affine(pts);
  ASSERT_EQ(affs.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(affs[i].is_infinity(), pts[i].is_infinity());
    EXPECT_EQ(TypeParam(affs[i]), pts[i]);
  }
}

TEST(FixedBase, MatchesGenericMul) {
  auto rng = SecureRng::deterministic(56);
  for (int i = 0; i < 10; ++i) {
    Fr k = Fr::random(rng);
    EXPECT_EQ(g1_mul_generator(k), G1::generator().mul_naive(k));
  }
  EXPECT_TRUE(g1_mul_generator(Fr::zero()).is_infinity());
  EXPECT_EQ(g1_mul_generator(Fr::one()), G1::generator());
  // Non-default widths agree too.
  FixedBaseTable<G1> narrow(G1::generator(), 4);
  Fr k = Fr::random(rng);
  EXPECT_EQ(narrow.mul(k), g1_mul_generator(k));
}

TEST(Msm, DuplicatePointsAndStructuredScalars) {
  // Duplicate bases with equal scalars force same-bucket doublings and
  // cancellations through the batched-affine accumulator.
  auto rng = SecureRng::deterministic(57);
  G1 p = g1_random(rng);
  for (std::size_t n : {2u, 5u, 33u, 200u}) {
    std::vector<G1> pts(n, p);
    std::vector<Fr> sc(n, Fr::from_u64(7));
    EXPECT_EQ(msm<G1>(pts, sc), p.mul_naive(ff::U256{7 * n})) << "n=" << n;
    // Alternating k and -k over the same point cancels to infinity.
    if (n % 2 == 0) {
      Fr k = Fr::random(rng);
      for (std::size_t i = 0; i < n; ++i) sc[i] = i % 2 ? k : -k;
      EXPECT_TRUE(msm<G1>(pts, sc).is_infinity()) << "n=" << n;
    }
  }
}

TEST(Msm, PrecomputedMatchesCold) {
  auto rng = SecureRng::deterministic(58);
  for (std::size_t n : {1u, 2u, 30u, 300u}) {
    std::vector<G1> pts;
    std::vector<Fr> sc;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(i % 7 == 3 ? G1::infinity() : g1_random(rng));
      sc.push_back(i % 5 == 2 ? Fr::zero() : Fr::random(rng));
    }
    auto tbl = msm_precompute<G1>(pts);
    EXPECT_EQ(msm_precomputed(tbl, sc), msm<G1>(pts, sc)) << "n=" << n;
    // Fewer scalars than table bases commits against a prefix.
    if (n > 2) {
      std::span<const Fr> prefix(sc.data(), n - 2);
      std::span<const G1> ppts(pts.data(), n - 2);
      EXPECT_EQ(msm_precomputed(tbl, prefix), msm<G1>(ppts, prefix));
    }
    std::vector<Fr> too_many(tbl.n + 1, Fr::one());
    EXPECT_THROW(msm_precomputed(tbl, too_many), std::invalid_argument);
  }
}

TEST(Msm, MatchesNaive) {
  auto rng = SecureRng::deterministic(50);
  for (std::size_t n : {1u, 2u, 3u, 17u, 64u, 200u}) {
    std::vector<G1> pts;
    std::vector<Fr> sc;
    G1 expect = G1::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(g1_random(rng));
      sc.push_back(Fr::random(rng));
      expect += pts.back().mul_naive(sc.back());
    }
    EXPECT_EQ(msm<G1>(pts, sc), expect) << "n=" << n;
  }
}

TEST(Msm, EdgeCases) {
  auto rng = SecureRng::deterministic(51);
  // Zero scalars, infinity points, mismatched sizes.
  std::vector<G1> pts{g1_random(rng), G1::infinity(), g1_random(rng)};
  std::vector<Fr> sc{Fr::zero(), Fr::random(rng), Fr::from_u64(1)};
  EXPECT_EQ(msm<G1>(pts, sc), pts[2]);
  std::vector<Fr> wrong{Fr::one()};
  EXPECT_THROW(msm<G1>(pts, wrong), std::invalid_argument);
  EXPECT_TRUE(msm<G1>(std::span<const G1>{}, std::span<const Fr>{}).is_infinity());
}

TEST(Msm, AllZeroScalarsAndEmptyInputsEverywhere) {
  auto rng = SecureRng::deterministic(60);
  std::vector<G1> pts;
  for (int i = 0; i < 40; ++i) pts.push_back(g1_random(rng));
  std::vector<Fr> zeros(pts.size(), Fr::zero());
  EXPECT_TRUE(msm<G1>(pts, zeros).is_infinity());

  auto tbl = msm_precompute<G1>(pts);
  EXPECT_TRUE(msm_precomputed(tbl, zeros).is_infinity());
  EXPECT_TRUE(msm_precomputed(tbl, std::span<const Fr>{}).is_infinity());

  // Empty table, empty everything.
  auto empty_tbl = msm_precompute<G1>(std::span<const G1>{});
  EXPECT_EQ(empty_tbl.n, 0u);
  EXPECT_TRUE(msm_precomputed(empty_tbl, std::span<const Fr>{}).is_infinity());
  EXPECT_TRUE(msm_precomputed(empty_tbl, std::span<const std::uint64_t>{},
                              std::span<const Fr>{})
                  .is_infinity());

  // Single-point table and single-point MSM.
  std::span<const G1> one_pt(pts.data(), 1);
  Fr k = Fr::random(rng);
  std::span<const Fr> one_sc(&k, 1);
  EXPECT_EQ(msm<G1>(one_pt, one_sc), pts[0].mul(k));
  auto tbl1 = msm_precompute<G1>(one_pt);
  EXPECT_EQ(msm_precomputed(tbl1, one_sc), pts[0].mul(k));
}

TEST(Msm, ScalarsAtThe254BitBound) {
  // r - 1 (the largest canonical scalar) and high-bit-heavy values exercise
  // the signed-digit carry into the extra top window position across all
  // three MSM entry points.
  auto rng = SecureRng::deterministic(61);
  Fr r_minus_1 = Fr::zero() - Fr::one();
  Fr high_bit = Fr::from_u256(ff::U256{0, 0, 0, std::uint64_t{1} << 61});
  std::vector<G1> pts;
  std::vector<Fr> sc;
  G1 expect = G1::infinity();
  for (int i = 0; i < 24; ++i) {
    pts.push_back(g1_random(rng));
    sc.push_back(i % 3 == 0 ? r_minus_1 : (i % 3 == 1 ? high_bit : Fr::random(rng)));
    expect += pts.back().mul_naive(sc.back());
  }
  EXPECT_EQ(msm<G1>(pts, sc), expect);
  auto tbl = msm_precompute<G1>(pts);
  EXPECT_EQ(msm_precomputed(tbl, sc), expect);
  // r - 1 == -1: a single max-scalar multiply must be the negation.
  std::span<const G1> one_pt(pts.data(), 1);
  std::span<const Fr> one_sc(&r_minus_1, 1);
  EXPECT_EQ(msm<G1>(one_pt, one_sc), -pts[0]);
}

TEST(Msm, MulReducesWideScalarsModR) {
  // Point::mul on G1 takes any 256-bit integer and brings it below r by
  // subtraction before the GLV split: k*r + {0, 1, r-1} up to 2^256 and
  // 2^256 - 1, against the unreduced double-and-add ladder.
  auto rng = SecureRng::deterministic(67);
  const G1 p = g1_random(rng);
  const VarUInt r{Fr::modulus()};
  const VarUInt two256 = VarUInt{1}.shl(256);
  std::vector<VarUInt> ks{two256 - VarUInt{1}};
  for (std::uint64_t k = 1; k <= 5; ++k) {
    for (const VarUInt& off : {VarUInt{0}, VarUInt{1}, r - VarUInt{1}}) {
      const VarUInt v = VarUInt{k} * r + off;
      if (VarUInt::cmp(v, two256) < 0) ks.push_back(v);
    }
  }
  for (const VarUInt& k : ks) {
    EXPECT_EQ(p.mul(k.to_u256()), p.mul_naive(k.to_u256())) << k.to_dec();
  }
}

TEST(Msm, SubsetEdgeCases) {
  auto rng = SecureRng::deterministic(62);
  std::vector<G1> pts;
  for (int i = 0; i < 16; ++i) pts.push_back(g1_random(rng));
  auto tbl = msm_precompute<G1>(pts);

  // Empty subset.
  EXPECT_TRUE(msm_precomputed(tbl, std::span<const std::uint64_t>{},
                              std::span<const Fr>{})
                  .is_infinity());

  // Duplicate indices accumulate (the verifier may sample a chunk twice).
  std::vector<std::uint64_t> dup{3, 3, 3, 7};
  std::vector<Fr> dup_sc{Fr::from_u64(5), Fr::from_u64(6), Fr::zero(),
                         Fr::from_u64(9)};
  G1 expect = pts[3].mul(Fr::from_u64(11)) + pts[7].mul(Fr::from_u64(9));
  EXPECT_EQ(msm_precomputed(tbl, dup, dup_sc), expect);

  // Duplicate index with cancelling scalars collapses to infinity.
  Fr k = Fr::random(rng);
  std::vector<std::uint64_t> pair{5, 5};
  std::vector<Fr> cancel{k, Fr::zero() - k};
  EXPECT_TRUE(msm_precomputed(tbl, pair, cancel).is_infinity());

  // Max-bound scalars through the subset path.
  Fr r_minus_1 = Fr::zero() - Fr::one();
  std::vector<std::uint64_t> idx{0, 15, 15};
  std::vector<Fr> big{r_minus_1, r_minus_1, r_minus_1};
  EXPECT_EQ(msm_precomputed(tbl, idx, big),
            -(pts[0] + pts[15].mul(Fr::from_u64(2))));

  // Out-of-range index throws, size mismatch throws.
  std::vector<std::uint64_t> oor{16};
  std::vector<Fr> one_sc{Fr::one()};
  EXPECT_THROW(msm_precomputed(tbl, oor, one_sc), std::invalid_argument);
  std::vector<std::uint64_t> two_idx{1, 2};
  EXPECT_THROW(msm_precomputed(tbl, two_idx, one_sc), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GLV endomorphism: decomposition invariants and bit-identity of every
// endo-accelerated route against its retained oracle.
// ---------------------------------------------------------------------------

/// The adversarial scalar set for GLV: identities, the eigenvalue itself and
/// its negation (one half collapses to zero), the 2^128 boundary, and the
/// lattice-basis coordinates (Babai rounding lands exactly on a lattice
/// vertex).
std::vector<ff::U256> glv_edge_scalars() {
  const GlvParams& gp = kGlvParams;
  ff::U256 r = Fr::modulus();
  ff::U256 rm1, r_minus_lambda;
  bigint::sub_with_borrow(r, ff::U256{1}, rm1);
  bigint::sub_with_borrow(r, gp.lambda, r_minus_lambda);
  ff::U256 two128{0, 0, 1, 0};
  ff::U256 two128m1{~0ULL, ~0ULL, 0, 0}, two128p1{1, 0, 1, 0};
  std::vector<ff::U256> ks{ff::U256{},  ff::U256{1}, rm1,      gp.lambda,
                           r_minus_lambda, two128,   two128m1, two128p1,
                           gp.a1,       gp.b1,       gp.b2};
  // Lattice-adjacent: a1 +/- 1 and b2 + b1 sit on rounding boundaries.
  ff::U256 t;
  bigint::add_with_carry(gp.a1, ff::U256{1}, t);
  ks.push_back(t);
  bigint::sub_with_borrow(gp.a1, ff::U256{1}, t);
  ks.push_back(t);
  bigint::add_with_carry(gp.b2, gp.b1, t);
  ks.push_back(t);
  return ks;
}

TYPED_TEST(GroupLaw, MsmSweepAcrossStrausCrossoverMatchesNaive) {
  // Every size from 1 to 2 * kStrausMaxBases + 2, so the dispatching msm
  // takes the Straus kernel (up to the crossover of each scalar width, and
  // Point::mul at n = 1) and Pippenger (above it), and both routes, called
  // directly, run at every size. They meet the same input classes: infinity bases, zero scalars,
  // duplicate bases, P / -P pairs with equal scalars that cancel, r - 1, the
  // GLV edge scalars, and sets whose scalars are all <= 128 bits (the
  // unsplit regime). The pattern is rotated by n so small sizes hit every
  // class. Both msm overloads run every input: Jacobian bases and their
  // affine forms (the core the Jacobian one normalizes into above the
  // crossover). Oracle: the sum of mul_naive.
  using G = TypeParam;
  auto rng = SecureRng::deterministic(68);
  const auto edges = glv_edge_scalars();
  const Fr r_minus_1 = Fr::zero() - Fr::one();
  const Fr max128 = Fr::from_u256(ff::U256{~0ULL, ~0ULL, 0, 0});
  for (std::size_t n = 1; n <= 2 * kStrausMaxBases + 2; ++n) {
    for (bool short_scalars : {false, true}) {
      std::vector<G> pts;
      std::vector<Fr> sc;
      G expect = G::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t q = (i + n) % 7;
        G p = this->random(rng);
        if (q == 3) p = G::infinity();
        if (q == 4 && i > 0) p = pts[i - 1];     // duplicate base
        if (q == 5 && i > 0) p = -pts[i - 1];    // cancelling partner
        Fr k = short_scalars
                   ? Fr::from_u256(ff::U256{rng.next_u64(), rng.next_u64(), 0, 0})
                   : Fr::random(rng);
        switch ((i + 2 * n) % 5) {
          case 1: k = Fr::zero(); break;
          case 2: k = short_scalars ? max128 : r_minus_1; break;
          case 3:
            if (!short_scalars) k = Fr::from_u256(edges[(i + n) % edges.size()]);
            break;
          default: break;
        }
        if ((q == 4 || q == 5) && i > 0) k = sc[i - 1];
        pts.push_back(p);
        sc.push_back(k);
        expect += p.mul_naive(k);
      }
      const char* width = short_scalars ? " (<=128-bit)" : " (full width)";
      EXPECT_EQ(msm<G>(pts, sc), expect) << "n=" << n << width;
      const std::vector<typename G::Affine> affine = G::batch_to_affine(pts);
      const std::span<const typename G::Affine> aff(affine);
      EXPECT_EQ(msm<G>(aff, sc), expect) << "affine, n=" << n << width;
      EXPECT_EQ(detail::msm_straus<G>(std::span<const G>(pts),
                                      std::span<const Fr>(sc)),
                expect)
          << "Straus, n=" << n << width;
      EXPECT_EQ(detail::msm_pippenger<G>(aff, sc), expect)
          << "Pippenger, n=" << n << width;
    }
  }
}

TEST(Glv, DecomposeRoundTripAndBounds) {
  const GlvParams& gp = kGlvParams;
  const ff::U256 r = Fr::modulus();
  auto check = [&](const ff::U256& k) {
    GlvDecomposed d = glv_decompose(k);
    EXPECT_LE(d.k1.bit_length(), kGlvHalfBits) << "k=" << k.to_hex();
    EXPECT_LE(d.k2.bit_length(), kGlvHalfBits) << "k=" << k.to_hex();
    // (+/- k1) + (+/- k2) * lambda == k (mod r).
    ff::U256 s{};
    s = d.neg1 ? bigint::sub_mod(s, d.k1, r) : bigint::add_mod(s, d.k1, r);
    ff::U256 t = VarUInt::divmod(VarUInt{d.k2} * VarUInt{gp.lambda},
                                 VarUInt{r}).second.to_u256();
    s = d.neg2 ? bigint::sub_mod(s, t, r) : bigint::add_mod(s, t, r);
    EXPECT_EQ(s, k) << "k=" << k.to_hex();
  };
  for (const auto& k : glv_edge_scalars()) check(k);
  auto rng = SecureRng::deterministic(63);
  for (int i = 0; i < 200; ++i) check(Fr::random(rng).to_u256());
}

TEST(Glv, MulRoutesAgreeOnEdgeScalars) {
  auto rng = SecureRng::deterministic(64);
  G1 p = g1_random(rng);
  for (const auto& k : glv_edge_scalars()) {
    G1 naive = p.mul_naive(k);
    EXPECT_EQ(p.mul(k), naive) << "k=" << k.to_hex();  // GLV route
  }
  // Infinity is absorbed by every route.
  for (const auto& k : glv_edge_scalars()) {
    EXPECT_TRUE(G1::infinity().mul(k).is_infinity());
  }
}

TEST(Glv, MsmEntryPointsAgreeOnEdgeScalars) {
  // Edge scalars through cold, precomputed, and subset MSM: the endo-split
  // digit extraction and the phi-image table rows must reproduce the naive
  // per-point sum exactly.
  auto rng = SecureRng::deterministic(65);
  auto edges = glv_edge_scalars();
  std::vector<G1> pts;
  std::vector<Fr> sc;
  G1 expect = G1::infinity();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    pts.push_back(i % 5 == 4 ? G1::infinity() : g1_random(rng));
    sc.push_back(Fr::from_u256(edges[i]));
    expect += pts.back().mul_naive(sc.back().to_u256());
  }
  EXPECT_EQ(msm<G1>(pts, sc), expect);
  auto tbl = msm_precompute<G1>(pts);
  EXPECT_EQ(msm_precomputed(tbl, sc), expect);
  std::vector<std::uint64_t> idx;
  for (std::size_t i = 0; i < pts.size(); ++i) idx.push_back(i);
  EXPECT_EQ(msm_precomputed(tbl, idx, sc), expect);
}

/// True iff the signed w-bit recoding of a GLV half carries into the top
/// window of a compact G1 FixedBaseTable (ceil(128/w) windows).
bool carries_into_top_window(const ff::U256& h, unsigned w) {
  const unsigned windows = (kGlvHalfBits + w) / w;
  unsigned carry = 0;
  for (unsigned t = 0; t + 1 < windows; ++t) {
    carry = h.extract_window(t * w, w) + carry > (1u << (w - 1));
  }
  return carry != 0;
}

TEST(FixedBase, CompactGlvTableMatchesNaiveAtEveryWidth) {
  // The GLV-split signed-digit G1 table at widths 4..10, against mul_naive:
  // the GLV edge scalars (0, 1, r - 1, lambda, lattice-adjacent values), a
  // scalar whose k1 half is 0 and one whose k2 half is 0, and, per width,
  // random scalars whose halves carry into the top window. add_mul must
  // accumulate onto a nonzero point.
  auto rng = SecureRng::deterministic(66);
  const G1 base = g1_random(rng);
  const G1 offset = g1_random(rng);
  auto ks = glv_edge_scalars();
  const ff::U256 k2_only =
      (Fr::from_u256(kGlvParams.lambda) * Fr::from_u64(5)).to_u256();
  ASSERT_TRUE(glv_decompose(k2_only).k1.is_zero());
  ASSERT_TRUE(glv_decompose(ff::U256{1}).k2.is_zero());
  ks.push_back(k2_only);
  for (unsigned w = 4; w <= 10; ++w) {
    FixedBaseTable<G1> table(base, w);
    EXPECT_EQ(table.bytes(), ((kGlvHalfBits + w) / w) *
                                 (std::size_t{1} << (w - 1)) *
                                 sizeof(G1::Affine));
    std::vector<ff::U256> cases = ks;
    for (bool k2_half : {false, true}) {
      for (;;) {
        const ff::U256 k = Fr::random(rng).to_u256();
        const GlvDecomposed d = glv_decompose(k);
        if (carries_into_top_window(k2_half ? d.k2 : d.k1, w)) {
          cases.push_back(k);
          break;
        }
      }
    }
    for (const auto& k : cases) {
      const G1 naive = base.mul_naive(k);
      EXPECT_EQ(table.mul(k), naive) << "w=" << w << " k=" << k.to_hex();
      G1 acc = offset;
      table.add_mul(acc, k);
      EXPECT_EQ(acc, offset + naive) << "w=" << w << " k=" << k.to_hex();
    }
  }
}

TEST(FixedBase, GeneratorTableNoLargerThanTheUnsplitOne) {
  // The unsplit w = 8 generator table held 32 windows x 255 points.
  const auto& table = g1_generator_table();
  EXPECT_EQ(table.width(), 10u);
  EXPECT_LE(table.bytes(), std::size_t{587'520});
  EXPECT_EQ(FixedBaseTable<G1>(G1::generator(), 8).bytes(),
            std::size_t{2048} * sizeof(G1::Affine));
}

TEST(Glv, ColdMsmUnsplitRegimeMatchesNaive) {
  // Scalars at or below 128 bits keep the cold MSM on the unsplit path
  // (2 * max_bits <= 3 * kGlvHalfBits); it must agree with the naive sum
  // just like the split path does.
  auto rng = SecureRng::deterministic(66);
  std::vector<G1> pts;
  std::vector<Fr> sc;
  G1 expect = G1::infinity();
  for (int i = 0; i < 20; ++i) {
    pts.push_back(g1_random(rng));
    sc.push_back(Fr::from_u256(ff::U256{rng.next_u64(), rng.next_u64(), 0, 0}));
    expect += pts.back().mul_naive(sc.back().to_u256());
  }
  EXPECT_EQ(msm<G1>(pts, sc), expect);
}

// The differential oracle for g2_in_subgroup: the full order-r ladder
// [r] Q == infinity.
bool g2_in_subgroup_naive(const G2& p) {
  if (!p.is_on_curve()) return false;
  return p.mul(Fr::modulus()).is_infinity();
}

TEST(G2Subgroup, PsiCheckAgreesWithOrderLadder) {
  // The psi(Q) == [6t^2] Q fast path and the retained [r] Q == 0 oracle must
  // agree on every input class: subgroup points, infinity, cofactor points,
  // and off-curve garbage.
  auto rng = SecureRng::deterministic(67);
  EXPECT_TRUE(g2_in_subgroup_naive(G2::generator()));
  EXPECT_EQ(g2_in_subgroup(G2::infinity()), g2_in_subgroup_naive(G2::infinity()));
  for (int i = 0; i < 5; ++i) {
    G2 q = g2_random(rng);
    EXPECT_TRUE(g2_in_subgroup(q));
    EXPECT_TRUE(g2_in_subgroup_naive(q));
  }
  // Off-curve: an arbitrary (x, y) almost surely misses the twist.
  G2 bad{ff::Fp2::random(rng), ff::Fp2::random(rng)};
  if (!bad.is_on_curve()) {
    EXPECT_FALSE(g2_in_subgroup(bad));
    EXPECT_FALSE(g2_in_subgroup_naive(bad));
  }
  // On the twist but outside the r-subgroup.
  int found = 0;
  for (int tries = 0; tries < 100 && found < 3; ++tries) {
    ff::Fp2 x = ff::Fp2::random(rng);
    ff::Fp2 rhs = x.square() * x + G2::curve_b();
    auto y = rhs.sqrt();
    if (!y) continue;
    G2 p{x, *y};
    EXPECT_EQ(g2_in_subgroup(p), g2_in_subgroup_naive(p));
    EXPECT_FALSE(g2_in_subgroup(p));
    ++found;
  }
  EXPECT_GE(found, 1) << "no twist point found (sqrt broken?)";
}

TEST(Msm, RouteCountsDigitColumns) {
  // straus_route keeps an MSM on Straus while it has at most
  // 2 * kStrausMaxBases digit columns: two per G1 base once the widest
  // scalar reaches the GLV split (191 bits), one below it and on G2.
  const Fr r_minus_1 = Fr::zero() - Fr::one();
  const Fr max128 = Fr::from_u256(ff::U256{~0ULL, ~0ULL, 0, 0});
  const Fr below_split = Fr::from_u256(ff::U256{~0ULL, ~0ULL, (1ULL << 62) - 1, 0});
  const Fr at_split = Fr::from_u256(ff::U256{0, 0, 1ULL << 62, 0});
  // n scalars of 128 bits with `widest` last.
  auto set = [&](std::size_t n, const Fr& widest) {
    std::vector<Fr> sc(n, max128);
    if (n > 0) sc.back() = widest;
    return sc;
  };
  auto g1 = [](const std::vector<Fr>& sc) { return detail::straus_route<G1>(sc); };
  auto g2 = [](const std::vector<Fr>& sc) { return detail::straus_route<G2>(sc); };
  constexpr std::size_t m = kStrausMaxBases;
  EXPECT_TRUE(g1(set(0, max128)));
  EXPECT_TRUE(g1(set(m, r_minus_1)));
  EXPECT_FALSE(g1(set(m + 1, r_minus_1)));
  EXPECT_FALSE(g1(set(m + 1, at_split)));
  EXPECT_TRUE(g1(set(m + 1, below_split)));
  EXPECT_TRUE(g1(set(2 * m, max128)));
  EXPECT_TRUE(g1(set(2 * m, below_split)));
  EXPECT_FALSE(g1(set(2 * m, at_split)));
  EXPECT_FALSE(g1(set(2 * m + 1, max128)));
  EXPECT_TRUE(g2(set(2 * m, r_minus_1)));
  EXPECT_FALSE(g2(set(2 * m + 1, max128)));
}

TEST(Msm, WorksOnG2) {
  auto rng = SecureRng::deterministic(52);
  std::vector<G2> pts;
  std::vector<Fr> sc;
  G2 expect = G2::infinity();
  for (int i = 0; i < 9; ++i) {
    pts.push_back(g2_random(rng));
    sc.push_back(Fr::random(rng));
    expect += pts.back().mul_naive(sc.back());
  }
  EXPECT_EQ(msm<G2>(pts, sc), expect);
}

}  // namespace
}  // namespace dsaudit::curve
