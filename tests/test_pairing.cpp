// Pairing correctness: bilinearity, non-degeneracy, final-exponentiation
// cross-check, multi-pairing consistency. These tests gate everything above
// them — if the pairing is right, the audit protocol's algebra follows.
#include <gtest/gtest.h>

#include "pairing/pairing.hpp"
#include "support/varuint.hpp"

namespace dsaudit::pairing {
namespace {

using bigint::VarUInt;
using ff::Fp;
using ff::Fp6;
using ff::Fr;
using primitives::SecureRng;

// ---------------------------------------------------------------------------
// Oracles: the textbook affine Miller loop (the original implementation,
// chord/tangent lines through the untwisting map, over the binary expansion
// of 6t + 2) and the final exponentiation by one giant exponent.
// ---------------------------------------------------------------------------

/// Affine point on the twist (Fp2 coordinates), never infinity inside the
/// Miller loop for valid inputs of prime order r.
struct TwistPoint {
  Fp2 x, y;
};

TwistPoint to_twist_affine(const G2& q) {
  auto [x, y] = q.to_affine();
  return {x, y};
}

/// A chord/tangent line through untwisted points, evaluated at P = (xp, yp):
///   l = yp - lambda' * xp * w + (lambda' * xT - yT) * w^3,
/// where lambda' is the slope on the twist. Kept sparse — the Miller loop
/// folds it in with Fp12::mul_by_line.
struct Line {
  Fp2 a, b, c;  // (a,0,0) + (b, c, 0) w
};

Line line_value(const Fp2& lambda, const TwistPoint& t, const Fp& xp, const Fp& yp) {
  return Line{Fp2{yp, Fp::zero()}, -(lambda.mul_fp(xp)), lambda * t.x - t.y};
}

/// Vertical line x = xT evaluated at P (used only in the degenerate
/// T.x == Q.x, T != Q addition case, which cannot occur for honest inputs
/// but must not crash on adversarial ones): l = xp - xT * w^2. Not sparse in
/// the Line shape, so returned as a full Fp12.
Fp12 vertical_line_value(const TwistPoint& t, const Fp& xp) {
  return Fp12{Fp6{Fp2{xp, Fp::zero()}, -t.x, Fp2::zero()}, Fp6::zero()};
}

/// Tangent step: returns the line through (T, T) at P and doubles T in place.
Line double_step(TwistPoint& t, const Fp& xp, const Fp& yp) {
  Fp2 x2 = t.x.square();
  Fp2 lambda = x2.triple() * (t.y.dbl()).inverse();
  Line l = line_value(lambda, t, xp, yp);
  Fp2 xr = lambda.square() - t.x.dbl();
  Fp2 yr = lambda * (t.x - xr) - t.y;
  t = {xr, yr};
  return l;
}

/// Chord step: folds the chord line through (T, Q) into f and sets T = T + Q.
void add_step_into(Fp12& f, TwistPoint& t, const TwistPoint& q, const Fp& xp,
                   const Fp& yp) {
  if (t.x == q.x) {
    if (t.y == q.y) {
      Line l = double_step(t, xp, yp);
      f = f.mul_by_line(l.a, l.b, l.c);
      return;
    }
    // T + (-T): vertical line; for order-r inputs with the optimal-ate loop
    // count this is unreachable, but adversarial inputs must not crash.
    f = f * vertical_line_value(t, xp);
    t = {Fp2::zero(), Fp2::zero()};  // poisoned; loop ends immediately after
    return;
  }
  Fp2 lambda = (q.y - t.y) * (q.x - t.x).inverse();
  Line l = line_value(lambda, t, xp, yp);
  Fp2 xr = lambda.square() - t.x - q.x;
  Fp2 yr = lambda * (t.x - xr) - t.y;
  t = {xr, yr};
  f = f.mul_by_line(l.a, l.b, l.c);
}

/// The optimal-ate loop count 6t + 2 (65 bits for BN254), little-endian,
/// derived from the BN parameter rather than hard-coded. The library's
/// prepared engine walks its NAF instead.
std::vector<bool> six_t_plus_2_bits() {
  bigint::u128 v = static_cast<bigint::u128>(6) * ff::kBnParamT + 2;
  std::vector<bool> b;
  while (v != 0) {
    b.push_back((v & 1) != 0);
    v >>= 1;
  }
  return b;
}

Fp12 miller_loop_textbook(const G1& p, const G2& q) {
  if (p.is_infinity() || q.is_infinity()) return Fp12::one();
  auto [xp, yp] = p.to_affine();
  TwistPoint qa = to_twist_affine(q);
  const auto bits = six_t_plus_2_bits();

  Fp12 f = Fp12::one();
  TwistPoint t = qa;
  for (std::size_t i = bits.size() - 1; i-- > 0;) {
    f = f.square();
    Line l = double_step(t, xp, yp);
    f = f.mul_by_line(l.a, l.b, l.c);
    if (bits[i]) add_step_into(f, t, qa, xp, yp);
  }
  // Final two additions with the Frobenius images of Q.
  TwistPoint q1 = to_twist_affine(curve::g2_frobenius(q));
  TwistPoint q2 = to_twist_affine(-curve::g2_frobenius2(q));
  add_step_into(f, t, q1, xp, yp);
  add_step_into(f, t, q2, xp, yp);
  return f;
}

Fp12 pairing_textbook(const G1& p, const G2& q) {
  return final_exponentiation(miller_loop_textbook(p, q));
}

/// f^{(p^12 - 1)/r} by square-and-multiply over the whole giant exponent.
Fp12 final_exponentiation_slow(const Fp12& f) {
  const VarUInt e = VarUInt::pow(VarUInt{Fp::modulus()}, 12) - VarUInt{1};
  auto [q, rem] = VarUInt::divmod(e, VarUInt{Fr::modulus()});
  EXPECT_TRUE(rem.is_zero()) << "(p^12 - 1) not divisible by r";
  return pow_var(f, q);
}

TEST(Pairing, NonDegenerate) {
  Fp12 e = pairing(G1::generator(), G2::generator());
  EXPECT_FALSE(e.is_one());
  EXPECT_FALSE(e.is_zero());
  // Result has order dividing r: e^r == 1.
  EXPECT_TRUE(e.pow_u256(Fr::modulus()).is_one());
}

TEST(Pairing, InfinityGivesOne) {
  auto rng = SecureRng::deterministic(60);
  EXPECT_TRUE(pairing(G1::infinity(), curve::g2_random(rng)).is_one());
  EXPECT_TRUE(pairing(curve::g1_random(rng), G2::infinity()).is_one());
}

TEST(Pairing, BilinearLeft) {
  auto rng = SecureRng::deterministic(61);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  Fr a = Fr::random(rng);
  EXPECT_EQ(pairing(p.mul(a), q), pairing(p, q).pow_u256(a.to_u256()));
}

TEST(Pairing, BilinearRight) {
  auto rng = SecureRng::deterministic(62);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  Fr b = Fr::random(rng);
  EXPECT_EQ(pairing(p, q.mul(b)), pairing(p, q).pow_u256(b.to_u256()));
}

TEST(Pairing, FullBilinearity) {
  auto rng = SecureRng::deterministic(63);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  Fr a = Fr::random(rng), b = Fr::random(rng);
  EXPECT_EQ(pairing(p.mul(a), q.mul(b)), pairing(p.mul(b), q.mul(a)));
  EXPECT_EQ(pairing(p.mul(a), q.mul(b)), pairing(p, q).pow_u256((a * b).to_u256()));
}

TEST(Pairing, AdditiveInFirstArgument) {
  auto rng = SecureRng::deterministic(64);
  G1 p1 = curve::g1_random(rng), p2 = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  EXPECT_EQ(pairing(p1 + p2, q), pairing(p1, q) * pairing(p2, q));
}

TEST(Pairing, AdditiveInSecondArgument) {
  auto rng = SecureRng::deterministic(65);
  G1 p = curve::g1_random(rng);
  G2 q1 = curve::g2_random(rng), q2 = curve::g2_random(rng);
  EXPECT_EQ(pairing(p, q1 + q2), pairing(p, q1) * pairing(p, q2));
}

TEST(Pairing, InverseRelation) {
  auto rng = SecureRng::deterministic(66);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  EXPECT_TRUE((pairing(p, q) * pairing(-p, q)).is_one());
  EXPECT_TRUE((pairing(p, q) * pairing(p, -q)).is_one());
}

TEST(FinalExp, FastMatchesSlow) {
  auto rng = SecureRng::deterministic(67);
  for (int i = 0; i < 3; ++i) {
    Fp12 f = Fp12::random(rng);
    if (f.is_zero()) continue;
    EXPECT_EQ(final_exponentiation(f), final_exponentiation_slow(f));
  }
  // And on an actual Miller-loop output.
  Fp12 m = miller_loop(G1::generator(), G2::generator());
  EXPECT_EQ(final_exponentiation(m), final_exponentiation_slow(m));
  EXPECT_THROW(final_exponentiation(Fp12::zero()), std::domain_error);
}

TEST(MultiPairing, MatchesProductOfPairings) {
  auto rng = SecureRng::deterministic(68);
  std::vector<std::pair<G1, G2>> pairs;
  Fp12 expect = Fp12::one();
  for (int i = 0; i < 4; ++i) {
    pairs.emplace_back(curve::g1_random(rng), curve::g2_random(rng));
    expect *= pairing(pairs.back().first, pairs.back().second);
  }
  EXPECT_EQ(multi_pairing(pairs), expect);
}

TEST(MultiPairing, ProductIsOneDetection) {
  auto rng = SecureRng::deterministic(69);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  // e(P,Q) * e(-P,Q) = 1, and with a third random pair it is not 1.
  std::vector<std::pair<G1, G2>> good{{p, q}, {-p, q}};
  EXPECT_TRUE(pairing_product_is_one(good));
  std::vector<std::pair<G1, G2>> bad{{p, q}, {-p, q},
                                     {curve::g1_random(rng), curve::g2_random(rng)}};
  EXPECT_FALSE(pairing_product_is_one(bad));
}

TEST(Prepared, MatchesTextbookPairingOnRandomPairs) {
  // The prepared projective engine and the textbook affine loop compute
  // Miller values differing by a subfield factor; the pairings must agree
  // exactly. This differential pins the whole prepared stack (projective
  // step formulas, cached coefficient chain, replay loop).
  auto rng = SecureRng::deterministic(70);
  for (int i = 0; i < 4; ++i) {
    G1 p = curve::g1_random(rng);
    G2 q = curve::g2_random(rng);
    Fp12 expect = pairing_textbook(p, q);
    EXPECT_EQ(pairing(p, q), expect);
    G2Prepared prep(q);
    EXPECT_EQ(pairing(p, prep), expect);
  }
}

TEST(Prepared, ReusedAcrossManyG1Points) {
  // One prepared Q serving many G1 arguments — the verifier-key usage
  // pattern — stays consistent with fresh pairings.
  auto rng = SecureRng::deterministic(71);
  G2 q = curve::g2_random(rng);
  G2Prepared prep(q);
  for (int i = 0; i < 3; ++i) {
    G1 p = curve::g1_random(rng);
    EXPECT_EQ(pairing(p, prep), pairing_textbook(p, q));
  }
}

TEST(Prepared, InfinityInputs) {
  auto rng = SecureRng::deterministic(72);
  G2Prepared inf_q{G2::infinity()};
  EXPECT_TRUE(inf_q.is_infinity());
  EXPECT_TRUE(pairing(curve::g1_random(rng), inf_q).is_one());
  G2Prepared q(curve::g2_random(rng));
  EXPECT_TRUE(pairing(G1::infinity(), q).is_one());
}

TEST(MultiPairing, InfinityEntriesAreNeutral) {
  // Infinity on either side of any entry contributes a factor 1 to the
  // product, for both the unprepared and the prepared overloads.
  auto rng = SecureRng::deterministic(73);
  G1 p1 = curve::g1_random(rng), p2 = curve::g1_random(rng);
  G2 q1 = curve::g2_random(rng), q2 = curve::g2_random(rng);
  std::vector<std::pair<G1, G2>> clean{{p1, q1}, {p2, q2}};
  std::vector<std::pair<G1, G2>> padded{{G1::infinity(), q1},
                                        {p1, q1},
                                        {p2, G2::infinity()},
                                        {p2, q2},
                                        {G1::infinity(), G2::infinity()}};
  EXPECT_EQ(multi_pairing(padded), multi_pairing(clean));

  G2Prepared pq1(q1), pq2(q2), pinf{G2::infinity()};
  std::vector<PreparedPair> prepared{{G1::infinity(), &pq1},
                                     {p1, &pq1},
                                     {p2, &pinf},
                                     {p2, &pq2}};
  EXPECT_EQ(multi_pairing(prepared), multi_pairing(clean));

  std::vector<std::pair<G1, G2>> all_inf{{G1::infinity(), q1},
                                         {p1, G2::infinity()}};
  EXPECT_TRUE(multi_pairing(all_inf).is_one());
  EXPECT_TRUE(pairing_product_is_one(all_inf));
}

TEST(MultiPairing, PreparedMatchesProductOfTextbookPairings) {
  auto rng = SecureRng::deterministic(74);
  std::vector<G2Prepared> prep;
  std::vector<std::pair<G1, G2>> raw;
  Fp12 expect = Fp12::one();
  for (int i = 0; i < 4; ++i) {
    raw.emplace_back(curve::g1_random(rng), curve::g2_random(rng));
    expect *= pairing_textbook(raw.back().first, raw.back().second);
  }
  prep.reserve(raw.size());
  std::vector<PreparedPair> pairs;
  for (const auto& [p, q] : raw) {
    prep.emplace_back(q);
    pairs.push_back({p, &prep.back()});
  }
  EXPECT_EQ(multi_pairing(pairs), expect);
}

TEST(FinalExp, FastMatchesSlowOnMultiPairProducts) {
  // The cyclotomic-squaring hard part must agree with the giant-exponent
  // reference on products of several Miller loops — the exact shape every
  // verification equation feeds it.
  auto rng = SecureRng::deterministic(75);
  Fp12 m = Fp12::one();
  for (int i = 0; i < 4; ++i) {
    m *= miller_loop(curve::g1_random(rng), curve::g2_random(rng));
  }
  EXPECT_EQ(final_exponentiation(m), final_exponentiation_slow(m));
}

TEST(Fp12Ops, CyclotomicSquareMatchesGenericOnCyclotomicElements) {
  // GT elements (pairing outputs) live in the cyclotomic subgroup, where
  // the Granger–Scott compressed squaring must equal the generic square.
  auto rng = SecureRng::deterministic(76);
  Fp12 g = pairing(curve::g1_random(rng), curve::g2_random(rng));
  Fp12 cur = g;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cur.cyclotomic_square(), cur.square());
    cur = cur.cyclotomic_square() * g;
  }
  ff::Fr e = ff::Fr::random(rng);
  EXPECT_EQ(g.cyclotomic_pow_u256(e.to_u256()), g.pow_u256(e.to_u256()));
  EXPECT_EQ(g.cyclotomic_pow_u256(ff::U256{ff::kBnParamT}),
            g.pow_u256(ff::U256{ff::kBnParamT}));
}

TEST(Fp12Ops, SignedWindowLadderMatchesTextbookPow) {
  // cyclotomic_pow_u256 (multi_pow at n = 1: MSB-first signed windows with
  // a carry) against the textbook pow_u256 on digit and carry edges: small
  // values around one window, all-ones runs, 254 one-bits (the carry leaves
  // the top window), u (the exponent of the final exponentiation's three
  // ladders and of gt_in_subgroup's one), the 127-bit 6u^2, r - 1 and
  // random scalars.
  auto rng = SecureRng::deterministic(78);
  const Fp12 g = pairing(curve::g1_random(rng), curve::g2_random(rng));
  const VarUInt u{ff::kBnParamT};
  const ff::U256 u_sq6 = (VarUInt{6} * u * u).to_u256();
  ff::U256 rm1;
  bigint::sub_with_borrow(Fr::modulus(), ff::U256{1}, rm1);
  std::vector<ff::U256> exps = {ff::U256{0}, ff::U256{1}, ff::U256{7},
                                ff::U256{8}, ff::U256{9},
                                ff::U256{ff::kBnParamT}, u_sq6, rm1};
  for (unsigned k : {1u, 4u, 5u, 16u, 63u, 64u, 65u, 128u, 200u, 254u}) {
    ff::U256 ones{};
    for (unsigned b = 0; b < k; ++b) {
      ones.limb[b / 64] |= std::uint64_t{1} << (b % 64);
    }
    exps.push_back(ones);  // 2^k - 1; k = 254 is the top-digit carry
  }
  for (int i = 0; i < 4; ++i) exps.push_back(Fr::random(rng).to_u256());
  for (const ff::U256& e : exps) {
    EXPECT_EQ(g.cyclotomic_pow_u256(e), g.pow_u256(e)) << e.to_hex();
  }
}

TEST(Fp12Ops, DirectFrobeniusPowersMatchIterated) {
  auto rng = SecureRng::deterministic(77);
  for (int i = 0; i < 3; ++i) {
    Fp12 f = Fp12::random(rng);
    EXPECT_EQ(f.frobenius2(), f.frobenius().frobenius());
    EXPECT_EQ(f.frobenius3(), f.frobenius().frobenius().frobenius());
    EXPECT_EQ(f.frobenius3().frobenius3(), f.conjugate());  // p^6
    EXPECT_EQ(f.frobenius3().frobenius3().conjugate(), f);  // p^12
  }
}

// The one differential oracle for gt_in_subgroup: the order-r ladder it
// replaced. Same zero and Phi_12 guards (cyclotomic squarings are only valid
// past the latter), then g^r == 1 over all 254 bits of r.
bool in_gt_by_order_ladder(const Fp12& g) {
  if (g.is_zero()) return false;
  if (!(g.frobenius2().frobenius2() * g == g.frobenius2())) return false;
  return g.cyclotomic_pow_u256(Fr::modulus()).is_one();
}

TEST(GtSubgroup, ShortVectorMeetsPhi12ExactlyInR) {
  // gt_in_subgroup tests g^{f(p)} == 1 for the short Frobenius-lattice
  // vector f = (u+1) + u p + u p^2 - 2u p^3, negated here to stay unsigned.
  // r | f(p) makes every GT element pass; gcd(f(p), Phi_12(p)) = r makes
  // every other cyclotomic element (order dividing Phi_12(p), not r) fail.
  const VarUInt u{ff::kBnParamT};
  const VarUInt p{Fp::modulus()};
  const VarUInt r{Fr::modulus()};
  const VarUInt p2 = p * p;
  const VarUInt two_u = VarUInt{2} * u;
  const VarUInt f = two_u * p2 * p - u * p2 - u * p - (u + VarUInt{1});
  EXPECT_TRUE(VarUInt::divmod(f, r).second.is_zero());
  VarUInt a = p2 * p2 - p2 + VarUInt{1};
  VarUInt b = f;
  while (!b.is_zero()) {
    VarUInt rem = VarUInt::divmod(a, b).second;
    a = std::move(b);
    b = std::move(rem);
  }
  EXPECT_EQ(a, r);
}

TEST(GtSubgroup, GenuinePairingOutputsPass) {
  auto rng = SecureRng::deterministic(84);
  Fp12 g = pairing(curve::g1_random(rng), curve::g2_random(rng));
  for (const Fp12& x : {Fp12::one(), g, g.conjugate(),
                        g.cyclotomic_pow_u256(Fr::random(rng).to_u256())}) {
    EXPECT_TRUE(gt_in_subgroup(x));
    EXPECT_TRUE(in_gt_by_order_ladder(x));
  }
}

TEST(GtSubgroup, NaturalForgeriesAreRefusedByBothTests) {
  auto rng = SecureRng::deterministic(85);
  Fp12 g = pairing(curve::g1_random(rng), curve::g2_random(rng));
  std::vector<std::pair<const char*, Fp12>> forgeries;
  for (int i = 0; i < 2; ++i) {
    // t: the easy part f^{(p^6-1)(p^2+1)} of a random f, a cyclotomic
    // element. t^r has order dividing the cofactor (p^4-p^2+1)/r, so it
    // passes the Phi_12 guard and only the order test can refuse it.
    Fp12 f = Fp12::random(rng);
    Fp12 t0 = f.conjugate() * f.inverse();
    Fp12 t = t0.frobenius2() * t0;
    Fp12 cofactor = t.cyclotomic_pow_u256(Fr::modulus());
    ASSERT_FALSE(cofactor.is_one());
    forgeries.emplace_back("t^r", cofactor);
    forgeries.emplace_back("t^r * e(P,Q)", cofactor * g);
    forgeries.emplace_back("f^(p^6-1)", t0);  // unit-norm, not cyclotomic
  }
  forgeries.emplace_back("-1", -Fp12::one());
  forgeries.emplace_back("zero", Fp12::zero());
  for (const auto& [what, x] : forgeries) {
    EXPECT_FALSE(gt_in_subgroup(x)) << what;
    EXPECT_FALSE(in_gt_by_order_ladder(x)) << what;
  }
}

TEST(GtSubgroup, AgreesWithOrderLadderOnCofactorMixtures) {
  // t^{r a} g^b for cyclotomic t, a pairing output g and small a, b: the
  // element lies in GT exactly when a = 0, since t^r's order divides the
  // cofactor (p^4 - p^2 + 1)/r, which has no prime factor below 2 * 10^6.
  // Every mixture passes the Phi_12 guard, so only the order test decides.
  auto rng = SecureRng::deterministic(86);
  const Fp12 g = pairing(curve::g1_random(rng), curve::g2_random(rng));
  for (int i = 0; i < 4; ++i) {
    const Fp12 f = Fp12::random(rng);
    const Fp12 t0 = f.conjugate() * f.inverse();
    const Fp12 cofactor = (t0.frobenius2() * t0).cyclotomic_pow_u256(Fr::modulus());
    Fp12 ca = Fp12::one();  // cofactor^a
    for (int a = 0; a <= 6; ++a, ca = ca * cofactor) {
      Fp12 x = ca;  // cofactor^a g^b
      for (int b = 0; b <= 7; ++b, x = x * g) {
        const bool in_gt = in_gt_by_order_ladder(x);
        EXPECT_EQ(gt_in_subgroup(x), in_gt) << "t" << i << " a=" << a << " b=" << b;
        EXPECT_EQ(in_gt, a == 0) << "t" << i << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Pairing, KnownExponentPairingIdentity) {
  // e(aG1, G2) == e(G1, aG2) for several small a — catches scalar/loop-count
  // mixups that bilinearity with random scalars might mask.
  for (ff::u64 a : {2ULL, 3ULL, 65537ULL}) {
    EXPECT_EQ(pairing(G1::generator().mul(Fr::from_u64(a)), G2::generator()),
              pairing(G1::generator(), G2::generator().mul(Fr::from_u64(a))))
        << "a=" << a;
  }
}

TEST(PairingCountersHook, CountsChainsAndFinalExps) {
  auto rng = SecureRng::deterministic(83);
  G1 p = curve::g1_random(rng);
  G2 q = curve::g2_random(rng);
  reset_pairing_counters();
  pairing(p, q);
  auto c1 = pairing_counters();
  EXPECT_EQ(c1.chains, 1u);
  EXPECT_EQ(c1.final_exps, 1u);

  std::vector<G2Prepared> prep;
  std::vector<PreparedPair> pairs;
  prep.reserve(3);
  for (int i = 0; i < 3; ++i) prep.emplace_back(curve::g2_random(rng));
  for (int i = 0; i < 3; ++i) pairs.push_back({curve::g1_random(rng), &prep[i]});
  reset_pairing_counters();
  multi_pairing(std::span<const PreparedPair>(pairs));
  auto c3 = pairing_counters();
  EXPECT_EQ(c3.chains, 3u);
  EXPECT_EQ(c3.final_exps, 1u);

  // Infinite inputs contribute no chain.
  pairs[1].g1 = G1::infinity();
  reset_pairing_counters();
  multi_pairing(std::span<const PreparedPair>(pairs));
  EXPECT_EQ(pairing_counters().chains, 2u);
}

}  // namespace
}  // namespace dsaudit::pairing
