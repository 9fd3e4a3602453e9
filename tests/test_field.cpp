// Field-arithmetic tests: Montgomery Fp/Fr, the Fp2/Fp6/Fp12 tower,
// Frobenius maps and their compile-time constants, and square roots.
#include <gtest/gtest.h>

#include "field/batch_inverse.hpp"
#include "field/fp12.hpp"
#include "support/varuint.hpp"

namespace dsaudit::ff {
namespace {

using bigint::VarUInt;
using primitives::SecureRng;

// ---------------------------------------------------------------------------
// Generic field axioms, parameterized over the tower levels via typed tests.
// ---------------------------------------------------------------------------

template <typename F>
class FieldAxioms : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fp, Fr, Fp2, Fp6, Fp12>;
TYPED_TEST_SUITE(FieldAxioms, FieldTypes);

TYPED_TEST(FieldAxioms, AdditiveGroup) {
  auto rng = SecureRng::deterministic(21);
  for (int i = 0; i < 25; ++i) {
    TypeParam a = TypeParam::random(rng);
    TypeParam b = TypeParam::random(rng);
    TypeParam c = TypeParam::random(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + TypeParam::zero(), a);
    EXPECT_EQ(a + (-a), TypeParam::zero());
    EXPECT_EQ(a - b, a + (-b));
  }
}

TYPED_TEST(FieldAxioms, MultiplicativeGroup) {
  auto rng = SecureRng::deterministic(22);
  for (int i = 0; i < 25; ++i) {
    TypeParam a = TypeParam::random(rng);
    TypeParam b = TypeParam::random(rng);
    TypeParam c = TypeParam::random(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * TypeParam::one(), a);
    EXPECT_EQ(a * TypeParam::zero(), TypeParam::zero());
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), TypeParam::one());
    }
  }
}

TYPED_TEST(FieldAxioms, Distributivity) {
  auto rng = SecureRng::deterministic(23);
  for (int i = 0; i < 25; ++i) {
    TypeParam a = TypeParam::random(rng);
    TypeParam b = TypeParam::random(rng);
    TypeParam c = TypeParam::random(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TYPED_TEST(FieldAxioms, SquareMatchesMul) {
  auto rng = SecureRng::deterministic(24);
  for (int i = 0; i < 25; ++i) {
    TypeParam a = TypeParam::random(rng);
    EXPECT_EQ(a.square(), a * a);
  }
}

// ---------------------------------------------------------------------------
// Base-field specifics.
// ---------------------------------------------------------------------------

TEST(Fp, CanonicalRoundTrip) {
  auto rng = SecureRng::deterministic(25);
  for (int i = 0; i < 50; ++i) {
    Fp a = Fp::random(rng);
    EXPECT_EQ(Fp::from_u256(a.to_u256()), a);
  }
  EXPECT_EQ(Fp::from_u64(5).to_dec(), "5");
  EXPECT_TRUE(Fp::zero().to_u256().is_zero());
  EXPECT_EQ(Fp::one().to_dec(), "1");
}

// ---------------------------------------------------------------------------
// The reduction and the 4-limb Montgomery kernels of both prime fields
// against VarUInt long division.
// ---------------------------------------------------------------------------

template <typename F>
class PrimeFieldKernels : public ::testing::Test {};

using PrimeFieldTypes = ::testing::Types<Fp, Fr>;
TYPED_TEST_SUITE(PrimeFieldKernels, PrimeFieldTypes);

U256 mod_reference(const VarUInt& x, const U256& p) {
  return VarUInt::divmod(x, VarUInt{p}).second.to_u256();
}
// (x + y) mod p; y may equal p.
U256 add_mod_reference(const U256& x, const U256& y, const U256& p) {
  return mod_reference(VarUInt{x} + VarUInt{y}, p);
}
U256 mul_mod_reference(const U256& x, const U256& y, const U256& p) {
  return mod_reference(VarUInt{x} * VarUInt{y}, p);
}

// The reduction by subtraction, from_u256 and from_be_bytes_mod on
// k*m + {0, 1, m-1} for every k that stays below 2^256, on 2^256 - 1, and on
// 10^4 random 256-bit values.
TYPED_TEST(PrimeFieldKernels, ReductionAgainstVarUInt) {
  using F = TypeParam;
  const VarUInt m{F::modulus()};
  const VarUInt two256 = VarUInt{1}.shl(256);
  std::vector<VarUInt> inputs{two256 - VarUInt{1}};
  for (u64 k = 0; k <= 5; ++k) {
    for (const VarUInt& off : {VarUInt{0}, VarUInt{1}, m - VarUInt{1}}) {
      const VarUInt v = VarUInt{k} * m + off;
      if (VarUInt::cmp(v, two256) < 0) inputs.push_back(v);
    }
  }
  EXPECT_EQ(inputs.size(), 18u);  // 5m + 1 < 2^256 < 6m - 1
  auto rng = SecureRng::deterministic(30);
  for (int i = 0; i < 10000; ++i) {
    const auto b = rng.bytes32();
    inputs.push_back(VarUInt{U256::from_be_bytes(b)});
  }
  for (const VarUInt& v : inputs) {
    const U256 x = v.to_u256();
    const U256 expect = mod_reference(v, F::modulus());
    std::array<std::uint8_t, 32> bytes;
    x.to_be_bytes(bytes);
    // mont_mul's result is exact for any a < 2^256 when b < m, so the
    // field conversions alone would not notice a reduction that stops early.
    ASSERT_EQ(bigint::reduce_by_subtraction(x, F::modulus()), expect) << x.to_hex();
    ASSERT_EQ(F::from_u256(x).to_u256(), expect) << x.to_hex();
    ASSERT_EQ(F::from_be_bytes_mod(bytes).to_u256(), expect) << x.to_hex();
  }
}

// random() redraws a 256-bit value at or above 5m, the largest multiple of
// m below 2^256, instead of reducing it. Replayed by hand from the first
// seed whose first draw is rejected (5.5% of seeds).
TYPED_TEST(PrimeFieldKernels, RandomRedrawsAtOrAboveFiveM) {
  using F = TypeParam;
  const VarUInt m{F::modulus()};
  const VarUInt five_m = VarUInt{5} * m;
  const VarUInt two256 = VarUInt{1}.shl(256);
  ASSERT_LT(VarUInt::cmp(five_m, two256), 0);
  ASSERT_GE(VarUInt::cmp(five_m + m, two256), 0);
  auto draw = [](SecureRng& rng) {
    const auto b = rng.bytes32();
    return VarUInt{U256::from_be_bytes(b)};
  };
  auto rejected = [&](const VarUInt& v) { return VarUInt::cmp(v, five_m) >= 0; };
  std::uint64_t seed = 0;
  for (;; ++seed) {
    ASSERT_LT(seed, 1000u);
    auto probe = SecureRng::deterministic(seed);
    if (rejected(draw(probe))) break;
  }
  auto replay = SecureRng::deterministic(seed);
  VarUInt accepted = draw(replay);
  while (rejected(accepted)) accepted = draw(replay);
  auto rng = SecureRng::deterministic(seed);
  EXPECT_EQ(F::random(rng).to_u256(), mod_reference(accepted, F::modulus()));
  EXPECT_EQ(rng.bytes32(), replay.bytes32());  // no draw more, none fewer
}

U256 minus(const U256& a, const U256& b) {
  U256 r;
  bigint::sub_with_borrow(a, b, r);
  return r;
}

TYPED_TEST(PrimeFieldKernels, MulAgainstSlowPath) {
  using F = TypeParam;
  auto rng = SecureRng::deterministic(26);
  for (int i = 0; i < 100; ++i) {
    F a = F::random(rng), b = F::random(rng);
    U256 expect = mul_mod_reference(a.to_u256(), b.to_u256(), F::modulus());
    EXPECT_EQ((a * b).to_u256(), expect);
  }
}

TYPED_TEST(PrimeFieldKernels, EdgeValuesAgainstReference) {
  // add/sub/neg/square/mul at the reduction boundaries: 0, 1, p-1, p-2, and
  // pairs whose integer sum is exactly p or p-1 (the two sides of the final
  // conditional subtraction), plus (p-1)/2 and (p+1)/2.
  using F = TypeParam;
  const U256 p = F::modulus();
  auto rng = SecureRng::deterministic(29);
  const U256 a = F::random(rng).to_u256();
  const U256 b = F::random(rng).to_u256();
  const U256 pm1 = minus(p, U256{1});
  const std::vector<U256> values = {
      U256{0}, U256{1}, U256{2}, pm1, minus(p, U256{2}),
      bigint::shr1(pm1), minus(p, bigint::shr1(pm1)),
      a, minus(p, a),      // a + (p - a) == p
      b, minus(pm1, b)};   // b + (p - 1 - b) == p - 1
  EXPECT_TRUE((F::from_u256(a) + F::from_u256(minus(p, a))).is_zero());
  EXPECT_EQ((F::from_u256(b) + F::from_u256(minus(pm1, b))).to_u256(), pm1);
  for (const U256& x : values) {
    const F fx = F::from_u256(x);
    ASSERT_EQ(fx.to_u256(), x);
    EXPECT_EQ((-fx).to_u256(), add_mod_reference(U256{0}, minus(p, x), p));
    EXPECT_EQ(fx.square().to_u256(), mul_mod_reference(x, x, p));
    EXPECT_EQ(fx.dbl().to_u256(), add_mod_reference(x, x, p));
    for (const U256& y : values) {
      const F fy = F::from_u256(y);
      EXPECT_EQ((fx + fy).to_u256(), add_mod_reference(x, y, p));
      EXPECT_EQ((fx - fy).to_u256(), add_mod_reference(x, minus(p, y), p));
      EXPECT_EQ((fx * fy).to_u256(), mul_mod_reference(x, y, p));
    }
  }
}

// Values the binary-GCD kernel and the window ladder meet at their edges:
// 1, 2, m - 1, R mod m, every 2^k below 2^254, and long runs of zero or one
// bits (2^k - 1, the top k of 254 bits set, 2^253 + 2^k).
template <typename F>
std::vector<U256> kernel_edge_values() {
  const U256 m = F::modulus();
  std::vector<U256> out{U256{1}, U256{2}, minus(m, U256{1}), F::params().r_mod};
  for (unsigned k = 0; k < 254; ++k) {
    const VarUInt pow2 = VarUInt{1}.shl(k);
    out.push_back(pow2.to_u256());
    if (k > 0) out.push_back((pow2 - VarUInt{1}).to_u256());
    out.push_back(((VarUInt{1}.shl(254) - VarUInt{1}) - (pow2 - VarUInt{1}))
                      .to_u256());
    if (k < 253) out.push_back((VarUInt{1}.shl(253) + pow2).to_u256());
  }
  for (U256& v : out) v = bigint::reduce_by_subtraction(v, m);
  return out;
}

// The binary-GCD inverse against Fermat's a^(m-2), on the edge values as
// field elements and as raw inv_mod inputs, and on 10^4 random elements.
TYPED_TEST(PrimeFieldKernels, InverseAgreesWithFermat) {
  using F = TypeParam;
  const U256 m = F::modulus();
  const U256 m_minus_2 = minus(m, U256{2});
  std::vector<F> xs;
  for (const U256& v : kernel_edge_values<F>()) {
    if (v.is_zero()) continue;
    xs.push_back(F::from_u256(v));
    const U256 inv = bigint::inv_mod(v, m);
    ASSERT_EQ(mul_mod_reference(v, inv, m), U256{1}) << v.to_hex();
  }
  auto rng = SecureRng::deterministic(1007);
  for (int i = 0; i < 10000; ++i) xs.push_back(F::random(rng));
  for (const F& a : xs) {
    if (a.is_zero()) continue;
    ASSERT_EQ(a.inverse(), a.pow_u256(m_minus_2)) << a.to_u256().to_hex();
  }
  EXPECT_TRUE(F::zero().inverse().is_zero());
}

// legendre() (the Jacobi symbol) against the Euler criterion a^((m-1)/2):
// 0, +-1, the edge values, random elements, their squares (always +1) and
// a known non-residue times those squares (always -1). -1 is a non-residue
// for p = 3 mod 4; r = 1 mod 4 makes it a residue in Fr, where 5, the
// multiplicative group's generator, is a non-residue.
TYPED_TEST(PrimeFieldKernels, LegendreAgreesWithEuler) {
  using F = TypeParam;
  auto euler = [](const F& a) {
    if (a.is_zero()) return 0;
    return a.pow_u256(F::params().p_minus_1_over_2).is_one() ? 1 : -1;
  };
  const bool is_fp = std::is_same_v<F, Fp>;
  const F non_residue = is_fp ? -F::one() : F::from_u64(5);
  EXPECT_EQ(F::zero().legendre(), 0);
  EXPECT_EQ(F::one().legendre(), 1);
  EXPECT_EQ((-F::one()).legendre(), is_fp ? -1 : 1);
  EXPECT_EQ(non_residue.legendre(), -1);
  EXPECT_EQ(euler(non_residue), -1);
  std::vector<F> xs{F::zero(), F::one(), -F::one(), F::from_u64(2),
                    -F::from_u64(2)};
  for (const U256& v : kernel_edge_values<F>()) xs.push_back(F::from_u256(v));
  // Inputs where a pass of the kernel ends with a negative a, found by a
  // search over m - d and (m-1)/2 +- d: the (-1 / |b|) correction after the
  // pass decides their symbol.
  const std::vector<const char*> negative_a =
      is_fp ? std::vector<const char*>{
                  "0x183227397098d014dc2822db40c0ac2ecbc0b548b438e5469e10460b6c3ed26b",
                  "0x30644e72e131a029b85045b68181585d97816a91683e50915e18b879d51126df",
                  "0x30644e72e131a029b85045b681813dfbde6b4403cb5783af2eb3c563e0ac13dd",
                  "0x30644e72e1319f16a917c5cc6543704017977f94a6ead9821eed1c3ee991e0d3",
                  "0x183227394430ef8ec720dffa3f63440aacfab61d8c747436572f5f0f38bdcc32"}
            : std::vector<const char*>{
                  "0x183227397098d014dc2822db40c0ac2e9419f4243ce5e86398b9e1749ba76440",
                  "0x30644e72e131a029b85045b68181585d2833e8483a6b27b901d688b908fd9372",
                  "0x30644e72e131a029b85045b68181585d28337756aa8d1d4ee12f1783385ff8bf",
                  "0x183227397098d014dc2822db40c0ac2e943c3c7cda3443f1337bd6a648ff8067",
                  "0x30644e72e131a029b84fd83cf89f02786ea97e7d993fb09ef3b25a35cf347791",
                  "0x30644e72e131a029b752fb970e51316dad2e23d3ef45d5b3a9b95ba85b064a61"};
  for (const char* hex : negative_a) {
    const U256 v = U256::from_hex(hex);
    xs.push_back(F::from_u256(v));
    // legendre() runs on the Montgomery form; check the kernel on v itself.
    EXPECT_EQ(bigint::jacobi(v, F::modulus()), euler(F::from_u256(v))) << hex;
  }
  auto rng = SecureRng::deterministic(1009);
  int residues = 0;
  for (int i = 0; i < 2000; ++i) {
    const F a = F::random(rng);
    xs.push_back(a);
    if (a.legendre() == 1) ++residues;
    if (a.is_zero()) continue;
    ASSERT_EQ(a.square().legendre(), 1);
    ASSERT_EQ((non_residue * a.square()).legendre(), -1);
  }
  EXPECT_GT(residues, 900);  // half the elements are squares
  EXPECT_LT(residues, 1100);
  for (const F& a : xs) {
    ASSERT_EQ(a.legendre(), euler(a)) << a.to_u256().to_hex();
  }
}

// The sliding-window pow_u256 against pow_var's binary ladder, for the
// exponents 0, 1, every 2^k and 2^k - 1 up to 2^256 - 1 (all ones), the
// field's own exponents and 100 random values. sqrt's compile-time recoding
// of (p+1)/4 must give the same power.
TYPED_TEST(PrimeFieldKernels, PowAgainstBinaryLadder) {
  using F = TypeParam;
  auto rng = SecureRng::deterministic(1011);
  const F base = F::random(rng);
  std::vector<VarUInt> exps{VarUInt{0}, VarUInt{1},
                            VarUInt{F::params().p_minus_1_over_2},
                            VarUInt{minus(F::modulus(), U256{2})}};
  for (unsigned k = 1; k <= 256; ++k) {
    exps.push_back(VarUInt{1}.shl(k) - VarUInt{1});
    if (k < 256) exps.push_back(VarUInt{1}.shl(k));
  }
  for (int i = 0; i < 100; ++i) {
    const auto b = rng.bytes32();
    exps.push_back(VarUInt{U256::from_be_bytes(b)});
  }
  for (const VarUInt& e : exps) {
    ASSERT_EQ(base.pow_u256(e.to_u256()), pow_var(base, e)) << e.to_dec();
  }
  EXPECT_EQ(F::zero().pow_u256(U256{0}), F::one());
  EXPECT_TRUE(F::zero().pow_u256(U256{5}).is_zero());
  EXPECT_EQ(F::one().pow_u256(minus(U256{}, U256{1})), F::one());
  if constexpr (F::params().has_fast_sqrt) {
    const VarUInt e{F::params().p_plus_1_over_4};
    EXPECT_EQ(base.pow_u256(F::kSqrtExponent), pow_var(base, e));
  }
}

// Both parameter sets are compile-time constants: a return to a runtime
// static (or any non-constexpr derivation) fails the build here.
static_assert(Fp::params().n0_inv * Fp::modulus().limb[0] == ~u64{0});
static_assert(Fr::params().n0_inv * Fr::modulus().limb[0] == ~u64{0});
static_assert(Fp::params().has_fast_sqrt && !Fr::params().has_fast_sqrt);
// Only the p ≡ 3 (mod 4) field has a root: Fr::sqrt does not compile.
template <typename F>
concept HasSqrt = requires(const F& x) { x.sqrt(); };
static_assert(HasSqrt<Fp> && HasSqrt<Fp2> && !HasSqrt<Fr>);

// Every MontParams field re-derived with VarUInt long division.
void expect_params_match_divmod(const MontParams& P) {
  const VarUInt m{P.modulus};
  const VarUInt r = VarUInt{1}.shl(256);
  auto mod_m = [&m](const VarUInt& x) {
    return VarUInt::divmod(x, m).second.to_u256();
  };
  auto div = [](const VarUInt& x, u64 d) {
    return VarUInt::divmod(x, VarUInt{d}).first.to_u256();
  };
  EXPECT_EQ(P.r_mod, mod_m(r));
  EXPECT_EQ(P.r2_mod, mod_m(r * r));
  EXPECT_EQ(P.r3_mod, mod_m(r * r * r));
  // n0 = -p^{-1} mod 2^64, i.e. p * n0 + 1 == 0 mod 2^64.
  EXPECT_TRUE(VarUInt::divmod(m * VarUInt{P.n0_inv} + VarUInt{1},
                              VarUInt{1}.shl(64))
                  .second.is_zero());
  EXPECT_EQ(P.p_minus_1_over_2, div(m - VarUInt{1}, 2));
  const bool three_mod_four = VarUInt::divmod(m, VarUInt{4}).second == VarUInt{3};
  EXPECT_EQ(P.has_fast_sqrt, three_mod_four);
  if (three_mod_four) EXPECT_EQ(P.p_plus_1_over_4, div(m + VarUInt{1}, 4));
}

TEST(MontParams, BuildsBn254ModuliAndRefusesWideTopLimb) {
  // mont_mul's no-carry CIOS needs the modulus' top limb below 2^62; both
  // BN254 moduli (top limb 0x30644e72...) qualify.
  EXPECT_EQ(Fp::modulus(), U256::from_hex(kFpModulusHex));
  EXPECT_EQ(Fr::modulus(), U256::from_hex(kFrModulusHex));
  for (const MontParams& P : {Fp::params(), Fr::params()}) {
    EXPECT_LT(P.modulus.limb[3], u64{1} << 62);
    EXPECT_EQ(make_mont_params(P.modulus).n0_inv, P.n0_inv);
    expect_params_match_divmod(P);
  }
  U256 wide = Fp::modulus();
  wide.limb[3] = u64{1} << 62;  // still odd: limb 0 is untouched
  EXPECT_THROW(make_mont_params(wide), std::invalid_argument);
  wide.limb[3] = ~u64{0};
  EXPECT_THROW(make_mont_params(wide), std::invalid_argument);
  wide.limb[3] = (u64{1} << 62) - 1;
  EXPECT_NO_THROW(make_mont_params(wide));
  // The runtime path of the constexpr builder derives the same constants.
  expect_params_match_divmod(make_mont_params(wide));
  EXPECT_THROW(make_mont_params(U256{4}), std::invalid_argument);
}

TEST(Fp, FermatLittleTheorem) {
  auto rng = SecureRng::deterministic(27);
  Fp a = Fp::random(rng);
  U256 pm1;
  bigint::sub_with_borrow(Fp::modulus(), U256{1}, pm1);
  EXPECT_TRUE(a.pow_u256(pm1).is_one());
}

TEST(Fp, SqrtOfSquares) {
  auto rng = SecureRng::deterministic(28);
  for (int i = 0; i < 25; ++i) {
    Fp a = Fp::random(rng);
    Fp sq = a.square();
    auto root = sq.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
  }
  // -1 is a non-residue for p = 3 mod 4.
  EXPECT_FALSE((-Fp::one()).sqrt().has_value());
  EXPECT_EQ((-Fp::one()).legendre(), -1);
  EXPECT_EQ(Fp::one().legendre(), 1);
  EXPECT_EQ(Fp::zero().legendre(), 0);
}

TEST(Fr, ModulusMatchesPaperGroupOrder) {
  EXPECT_EQ(Fr::modulus().to_dec(),
            "21888242871839275222246405745257275088548364400416034343698204186575808495617");
}

// ---------------------------------------------------------------------------
// Tower specifics.
// ---------------------------------------------------------------------------

TEST(Fp2Tower, USquaredIsMinusOne) {
  Fp2 u{Fp::zero(), Fp::one()};
  EXPECT_EQ(u.square(), -Fp2::one());
}

TEST(Fp2Tower, MulByXiMatchesMul) {
  auto rng = SecureRng::deterministic(29);
  for (int i = 0; i < 20; ++i) {
    Fp2 a = Fp2::random(rng);
    EXPECT_EQ(a.mul_by_xi(), a * xi());
  }
}

TEST(Fp2Tower, FrobeniusIsPthPower) {
  auto rng = SecureRng::deterministic(30);
  Fp2 a = Fp2::random(rng);
  Fp2 frob = a.frobenius();
  Fp2 pth = pow_var(a, VarUInt{Fp::modulus()});
  EXPECT_EQ(frob, pth);
}

TEST(Fp6Tower, VCubedIsXi) {
  Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  Fp6 v3 = v * v * v;
  EXPECT_EQ(v3, Fp6(xi(), Fp2::zero(), Fp2::zero()));
}

TEST(Fp6Tower, MulByVMatchesMul) {
  auto rng = SecureRng::deterministic(31);
  Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  for (int i = 0; i < 20; ++i) {
    Fp6 a = Fp6::random(rng);
    EXPECT_EQ(a.mul_by_v(), a * v);
  }
}

TEST(Fp12Tower, WSquaredIsV) {
  Fp12 w{Fp6::zero(), Fp6::one()};
  Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  EXPECT_EQ(w.square(), Fp12(v, Fp6::zero()));
}

TEST(Fp12Tower, FrobeniusIsPthPower) {
  auto rng = SecureRng::deterministic(32);
  Fp12 a = Fp12::random(rng);
  EXPECT_EQ(a.frobenius(), pow_var(a, VarUInt{Fp::modulus()}));
}

TEST(Fp12Tower, FrobeniusOrderTwelve) {
  auto rng = SecureRng::deterministic(33);
  Fp12 a = Fp12::random(rng);
  const Fp12 a6 = a.frobenius3().frobenius3();
  EXPECT_EQ(a6.frobenius3().frobenius3(), a);  // p^12 Frobenius == identity
  EXPECT_NE(a6, a);  // overwhelming probability for random a
  EXPECT_EQ(a6, Fp12(a.c0, -a.c1));  // p^6 Frobenius == conjugate
}

TEST(Fp12Tower, PowHomomorphism) {
  auto rng = SecureRng::deterministic(34);
  Fp12 a = Fp12::random(rng);
  EXPECT_EQ(a.pow_u256(U256{3}) * a.pow_u256(U256{5}), a.pow_u256(U256{8}));
  EXPECT_EQ(a.pow_u256(U256{0}), Fp12::one());
  U256 e1{123456789}, e2{987654321};
  U256 sum;
  bigint::add_with_carry(e1, e2, sum);
  EXPECT_EQ(a.pow_u256(e1) * a.pow_u256(e2), a.pow_u256(sum));
}

// ---------------------------------------------------------------------------
// Square root in Fp2 (G2 decompression).
// ---------------------------------------------------------------------------

// a is a square in Fp2 iff its norm a0^2 + a1^2 is a square in Fp. So
// sqrt() must refuse exactly where Euler's criterion on the norm says -1,
// an oracle that shares no code with the root, and every root must square
// back to a. Returns whether a root came back.
bool expect_fp2_sqrt_contract(const Fp2& a) {
  auto root = a.sqrt();
  const int norm_symbol = (a.c0.square() + a.c1.square()).legendre();
  EXPECT_EQ(root.has_value(), norm_symbol != -1)
      << a.c0.to_dec() << " + " << a.c1.to_dec() << " u";
  if (root) EXPECT_EQ(root->square(), a);
  return root.has_value();
}

TEST(Sqrt, Fp2RoundTrip) {
  auto rng = SecureRng::deterministic(35);
  const Fp2 u{Fp::zero(), Fp::one()};
  const Fp four = Fp::from_u64(4);
  const Fp r = Fp::random(rng).square();
  // Every Fp element is a square in Fp2: with a1 = 0 both the Fp squares 4
  // and r and the Fp non-squares -4 and -r (-1 is one). So are u and -u
  // (norm 1). The sextic non-residue xi is not, nor is -xi.
  for (const Fp2& a :
       {Fp2::zero(), Fp2::one(), -Fp2::one(), u, -u, Fp2{four, Fp::zero()},
        Fp2{-four, Fp::zero()}, Fp2{r, Fp::zero()}, Fp2{-r, Fp::zero()},
        Fp2{Fp::zero(), four}, Fp2{Fp::zero(), r}}) {
    EXPECT_TRUE(expect_fp2_sqrt_contract(a));
  }
  EXPECT_FALSE(expect_fp2_sqrt_contract(xi()));
  EXPECT_FALSE(expect_fp2_sqrt_contract(-xi()));
  int residues = 0;
  for (int i = 0; i < 300; ++i) {
    Fp2 a = Fp2::random(rng);
    auto root = a.square().sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
    if (expect_fp2_sqrt_contract(a)) ++residues;
  }
  // About half of random elements are squares.
  EXPECT_GT(residues, 100);
  EXPECT_LT(residues, 200);
}

// ---------------------------------------------------------------------------
// batch_inverse (Montgomery's trick) vs. per-element inverse().
// ---------------------------------------------------------------------------

TYPED_TEST(FieldAxioms, BatchInverseMatchesElementwise) {
  auto rng = SecureRng::deterministic(27);
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 257u}) {
    std::vector<TypeParam> xs(n);
    std::vector<TypeParam> expect(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = TypeParam::random(rng);
      expect[i] = xs[i].inverse();
    }
    batch_inverse(xs);
    EXPECT_EQ(xs, expect) << "n=" << n;
  }
}

TYPED_TEST(FieldAxioms, BatchInverseSkipsZeros) {
  auto rng = SecureRng::deterministic(28);
  // Zeros interleaved at every position pattern, including all-zero.
  for (int pattern = 0; pattern < 8; ++pattern) {
    std::vector<TypeParam> xs(3);
    std::vector<TypeParam> expect(3);
    for (int i = 0; i < 3; ++i) {
      xs[i] = (pattern >> i) & 1 ? TypeParam::random(rng) : TypeParam::zero();
      expect[i] = xs[i].inverse();  // inverse() returns zero for zero
    }
    batch_inverse(xs);
    EXPECT_EQ(xs, expect) << "pattern=" << pattern;
  }
}

TEST(BatchInverse, LargeSetSingleInversionIsConsistent) {
  auto rng = SecureRng::deterministic(29);
  std::vector<Fp> xs(1000);
  for (auto& x : xs) x = Fp::random(rng);
  std::vector<Fp> orig = xs;
  batch_inverse(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(orig[i] * xs[i], Fp::one());
  }
}

// The Frobenius constants are compile-time values: gamma[1] = xi^{(p-1)/6}
// is pinned here (canonical c0, c1), and p^2-Frobenius constants lie in Fp.
static_assert(kTowerConsts.gamma[1] ==
              Fp2{Fp::from_u256(U256::from_hex(
                      "0x1284b71c2865a7dfe8b99fdd76e68b60"
                      "5c521e08292f2176d60b35dadcc9e470")),
                  Fp::from_u256(U256::from_hex(
                      "0x246996f3b4fae7e6a6327cfe12150b8e"
                      "747992778eeec7e5ca5cf05f80f362ac"))});
static_assert(kTowerConsts.gamma[0] == Fp2::one());
static_assert(kTowerConsts.gamma_p2[1].c1.is_zero());

TEST(TowerConsts, GammaConsistency) {
  // Every entry against xi^{k(p^n-1)/6} by VarUInt division. That covers
  // psi's constants (gamma[2], gamma[3]) and psi^2's, gamma_p2[2] =
  // xi^{(p^2-1)/3} and gamma_p2[3] = xi^{(p^2-1)/2}.
  const VarUInt p{Fp::modulus()};
  const VarUInt pn_minus_1[] = {p - VarUInt{1}, p * p - VarUInt{1},
                                p * p * p - VarUInt{1}};
  const std::array<Fp2, 6>* tables[] = {
      &kTowerConsts.gamma, &kTowerConsts.gamma_p2, &kTowerConsts.gamma_p3};
  for (int n = 0; n < 3; ++n) {
    for (u64 k = 0; k < 6; ++k) {
      auto [e, rem] = VarUInt::divmod(VarUInt{k} * pn_minus_1[n], VarUInt{6});
      ASSERT_TRUE(rem.is_zero());
      EXPECT_EQ((*tables[n])[k], pow_var(xi(), e))
          << "p^" << n + 1 << ", k=" << k;
    }
  }
}

}  // namespace
}  // namespace dsaudit::ff
