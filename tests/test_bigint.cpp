// Unit and property tests for the fixed-width and variable-width bigints.
#include <gtest/gtest.h>

#include <numeric>

#include "bigint/u256.hpp"
#include "primitives/random.hpp"
#include "support/varuint.hpp"

namespace dsaudit::bigint {
namespace {

using primitives::SecureRng;

U256 random_u256(SecureRng& rng) {
  auto b = rng.bytes32();
  return U256::from_be_bytes(std::span<const std::uint8_t, 32>(b));
}

TEST(U256, HexRoundTrip) {
  U256 v = U256::from_hex("0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
  EXPECT_EQ(v.to_hex(),
            "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
  EXPECT_EQ(U256{}.to_hex(), "0x0");
  EXPECT_EQ(U256{1}.to_hex(), "0x1");
}

TEST(U256, DecRoundTrip) {
  const char* dec =
      "21888242871839275222246405745257275088696311157297823662689037894645226208583";
  EXPECT_EQ(VarUInt::from_dec(dec).to_u256().to_dec(), dec);
  EXPECT_EQ(U256{}.to_dec(), "0");
  EXPECT_EQ((U256{0, 1, 0, 0}).to_dec(), "18446744073709551616");  // 2^64
}

TEST(U256, HexEqualsDec) {
  // The BN254 base-field modulus, two ways.
  U256 h = U256::from_hex("30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
  U256 d = VarUInt::from_dec(
      "21888242871839275222246405745257275088696311157297823662689037894645226208583")
               .to_u256();
  EXPECT_EQ(h, d);
}

TEST(U256, RejectsBadInput) {
  EXPECT_THROW(U256::from_hex(""), std::invalid_argument);
  EXPECT_THROW(U256::from_hex("0xzz"), std::invalid_argument);
  EXPECT_THROW(U256::from_hex(std::string(65, 'f')), std::invalid_argument);
}

TEST(U256, BytesRoundTrip) {
  auto rng = SecureRng::deterministic(7);
  for (int i = 0; i < 50; ++i) {
    U256 v = random_u256(rng);
    std::array<std::uint8_t, 32> buf;
    v.to_be_bytes(buf);
    EXPECT_EQ(U256::from_be_bytes(buf), v);
  }
}

TEST(U256, AddSubInverse) {
  auto rng = SecureRng::deterministic(8);
  for (int i = 0; i < 200; ++i) {
    U256 a = random_u256(rng), b = random_u256(rng);
    U256 sum, back;
    u64 carry = add_with_carry(a, b, sum);
    u64 borrow = sub_with_borrow(sum, b, back);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);  // overflow on add <=> borrow when undoing
  }
}

TEST(U256, CompareAntisymmetric) {
  auto rng = SecureRng::deterministic(9);
  for (int i = 0; i < 100; ++i) {
    U256 a = random_u256(rng), b = random_u256(rng);
    EXPECT_EQ(cmp(a, b), -cmp(b, a));
    EXPECT_EQ(cmp(a, a), 0);
  }
}

TEST(U256, ShiftConsistency) {
  auto rng = SecureRng::deterministic(10);
  for (int i = 0; i < 100; ++i) {
    U256 a = random_u256(rng);
    EXPECT_EQ(shr1(a), VarUInt{a}.shr(1).to_u256());
  }
}

TEST(U256, MulWideMatchesVarUInt) {
  auto rng = SecureRng::deterministic(11);
  for (int i = 0; i < 100; ++i) {
    U256 a = random_u256(rng), b = random_u256(rng);
    U512 wide = mul_wide(a, b);
    VarUInt prod = VarUInt{a} * VarUInt{b};
    for (int w = 0; w < 8; ++w) EXPECT_EQ(wide.limb[w], prod.limb(w));
  }
}

TEST(U256, InvModCorrect) {
  for (const char* hex :
       {"0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47",
        "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001"}) {
    auto rng = SecureRng::deterministic(13);
    const U256 m = U256::from_hex(hex);
    const VarUInt vm{m};
    for (int i = 0; i < 50; ++i) {
      U256 a = VarUInt::divmod(VarUInt{random_u256(rng)}, vm).second.to_u256();
      if (a.is_zero()) continue;
      U256 inv = inv_mod(a, m);
      EXPECT_EQ(VarUInt::divmod(VarUInt{a} * VarUInt{inv}, vm).second, VarUInt{1})
          << hex;
    }
    EXPECT_THROW(inv_mod(U256{}, m), std::domain_error);
  }
  EXPECT_THROW(inv_mod(U256{3}, U256{1000}), std::domain_error);  // even m
}

// Mersenne primes: M61, M89 and M127, and the 216-bit composite M89 * M127,
// moduli the field code never uses, so the binary-GCD passes meet operands
// of other lengths than the BN254 moduli's.
VarUInt mersenne(unsigned k) { return VarUInt{1}.shl(k) - VarUInt{1}; }

// b^e mod m by square-and-multiply on VarUInt: the Euler criterion's oracle.
VarUInt pow_mod(const VarUInt& b, const VarUInt& e, const VarUInt& m) {
  VarUInt result{1};
  for (int i = static_cast<int>(e.bit_length()) - 1; i >= 0; --i) {
    result = VarUInt::divmod(result * result, m).second;
    if (e.bit(i)) result = VarUInt::divmod(result * b, m).second;
  }
  return result;
}

TEST(U256, InvModOnOtherModuli) {
  auto rng = SecureRng::deterministic(14);
  const VarUInt composite = mersenne(89) * mersenne(127);
  for (const VarUInt& vm : {VarUInt{3}, VarUInt{105}, mersenne(61), mersenne(127),
                            composite}) {
    const U256 m = vm.to_u256();
    for (int i = 0; i < 40; ++i) {
      const U256 a = VarUInt::divmod(VarUInt{random_u256(rng)}, vm).second.to_u256();
      if (a.is_zero() || (m == U256{105} && std::gcd(a.limb[0], u64{105}) != 1)) {
        continue;
      }
      const U256 inv = inv_mod(a, m);
      EXPECT_LT(VarUInt::cmp(VarUInt{inv}, vm), 0);
      EXPECT_EQ(VarUInt::divmod(VarUInt{a} * VarUInt{inv}, vm).second, VarUInt{1})
          << vm.to_dec() << " " << a.to_hex();
    }
  }
  EXPECT_THROW(inv_mod(U256{35}, U256{105}), std::domain_error);
  EXPECT_THROW(inv_mod((VarUInt{5} * mersenne(89)).to_u256(), composite.to_u256()),
               std::domain_error);
}

// (a / m) from m's factorization: the product of Euler's criterion over the
// prime factors, with multiplicity.
int jacobi_by_factoring(u64 a, u64 m) {
  int result = 1;
  for (u64 q = 3; m > 1; q += 2) {
    for (; m % q == 0; m /= q) {
      if (a % q == 0) return 0;
      u64 e = (q - 1) / 2, base = a % q, power = 1;
      for (; e; e >>= 1, base = base * base % q) {
        if (e & 1) power = power * base % q;
      }
      result *= power == 1 ? 1 : -1;
    }
  }
  return result;
}

TEST(U256, JacobiMatchesFactoringOnSmallModuli) {
  for (u64 m = 1; m < 256; m += 2) {
    for (u64 a = 0; a < m + 8; ++a) {
      ASSERT_EQ(jacobi(U256{a}, U256{m}), jacobi_by_factoring(a, m))
          << "(" << a << " / " << m << ")";
    }
  }
  EXPECT_THROW(jacobi(U256{3}, U256{16}), std::domain_error);
}

TEST(U256, JacobiIsMultiplicativeInTheModulus) {
  auto rng = SecureRng::deterministic(15);
  const VarUInt p = mersenne(89), q = mersenne(127);
  const VarUInt pq = p * q;
  auto euler = [](const VarUInt& a, const VarUInt& prime) {
    const VarUInt r = VarUInt::divmod(a, prime).second;
    if (r.is_zero()) return 0;
    return pow_mod(r, (prime - VarUInt{1}).shr(1), prime) == VarUInt{1} ? 1 : -1;
  };
  for (int i = 0; i < 8; ++i) {
    const VarUInt a = VarUInt::divmod(VarUInt{random_u256(rng)}, pq).second;
    const int jp = euler(a, p), jq = euler(a, q);
    EXPECT_EQ(jacobi(a.to_u256(), p.to_u256()), jp);
    EXPECT_EQ(jacobi(a.to_u256(), q.to_u256()), jq);
    EXPECT_EQ(jacobi(a.to_u256(), pq.to_u256()), jp * jq);
  }
  EXPECT_EQ(jacobi((VarUInt{7} * p).to_u256(), pq.to_u256()), 0);
}

TEST(U256, MontN0Inv) {
  U256 m = U256::from_hex(
      "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
  u64 n0 = mont_n0_inv(m);
  // Definition: m[0] * (-n0) ≡ 1 (mod 2^64), i.e. m[0]*n0 ≡ -1.
  EXPECT_EQ(m.limb[0] * n0, ~0ULL);
}

TEST(U256, ExtractWindowMatchesBitLoop) {
  auto rng = SecureRng::deterministic(15);
  for (int i = 0; i < 50; ++i) {
    U256 v = random_u256(rng);
    for (unsigned width : {1u, 3u, 8u, 13u, 16u, 31u, 64u}) {
      for (unsigned off = 0; off < 260; off += 7) {
        u64 expect = 0;
        for (unsigned b = 0; b < width && off + b < 256; ++b) {
          if (v.bit(off + b)) expect |= u64{1} << b;
        }
        EXPECT_EQ(v.extract_window(off, width), expect)
            << "off=" << off << " width=" << width;
      }
    }
  }
}

TEST(U256, ExtractWindowEdges) {
  U256 ones{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  EXPECT_EQ(ones.extract_window(0, 64), ~0ULL);
  EXPECT_EQ(ones.extract_window(192, 64), ~0ULL);
  EXPECT_EQ(ones.extract_window(255, 8), 1u);   // bits past 255 read as zero
  EXPECT_EQ(ones.extract_window(256, 8), 0u);   // fully out of range
  EXPECT_EQ(ones.extract_window(1000, 4), 0u);
  EXPECT_EQ(ones.extract_window(10, 0), 0u);    // zero width
  // Limb-straddling window: bits 60..67 of a value with limb0=2^63, limb1=5.
  U256 v{u64{1} << 63, 5, 0, 0};
  EXPECT_EQ(v.extract_window(60, 8), (5u << 4) | 0x8u);
}

TEST(U256, SignedWindowDigitsRecodeExactlyAtEveryWidth) {
  // At w = 1..16, on values below 2^254 (Fr-width scalars, GT exponents) and
  // below 2^127 (GLV halves): zero, one, 2^{bits-1}, 2^bits - 1, a value
  // whose every window holds 2^{w-1} + 1 (a carry out of every window), and
  // random values. Checks sum_t d_t * 2^{wt} = k, the digit range, that
  // `used` is one past the top nonzero digit, and that the negated call
  // writes the negated digits at its stride.
  auto rng = SecureRng::deterministic(16);
  for (unsigned bits : {254u, 127u}) {
    U256 mask;
    for (unsigned b = 0; b < bits; ++b) mask.limb[b / 64] |= u64{1} << (b % 64);
    for (unsigned w = 1; w <= 16; ++w) {
      const std::int32_t half = std::int32_t{1} << (w - 1);
      const unsigned positions = (bits + w - 1) / w + 1;
      U256 top, carries;
      top.limb[(bits - 1) / 64] = u64{1} << ((bits - 1) % 64);
      for (unsigned t = 0; (t + 1) * w <= bits; ++t) {
        const u64 v = static_cast<u64>(half) + 1;
        for (unsigned b = 0; b < w; ++b) {
          if ((v >> b) & 1) carries.limb[(t * w + b) / 64] |= u64{1} << ((t * w + b) % 64);
        }
      }
      std::vector<U256> ks = {U256{}, U256{1}, top, mask, carries};
      for (int i = 0; i < 20; ++i) {
        U256 k = random_u256(rng);
        for (int l = 0; l < 4; ++l) k.limb[l] &= mask.limb[l];
        ks.push_back(k);
      }
      for (const U256& k : ks) {
        std::vector<std::int32_t> d(positions, 7);
        const unsigned used = signed_window_digits(k, w, positions, false, d.data());
        VarUInt pos, neg;
        for (unsigned t = 0; t < positions; ++t) {
          EXPECT_GE(d[t], -(half - 1)) << "w=" << w << " t=" << t;
          EXPECT_LE(d[t], half) << "w=" << w << " t=" << t;
          if (d[t] > 0) pos = pos + VarUInt(static_cast<u64>(d[t])).shl(w * t);
          if (d[t] < 0) neg = neg + VarUInt(static_cast<u64>(-d[t])).shl(w * t);
          if (t >= used) EXPECT_EQ(d[t], 0) << "w=" << w << " t=" << t;
        }
        EXPECT_EQ(pos, VarUInt(k) + neg) << "w=" << w << " k=" << k.to_hex();
        if (k.is_zero()) {
          EXPECT_EQ(used, 0u);
        } else {
          ASSERT_GT(used, 0u);
          EXPECT_NE(d[used - 1], 0) << "w=" << w << " k=" << k.to_hex();
        }
        std::vector<std::int32_t> negated(3 * positions, 7);
        EXPECT_EQ(signed_window_digits(k, w, positions, true, negated.data(), 3), used);
        for (unsigned t = 0; t < positions; ++t) {
          EXPECT_EQ(negated[3 * t], -d[t]) << "w=" << w << " t=" << t;
          EXPECT_EQ(negated[3 * t + 1], 7);  // the stride skips the rest
        }
      }
    }
  }
}

TEST(U256, BitPastTopReadsZero) {
  // A comb whose rows * columns exceed 256 probes bits past the top; they
  // read as zero, as extract_window's do, instead of past the limb array.
  U256 ones{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  EXPECT_TRUE(ones.bit(0));
  EXPECT_TRUE(ones.bit(255));
  for (unsigned i : {256u, 257u, 300u, 319u, 320u, 1000u}) {
    EXPECT_FALSE(ones.bit(i)) << i;
  }
}

TEST(U256, BitLength) {
  EXPECT_EQ(U256{}.bit_length(), 0u);
  EXPECT_EQ(U256{1}.bit_length(), 1u);
  EXPECT_EQ(U256{0xff}.bit_length(), 8u);
  U256 p = U256::from_hex(
      "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
  EXPECT_EQ(p.bit_length(), 254u);
}

TEST(U256, MulLoMatchesWideLowHalf) {
  auto rng = SecureRng::deterministic(16);
  for (int i = 0; i < 100; ++i) {
    U256 a = random_u256(rng), b = random_u256(rng);
    U512 wide = mul_wide(a, b);
    U256 lo = mul_lo(a, b);
    for (int w = 0; w < 4; ++w) EXPECT_EQ(lo.limb[w], wide.limb[w]);
  }
}

TEST(U256, MulHighRoundedMatchesVarUInt) {
  auto rng = SecureRng::deterministic(17);
  // floor((a*b + 2^255) / 2^256): the rounded high half used by the GLV
  // Babai-rounding step.
  VarUInt half_shift = VarUInt::pow(VarUInt{2}, 255);
  for (int i = 0; i < 100; ++i) {
    U256 a = random_u256(rng), b = random_u256(rng);
    U256 got = mul_high_rounded(a, b);
    VarUInt expect = (VarUInt{a} * VarUInt{b} + half_shift).shr(256);
    EXPECT_EQ(VarUInt{got}, expect);
  }
}

TEST(U256, MulHighRoundedRoundsHalfUp) {
  // a * b = 2^255 exactly: the +2^255 bias must carry into the high half.
  U256 a{0, 0, 0, u64{1} << 63};  // 2^255
  U256 one{1};
  EXPECT_EQ(mul_high_rounded(a, one), U256{1});
  // Just below the rounding threshold: 2^255 - 1 rounds down to 0.
  U256 b{~0ULL, ~0ULL, ~0ULL, (u64{1} << 63) - 1};
  EXPECT_EQ(mul_high_rounded(b, one), U256{});
  // Carry must propagate through saturated high limbs: (2^256 - 1) * (2^256 - 1)
  // has high half 2^256 - 2 and low half 1; +2^255 does not carry. But
  // (2^256 - 1) * 2^255... keep it simple: all-ones squared.
  U256 ones{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  VarUInt expect =
      (VarUInt{ones} * VarUInt{ones} + VarUInt::pow(VarUInt{2}, 255)).shr(256);
  EXPECT_EQ(VarUInt{mul_high_rounded(ones, ones)}, expect);
}

TEST(U256, TwosComplementHelpers) {
  EXPECT_FALSE(sign_bit(U256{1}));
  EXPECT_FALSE(sign_bit(U256{}));
  EXPECT_TRUE(sign_bit(U256{0, 0, 0, u64{1} << 63}));

  // neg2c(x) + x == 0 (mod 2^256).
  auto rng = SecureRng::deterministic(18);
  for (int i = 0; i < 50; ++i) {
    U256 x = random_u256(rng);
    U256 sum;
    add_with_carry(x, neg2c(x), sum);
    EXPECT_TRUE(sum.is_zero());
  }
  EXPECT_EQ(neg2c(U256{}), U256{});
  EXPECT_EQ(neg2c(U256{1}), (U256{~0ULL, ~0ULL, ~0ULL, ~0ULL}));

  // abs2c: identity on non-negative, two's-complement negation otherwise.
  bool neg = true;
  EXPECT_EQ(abs2c(U256{42}, neg), U256{42});
  EXPECT_FALSE(neg);
  U256 minus_one{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  EXPECT_EQ(abs2c(minus_one, neg), U256{1});
  EXPECT_TRUE(neg);
  for (int i = 0; i < 50; ++i) {
    U256 x = random_u256(rng);
    bool n = false;
    U256 mag = abs2c(x, n);
    EXPECT_EQ(n, sign_bit(x));
    EXPECT_EQ(n ? neg2c(mag) : mag, x);
  }
}

TEST(VarUInt, DecRoundTrip) {
  const char* big =
      "123456789012345678901234567890123456789012345678901234567890123456789012345";
  EXPECT_EQ(VarUInt::from_dec(big).to_dec(), big);
  EXPECT_EQ(VarUInt{}.to_dec(), "0");
}

TEST(VarUInt, AddSubMul) {
  VarUInt a = VarUInt::from_dec("999999999999999999999999999999999999");
  VarUInt b = VarUInt::from_dec("1");
  EXPECT_EQ((a + b).to_dec(), "1000000000000000000000000000000000000");
  EXPECT_EQ((a + b - b), a);
  EXPECT_EQ((a * b), a);
  EXPECT_THROW(b - a, std::underflow_error);
}

TEST(VarUInt, DivModIdentity) {
  auto rng = SecureRng::deterministic(14);
  for (int i = 0; i < 50; ++i) {
    VarUInt a = VarUInt{random_u256(rng)} * VarUInt{random_u256(rng)};
    VarUInt b{random_u256(rng)};
    if (b.is_zero()) continue;
    auto [q, r] = VarUInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(VarUInt::cmp(r, b), 0);
  }
}

TEST(VarUInt, ShiftRoundTrip) {
  VarUInt v = VarUInt::from_dec("123456789123456789123456789");
  for (unsigned s : {1u, 13u, 64u, 100u, 257u}) {
    EXPECT_EQ(v.shl(s).shr(s), v);
  }
}

TEST(VarUInt, Pow) {
  EXPECT_EQ(VarUInt::pow(VarUInt{2}, 100).to_dec(), "1267650600228229401496703205376");
  EXPECT_EQ(VarUInt::pow(VarUInt{7}, 0).to_dec(), "1");
}

TEST(VarUInt, BnPolynomialIdentities) {
  // The BN254 moduli must equal their defining polynomials in t.
  VarUInt t{4965661367192848881ULL};
  VarUInt t2 = t * t, t3 = t2 * t, t4 = t3 * t;
  VarUInt p = VarUInt{36} * t4 + VarUInt{36} * t3 + VarUInt{24} * t2 +
              VarUInt{6} * t + VarUInt{1};
  VarUInt r = VarUInt{36} * t4 + VarUInt{36} * t3 + VarUInt{18} * t2 +
              VarUInt{6} * t + VarUInt{1};
  EXPECT_EQ(p.to_dec(),
            "21888242871839275222246405745257275088696311157297823662689037894645226208583");
  EXPECT_EQ(r.to_dec(),
            "21888242871839275222246405745257275088548364400416034343698204186575808495617");
}

}  // namespace
}  // namespace dsaudit::bigint
