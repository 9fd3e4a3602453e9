#include "audit/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "pairing/pairing.hpp"

namespace dsaudit::audit {

// The exported wire constants are the encodings' single source of truth;
// pin them to the struct-level sizes so neither can drift silently.
static_assert(ProofBasic::kWireSize == 2 * kG1WireBytes + kFrWireBytes);
static_assert(ProofPrivate::kWireSize ==
              2 * kG1WireBytes + kFrWireBytes + kGtWireBytes);
static_assert(AggregateSettlement::kHeaderBytes ==
              32 /*seed*/ + 3 * kU64WireBytes + kG1WireBytes);

namespace {

using ff::Fp;
using ff::Fp2;
using ff::Fp6;

void write_fp6(const Fp6& a, std::uint8_t* out) {
  const Fp* coords[6] = {&a.c0.c0, &a.c0.c1, &a.c1.c0, &a.c1.c1, &a.c2.c0, &a.c2.c1};
  for (int i = 0; i < 6; ++i) {
    coords[i]->to_be_bytes(std::span<std::uint8_t, 32>(out + 32 * i, 32));
  }
}

std::optional<Fp6> read_fp6(const std::uint8_t* in) {
  ff::Fp coords[6];
  for (int i = 0; i < 6; ++i) {
    ff::U256 v = ff::U256::from_be_bytes(
        std::span<const std::uint8_t, 32>(in + 32 * i, 32));
    if (!bigint::lt(v, Fp::modulus())) return std::nullopt;  // non-canonical
    coords[i] = Fp::from_u256(v);
  }
  return Fp6{Fp2{coords[0], coords[1]}, Fp2{coords[2], coords[3]},
             Fp2{coords[4], coords[5]}};
}

Fr read_fr(const std::uint8_t* in) {
  // Scalars are transmitted canonically; out-of-range values are rejected by
  // the caller via the NonCanonicalScalar path before this is reached.
  return Fr::from_u256(
      ff::U256::from_be_bytes(std::span<const std::uint8_t, 32>(in, 32)));
}

bool fr_canonical(const std::uint8_t* in) {
  ff::U256 v = ff::U256::from_be_bytes(std::span<const std::uint8_t, 32>(in, 32));
  return bigint::lt(v, Fr::modulus());
}

/// sigma || y || psi, the 96-byte head of both proof shapes.
void write_proof_head(const G1::Affine& sigma, const Fr& y,
                      const G1::Affine& psi, std::uint8_t* out) {
  const auto s = curve::g1_compress(sigma);
  std::memcpy(out, s.data(), 32);
  y.to_be_bytes(std::span<std::uint8_t, 32>(out + 32, 32));
  const auto p = curve::g1_compress(psi);
  std::memcpy(out + 64, p.data(), 32);
}

}  // namespace

const char* to_string(DecodeError error) {
  switch (error) {
    case DecodeError::None: return "none";
    case DecodeError::BadLength: return "bad-length";
    case DecodeError::BadStructure: return "bad-structure";
    case DecodeError::NonCanonicalScalar: return "non-canonical-scalar";
    case DecodeError::BadPoint: return "bad-point";
    case DecodeError::BadGtElement: return "bad-gt-element";
    case DecodeError::ZeroForbidden: return "zero-forbidden";
  }
  return "?";
}

std::array<std::uint8_t, 192> gt_compress(const Fp12& g) {
  // Unit-norm check: a^2 - v b^2 == 1.
  Fp6 norm = g.c0.square() - g.c1.square().mul_by_v();
  if (!norm.is_one()) {
    throw std::invalid_argument("gt_compress: element is not unit-norm GT");
  }
  // 1 + a == 0 only at g = -1 (a = -1 forces v b^2 = 0, so b = 0): order 2,
  // never a pairing value, and the one unit-norm element T2 cannot encode.
  Fp6 one_plus_a = Fp6::one() + g.c0;
  if (one_plus_a.is_zero()) {
    throw std::invalid_argument("gt_compress: -1 has no torus encoding");
  }
  std::array<std::uint8_t, 192> out{};
  write_fp6(g.c1 * one_plus_a.inverse(), out.data());
  return out;
}

DecodeResult<Fp12> gt_decode(std::span<const std::uint8_t, 192> bytes) {
  using R = DecodeResult<Fp12>;
  auto c = read_fp6(bytes.data());
  if (!c) return R::failure(DecodeError::BadGtElement);
  // g = (1 + c w) / (1 - c w) = ((1 + v c^2) + 2c w) / D with D = 1 - v c^2.
  // D != 0: v c^2 = 1 would make v a square in Fp6, and it is not.
  Fp6 vc2 = c->square().mul_by_v();
  Fp6 d_inv = (Fp6::one() - vc2).inverse();
  Fp12 g{(Fp6::one() + vc2) * d_inv, c->dbl() * d_inv};
  // Every canonical c decodes to a unit-norm element, which admits the whole
  // order-(p^6+1) subgroup. Only genuine pairing outputs — the order-r
  // subgroup — deserialize.
  if (!pairing::gt_in_subgroup(g)) return R::failure(DecodeError::BadGtElement);
  return R::success(g);
}

std::vector<std::uint8_t> serialize(const ProofBasic& proof) {
  std::vector<std::uint8_t> out(ProofBasic::kWireSize);
  write_proof_head(proof.sigma, proof.y, proof.psi, out.data());
  return out;
}

DecodeResult<ProofBasic> decode_basic(std::span<const std::uint8_t> bytes) {
  using R = DecodeResult<ProofBasic>;
  if (bytes.size() != ProofBasic::kWireSize) {
    return R::failure(DecodeError::BadLength);
  }
  auto sigma = curve::g1_decompress(
      std::span<const std::uint8_t, 32>(bytes.data(), 32));
  if (!sigma) return R::failure(DecodeError::BadPoint);
  if (!fr_canonical(bytes.data() + 32)) {
    return R::failure(DecodeError::NonCanonicalScalar);
  }
  auto psi = curve::g1_decompress(
      std::span<const std::uint8_t, 32>(bytes.data() + 64, 32));
  if (!psi) return R::failure(DecodeError::BadPoint);
  return R::success(ProofBasic{*sigma, read_fr(bytes.data() + 32), *psi});
}

std::optional<ProofBasic> deserialize_basic(std::span<const std::uint8_t> bytes) {
  return decode_basic(bytes).value;
}

std::vector<std::uint8_t> serialize(const ProofPrivate& proof) {
  std::vector<std::uint8_t> out(ProofPrivate::kWireSize);
  write_proof_head(proof.sigma, proof.y_prime, proof.psi, out.data());
  auto r = gt_compress(proof.big_r);
  std::memcpy(out.data() + 96, r.data(), 192);
  return out;
}

DecodeResult<ProofPrivate> decode_private(std::span<const std::uint8_t> bytes) {
  using R = DecodeResult<ProofPrivate>;
  if (bytes.size() != ProofPrivate::kWireSize) {
    return R::failure(DecodeError::BadLength);
  }
  auto sigma = curve::g1_decompress(
      std::span<const std::uint8_t, 32>(bytes.data(), 32));
  if (!sigma) return R::failure(DecodeError::BadPoint);
  if (!fr_canonical(bytes.data() + 32)) {
    return R::failure(DecodeError::NonCanonicalScalar);
  }
  auto psi = curve::g1_decompress(
      std::span<const std::uint8_t, 32>(bytes.data() + 64, 32));
  if (!psi) return R::failure(DecodeError::BadPoint);
  auto big_r = gt_decode(
      std::span<const std::uint8_t, 192>(bytes.data() + 96, 192));
  if (!big_r) return R::failure(big_r.error);
  return R::success(
      ProofPrivate{*sigma, read_fr(bytes.data() + 32), *psi, *big_r});
}

std::optional<ProofPrivate> deserialize_private(std::span<const std::uint8_t> bytes) {
  return decode_private(bytes).value;
}

std::vector<std::uint8_t> serialize(const PublicKey& pk, bool with_privacy) {
  std::vector<std::uint8_t> out;
  out.reserve(PublicKey::serialized_size_for(pk.s, with_privacy));
  // s as 8-byte big-endian.
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(pk.s >> (8 * i)));
  }
  auto eps = curve::g2_compress(pk.epsilon);
  out.insert(out.end(), eps.begin(), eps.end());
  auto del = curve::g2_compress(pk.delta);
  out.insert(out.end(), del.begin(), del.end());
  for (const auto& p : pk.g1_alpha_powers) {
    auto b = curve::g1_compress(p);
    out.insert(out.end(), b.begin(), b.end());
  }
  if (with_privacy) {
    auto r = gt_compress(pk.e_g1_epsilon);
    out.insert(out.end(), r.begin(), r.end());
  }
  return out;
}

DecodeResult<PublicKey> decode_public_key(std::span<const std::uint8_t> bytes) {
  using R = DecodeResult<PublicKey>;
  // Smallest well-formed key: s (8) + two G2 points (128) + one G1 power (32).
  if (bytes.size() < PublicKey::serialized_size_for(1, false)) {
    return R::failure(DecodeError::BadLength);
  }
  PublicKey pk;
  pk.s = 0;
  for (int i = 0; i < 8; ++i) pk.s = (pk.s << 8) | bytes[i];
  if (pk.s == 0) return R::failure(DecodeError::ZeroForbidden);  // keygen: s >= 1
  std::size_t power_count = PublicKey::alpha_power_count(pk.s);
  // The wire's s field is 64 bits of attacker-controlled input: prove the
  // claimed power count fits the buffer BEFORE it sizes any arithmetic —
  // the size formula's G1 term must not be allowed to overflow into a small
  // size that happens to match bytes.size().
  if (power_count >
      (bytes.size() - kU64WireBytes - 2 * kG2WireBytes) / kG1WireBytes) {
    return R::failure(DecodeError::BadStructure);
  }
  bool with_privacy;
  if (bytes.size() == PublicKey::serialized_size_for(pk.s, false)) {
    with_privacy = false;
  } else if (bytes.size() == PublicKey::serialized_size_for(pk.s, true)) {
    with_privacy = true;
  } else {
    return R::failure(DecodeError::BadStructure);
  }
  auto eps = curve::g2_decompress(
      std::span<const std::uint8_t, 64>(bytes.data() + 8, 64));
  auto del = curve::g2_decompress(
      std::span<const std::uint8_t, 64>(bytes.data() + 72, 64));
  if (!eps || !del) return R::failure(DecodeError::BadPoint);
  // epsilon = g2^x, delta = g2^{alpha x} with x, alpha nonzero: the identity
  // is never a legitimate key component, and accepting it would neuter every
  // pairing check against this key.
  if (eps->is_infinity() || del->is_infinity()) {
    return R::failure(DecodeError::ZeroForbidden);
  }
  pk.epsilon = *eps;
  pk.delta = *del;
  pk.g1_alpha_powers.reserve(power_count);
  for (std::size_t j = 0; j < power_count; ++j) {
    auto p = curve::g1_decompress(std::span<const std::uint8_t, 32>(
        bytes.data() + 136 + 32 * j, 32));
    if (!p) return R::failure(DecodeError::BadPoint);
    pk.g1_alpha_powers.push_back(*p);
  }
  if (with_privacy) {
    auto r = gt_decode(
        std::span<const std::uint8_t, 192>(
            bytes.data() + PublicKey::serialized_size_for(pk.s, false), 192));
    if (!r) return R::failure(r.error);
    pk.e_g1_epsilon = *r;
  } else {
    // Recomputable from epsilon; one pairing.
    pk.e_g1_epsilon = Fp12::zero();  // sentinel: filled by caller if needed
  }
  return R::success(std::move(pk));
}

namespace {

void write_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t read_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[i];
  return v;
}

void write_fr(std::vector<std::uint8_t>& out, const Fr& v) {
  auto b = v.to_bytes();
  out.insert(out.end(), b.begin(), b.end());
}

}  // namespace

std::vector<std::uint8_t> serialize(const SecretKey& sk) {
  std::vector<std::uint8_t> out;
  out.reserve(64);
  write_fr(out, sk.x);
  write_fr(out, sk.alpha);
  return out;
}

DecodeResult<SecretKey> decode_secret_key(std::span<const std::uint8_t> bytes) {
  using R = DecodeResult<SecretKey>;
  if (bytes.size() != 64) return R::failure(DecodeError::BadLength);
  if (!fr_canonical(bytes.data()) || !fr_canonical(bytes.data() + 32)) {
    return R::failure(DecodeError::NonCanonicalScalar);
  }
  SecretKey sk;
  sk.x = read_fr(bytes.data());
  sk.alpha = read_fr(bytes.data() + 32);
  if (sk.x.is_zero() || sk.alpha.is_zero()) {
    return R::failure(DecodeError::ZeroForbidden);
  }
  return R::success(sk);
}

std::vector<std::uint8_t> serialize(const FileTag& tag) {
  std::vector<std::uint8_t> out;
  out.reserve(48 + 32 * tag.sigmas.size());
  write_fr(out, tag.name);
  write_u64(out, tag.s);
  write_u64(out, tag.num_chunks);
  for (const auto& sigma : tag.sigmas) {
    auto b = curve::g1_compress(sigma);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

DecodeResult<FileTag> decode_file_tag(std::span<const std::uint8_t> bytes) {
  using R = DecodeResult<FileTag>;
  if (bytes.size() < 48) return R::failure(DecodeError::BadLength);
  if (!fr_canonical(bytes.data())) {
    return R::failure(DecodeError::NonCanonicalScalar);
  }
  FileTag tag;
  tag.name = read_fr(bytes.data());
  tag.s = read_u64(bytes.data() + 32);
  tag.num_chunks = read_u64(bytes.data() + 40);
  // num_chunks is 64 bits off the wire: bound it by what the buffer can
  // actually hold before it sizes anything (32 * num_chunks must not wrap
  // around into a length that matches a short buffer).
  if (tag.num_chunks > (bytes.size() - 48) / 32) {
    return R::failure(DecodeError::BadStructure);
  }
  if (bytes.size() != 48 + 32 * tag.num_chunks) {
    return R::failure(DecodeError::BadStructure);
  }
  tag.sigmas.reserve(tag.num_chunks);
  for (std::size_t i = 0; i < tag.num_chunks; ++i) {
    auto p = curve::g1_decompress(
        std::span<const std::uint8_t, 32>(bytes.data() + 48 + 32 * i, 32));
    if (!p) return R::failure(DecodeError::BadPoint);
    tag.sigmas.push_back(*p);
  }
  return R::success(std::move(tag));
}

std::vector<std::uint8_t> serialize(const Challenge& chal) {
  std::vector<std::uint8_t> out;
  out.reserve(104);
  out.insert(out.end(), chal.c1.begin(), chal.c1.end());
  out.insert(out.end(), chal.c2.begin(), chal.c2.end());
  write_fr(out, chal.r);
  write_u64(out, chal.k);
  return out;
}

DecodeResult<Challenge> decode_challenge(std::span<const std::uint8_t> bytes) {
  using R = DecodeResult<Challenge>;
  if (bytes.size() != 104) return R::failure(DecodeError::BadLength);
  if (!fr_canonical(bytes.data() + 64)) {
    return R::failure(DecodeError::NonCanonicalScalar);
  }
  Challenge chal;
  std::copy(bytes.begin(), bytes.begin() + 32, chal.c1.begin());
  std::copy(bytes.begin() + 32, bytes.begin() + 64, chal.c2.begin());
  chal.r = read_fr(bytes.data() + 64);
  chal.k = read_u64(bytes.data() + 96);
  if (chal.k == 0) return R::failure(DecodeError::ZeroForbidden);
  return R::success(chal);
}

std::vector<std::uint8_t> serialize(const AggregateSettlement& agg) {
  if (agg.outcomes.size() != AggregateSettlement::bitmap_bytes(agg.rounds)) {
    throw std::invalid_argument(
        "serialize(AggregateSettlement): bitmap size mismatch");
  }
  std::vector<std::uint8_t> out;
  out.reserve(agg.serialized_size());
  out.insert(out.end(), agg.weight_seed.begin(), agg.weight_seed.end());
  write_u64(out, agg.seed_nonce);
  write_u64(out, agg.window_boundary);
  write_u64(out, agg.rounds);
  auto op = curve::g1_compress(agg.opening);
  out.insert(out.end(), op.begin(), op.end());
  out.insert(out.end(), agg.outcomes.begin(), agg.outcomes.end());
  return out;
}

DecodeResult<AggregateSettlement> decode_aggregate_settlement(
    std::span<const std::uint8_t> bytes) {
  using R = DecodeResult<AggregateSettlement>;
  constexpr std::size_t header = AggregateSettlement::kHeaderBytes;
  if (bytes.size() < header) return R::failure(DecodeError::BadLength);
  AggregateSettlement agg;
  std::copy(bytes.begin(), bytes.begin() + 32, agg.weight_seed.begin());
  agg.seed_nonce = read_u64(bytes.data() + 32);
  agg.window_boundary = read_u64(bytes.data() + 40);
  agg.rounds = read_u64(bytes.data() + 48);
  if (agg.rounds == 0) return R::failure(DecodeError::ZeroForbidden);
  // rounds is 64 bits off the wire: bound it by what the buffer can actually
  // hold before it sizes the bitmap (the division form cannot wrap, unlike
  // header + rounds/8 + 1 arithmetic on attacker-chosen counts).
  const std::size_t bitmap = AggregateSettlement::bitmap_bytes(agg.rounds);
  if (agg.rounds / 8 > bytes.size() || bitmap != bytes.size() - header) {
    return R::failure(DecodeError::BadStructure);
  }
  auto p = curve::g1_decompress(
      std::span<const std::uint8_t, 32>(bytes.data() + 56, 32));
  if (!p) return R::failure(DecodeError::BadPoint);
  agg.opening = *p;
  agg.outcomes.assign(bytes.begin() + static_cast<std::ptrdiff_t>(header),
                      bytes.end());
  // Canonicality: bits past `rounds` in the last bitmap byte must be zero,
  // so every accepted encoding round-trips bit-exactly.
  if (agg.rounds % 8 != 0) {
    const std::uint8_t tail_mask =
        static_cast<std::uint8_t>(0xFFu << (agg.rounds % 8));
    if ((agg.outcomes.back() & tail_mask) != 0) {
      return R::failure(DecodeError::BadStructure);
    }
  }
  return R::success(std::move(agg));
}

}  // namespace dsaudit::audit
