#include "attack/corpus.hpp"

#include <algorithm>

#include "attack/adversary.hpp"  // detail::mix64
#include "audit/types.hpp"

namespace dsaudit::attack::corpus {

namespace {

using detail::mix64;

std::vector<std::uint8_t> copy_of(std::span<const std::uint8_t> v) {
  return {v.begin(), v.end()};
}

/// 32 bytes of 0xFF: non-canonical as an Fp or Fr limb (both moduli are
/// < 2^255), out of range as a compressed point's x regardless of flag-bit
/// convention.
void saturate(std::vector<std::uint8_t>& b, std::size_t off,
              std::size_t len = 32) {
  std::fill(b.begin() + static_cast<std::ptrdiff_t>(off),
            b.begin() + static_cast<std::ptrdiff_t>(off + len), 0xFF);
}

void put_u64_be(std::vector<std::uint8_t>& b, std::size_t off,
                std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * (7 - i)));
  }
}

Mutation make(std::string label, std::vector<std::uint8_t> bytes,
              bool must_reject = true) {
  return Mutation{std::move(label), std::move(bytes), must_reject};
}

}  // namespace

std::vector<Mutation> proof_mutations(std::span<const std::uint8_t> valid) {
  const bool priv = valid.size() == audit::ProofPrivate::kWireSize;
  std::vector<Mutation> out;
  out.push_back(make("empty", {}));
  out.push_back(make("truncated-by-1",
                     copy_of(valid.subspan(0, valid.size() - 1))));
  out.push_back(make("truncated-half",
                     copy_of(valid.subspan(0, valid.size() / 2))));
  {
    auto b = copy_of(valid);
    b.push_back(0);
    out.push_back(make("extended-by-1", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 0);  // sigma.x >= p
    out.push_back(make("sigma-noncanonical-x", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 32);  // y (or y') >= r
    out.push_back(make("scalar-noncanonical", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 64);  // psi.x >= p
    out.push_back(make("psi-noncanonical-x", std::move(b)));
  }
  if (priv) {
    {
      auto b = copy_of(valid);
      saturate(b, 96, 192);  // every torus coordinate of R >= p
      out.push_back(make("gt-noncanonical-coords", std::move(b)));
    }
    {
      auto b = copy_of(valid);
      b[96] |= 0xC0;  // R's first coordinate gains bits 255 and 254: >= p
      out.push_back(make("gt-top-two-bits-set", std::move(b)));
    }
    {
      auto b = copy_of(valid);
      // Bit 255 set, bit 254 cleared: still >= 2^255 > p. The torus encoding
      // has no flag bits, so no top bit is ever canonical.
      b[96] = static_cast<std::uint8_t>((b[96] & 0x3F) | 0x80);
      out.push_back(make("gt-top-bit-set", std::move(b)));
    }
    {
      // A basic-sized prefix of a private proof (and vice versa below):
      // cross-format confusion must be a clean BadLength.
      out.push_back(make("private-as-basic-prefix",
                         copy_of(valid.subspan(0, 96 + 1))));
    }
  }
  return out;
}

std::vector<std::uint8_t> corrupt_proof(std::span<const std::uint8_t> valid,
                                        std::uint64_t variant) {
  auto muts = proof_mutations(valid);
  return muts[mix64(variant) % muts.size()].bytes;
}

std::vector<Mutation> public_key_mutations(
    std::span<const std::uint8_t> valid) {
  std::vector<Mutation> out;
  out.push_back(make("empty", {}));
  out.push_back(make("truncated-header", copy_of(valid.subspan(0, 7))));
  out.push_back(make("truncated-by-1",
                     copy_of(valid.subspan(0, valid.size() - 1))));
  {
    auto b = copy_of(valid);
    b.push_back(0);
    out.push_back(make("extended-by-1", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    put_u64_be(b, 0, 0);  // s == 0: keygen guarantees s >= 1
    out.push_back(make("s-zero", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    // The overflow probe: 32 * (s-1) wraps to a tiny value. A decoder that
    // trusts the product before bounding the count reads out of bounds.
    put_u64_be(b, 0, (1ULL << 59) + 5);
    out.push_back(make("s-overflow-2^59", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    put_u64_be(b, 0, 0xFFFFFFFFFFFFFFFFULL);
    out.push_back(make("s-max-u64", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 8, 64);  // epsilon: non-canonical G2 coordinates
    out.push_back(make("epsilon-noncanonical", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 72, 64);  // delta
    out.push_back(make("delta-noncanonical", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 136);  // first alpha power: x >= p
    out.push_back(make("alpha-power-noncanonical", std::move(b)));
  }
  return out;
}

std::vector<Mutation> file_tag_mutations(std::span<const std::uint8_t> valid) {
  std::vector<Mutation> out;
  out.push_back(make("empty", {}));
  out.push_back(make("truncated-header", copy_of(valid.subspan(0, 47))));
  out.push_back(make("truncated-by-1",
                     copy_of(valid.subspan(0, valid.size() - 1))));
  {
    auto b = copy_of(valid);
    b.push_back(0);
    out.push_back(make("extended-by-1", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 0);  // name >= r
    out.push_back(make("name-noncanonical", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    // num_chunks = 2^59: 32 * num_chunks wraps to 0, so a length check of
    // the form size != 48 + 32*n passes on a 48-byte buffer and the sigma
    // loop walks 2^59 entries off the end. The typed decoder must bound the
    // count against the buffer BEFORE multiplying.
    put_u64_be(b, 40, 1ULL << 59);
    out.push_back(make("num-chunks-overflow-2^59", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    put_u64_be(b, 40, 0xFFFFFFFFFFFFFFFFULL);
    out.push_back(make("num-chunks-max-u64", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    const std::uint64_t n = (valid.size() - 48) / 32;
    put_u64_be(b, 40, n + 1);  // claims one more sigma than the buffer holds
    out.push_back(make("num-chunks-lying-high", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 48);  // first sigma: x >= p
    out.push_back(make("sigma-noncanonical", std::move(b)));
  }
  return out;
}

std::vector<Mutation> challenge_mutations(std::span<const std::uint8_t> valid) {
  std::vector<Mutation> out;
  out.push_back(make("empty", {}));
  out.push_back(make("truncated-by-1",
                     copy_of(valid.subspan(0, valid.size() - 1))));
  {
    auto b = copy_of(valid);
    b.push_back(0);
    out.push_back(make("extended-by-1", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 64);  // r >= r_modulus
    out.push_back(make("r-noncanonical", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    put_u64_be(b, 96, 0);  // k == 0: expand_challenge rejects it
    out.push_back(make("k-zero", std::move(b)));
  }
  return out;
}

std::vector<Mutation> aggregate_settlement_mutations(
    std::span<const std::uint8_t> valid) {
  // Layout: seed (32) | nonce (8) | boundary (8) | rounds (8, at offset 48)
  // | opening (32, at offset 56) | bitmap (ceil(rounds/8), at offset 88).
  constexpr std::size_t kHeader = 88;
  constexpr std::size_t kRoundsOff = 48;
  const std::uint64_t rounds =
      [&] {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v = (v << 8) | valid[kRoundsOff + i];
        return v;
      }();
  std::vector<Mutation> out;
  out.push_back(make("empty", {}));
  out.push_back(make("truncated-header", copy_of(valid.subspan(0, kHeader - 1))));
  out.push_back(make("truncated-by-1",
                     copy_of(valid.subspan(0, valid.size() - 1))));
  {
    auto b = copy_of(valid);
    b.push_back(0);
    out.push_back(make("extended-by-1", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    put_u64_be(b, kRoundsOff, 0);  // an empty window never posts a settlement tx
    out.push_back(make("rounds-zero", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    // rounds = 2^62: a naive header + rounds/8 + 1 sizing wraps; the typed
    // decoder must bound the count against the buffer before it sizes the
    // bitmap.
    put_u64_be(b, kRoundsOff, 1ULL << 62);
    out.push_back(make("rounds-overflow-2^62", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    put_u64_be(b, kRoundsOff, 0xFFFFFFFFFFFFFFFFULL);
    out.push_back(make("rounds-max-u64", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    // Claims a full extra bitmap byte's worth of rounds beyond the buffer.
    put_u64_be(b, kRoundsOff, rounds + 8);
    out.push_back(make("rounds-lying-high", std::move(b)));
  }
  if (rounds > 8) {
    auto b = copy_of(valid);
    // Claims fewer rounds than the bitmap carries: the buffer is now too
    // long for the count.
    put_u64_be(b, kRoundsOff, rounds - 8);
    out.push_back(make("rounds-lying-low", std::move(b)));
  }
  if (rounds % 8 != 0) {
    auto b = copy_of(valid);
    // A set bit past `rounds` in the last bitmap byte: non-canonical.
    b.back() |= static_cast<std::uint8_t>(1u << (rounds % 8));
    out.push_back(make("trailing-bitmap-bit", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 56);  // opening: x >= p
    out.push_back(make("opening-noncanonical-x", std::move(b)));
  }
  return out;
}

std::vector<Mutation> secret_key_mutations(
    std::span<const std::uint8_t> valid) {
  std::vector<Mutation> out;
  out.push_back(make("empty", {}));
  out.push_back(make("truncated-by-1",
                     copy_of(valid.subspan(0, valid.size() - 1))));
  {
    auto b = copy_of(valid);
    b.push_back(0);
    out.push_back(make("extended-by-1", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 0);
    out.push_back(make("x-noncanonical", std::move(b)));
  }
  {
    auto b = copy_of(valid);
    saturate(b, 32);
    out.push_back(make("alpha-noncanonical", std::move(b)));
  }
  {
    std::vector<std::uint8_t> b(64, 0);
    out.push_back(make("all-zero", std::move(b)));
  }
  return out;
}

std::vector<Mutation> random_flips(std::span<const std::uint8_t> valid,
                                   std::uint64_t seed, std::size_t count) {
  std::vector<Mutation> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto b = copy_of(valid);
    const std::uint64_t h = mix64(seed ^ (i + 1));
    const std::size_t pos = h % b.size();
    const auto bit = static_cast<std::uint8_t>(1u << (mix64(h) % 8));
    b[pos] ^= bit;
    out.push_back(make("flip-" + std::to_string(pos) + "-" +
                           std::to_string(static_cast<int>(bit)),
                       std::move(b), /*must_reject=*/false));
  }
  return out;
}

}  // namespace dsaudit::attack::corpus
