// Wire formats: what actually lands on the blockchain.
//
//   ProofBasic   -> 96 bytes  (sigma 32 | y 32 | psi 32)      — Fig. 5 "w/o"
//   ProofPrivate -> 288 bytes (sigma 32 | y' 32 | psi 32 | R 192) — Table II
//
// GT compression (T2 torus; Naehrig–Barreto–Schwabe, "On compressible
// pairings and their computation", AFRICACRYPT 2008): after the final
// exponentiation every GT element g = a + bw (a, b in Fp6) satisfies
// g * conj(g) = 1, i.e. a^2 - v b^2 = 1. Every such g except -1 is
// (1 + cw)/(1 - cw) for exactly one c = b/(1 + a) in Fp6, so we ship c as six
// canonical Fp coordinates (192 bytes = the paper's "|GT| = 1536 bits") and
// decode with one Fp6 inversion: D = 1 - v c^2, a = (1 + v c^2)/D,
// b = 2c/D. The identity is c = 0 (all-zero bytes). There are no flag bits:
// a set top bit makes its coordinate >= p, i.e. non-canonical.
//
// Untrusted-bytes boundary: every decode_* function treats its input as
// adversary-controlled. Buffers are bounds-checked BEFORE any length field is
// trusted (a wire length field never sizes a read or an allocation until it
// has been proven consistent with the buffer it arrived in), every field
// element must be canonical, every point on-curve, every GT element in the
// order-r subgroup — and the reason for a rejection comes back as a typed
// DecodeError instead of a bare nullopt, so callers (and the fuzz corpus)
// can assert WHY bytes were refused. The two proof decoders keep a legacy
// deserialize_* wrapper of std::optional shape that delegates.
#pragma once

#include <optional>
#include <vector>

#include "audit/types.hpp"

namespace dsaudit::audit {

// The primitive wire sizes every encoder here is built from (kFrWireBytes,
// kG1WireBytes, ...) live in types.hpp, next to the size formulas that use
// them.

/// Why a decode refused its input. One enumerator per distinct boundary
/// check, so tests can pin the exact rejection path.
enum class DecodeError {
  None = 0,
  /// Buffer length matches no valid encoding (truncated or oversized).
  BadLength,
  /// An internal count/length field is inconsistent with the buffer that
  /// carried it (e.g. a FileTag whose num_chunks claims more sigmas than
  /// the buffer could possibly hold).
  BadStructure,
  /// A scalar field is >= the group order r (non-canonical encoding).
  NonCanonicalScalar,
  /// A curve point failed to decode: non-canonical x coordinate, x not on
  /// the curve, or malformed infinity/sign flag bits.
  BadPoint,
  /// A compressed GT element failed to decode: a non-canonical Fp
  /// coordinate, or the decoded unit-norm element outside the order-r
  /// pairing subgroup.
  BadGtElement,
  /// A field that the protocol requires to be nonzero (s, k, secret-key
  /// components, the key's G2 points) decoded to zero/identity.
  ZeroForbidden,
};

const char* to_string(DecodeError error);

/// Decoded value or the first boundary check that refused the bytes.
/// Exactly one of (value, error != None) is set.
template <typename T>
struct DecodeResult {
  std::optional<T> value;
  DecodeError error = DecodeError::None;

  bool ok() const { return value.has_value(); }
  explicit operator bool() const { return ok(); }
  const T& operator*() const { return *value; }
  const T* operator->() const { return &*value; }

  static DecodeResult success(T v) { return {std::move(v), DecodeError::None}; }
  static DecodeResult failure(DecodeError e) { return {std::nullopt, e}; }
};

/// 192-byte torus encoding c = b/(1 + a) of a unit-norm GT element.
/// Throws std::invalid_argument if the element is not unit-norm, or is -1
/// (the one unit-norm element without an encoding; it is not in GT).
std::array<std::uint8_t, 192> gt_compress(const Fp12& g);
/// Typed decode; BadGtElement on a non-canonical coordinate or an element
/// outside the order-r subgroup. Accepted bytes re-encode to themselves.
DecodeResult<Fp12> gt_decode(std::span<const std::uint8_t, 192> bytes);

std::vector<std::uint8_t> serialize(const ProofBasic& proof);
DecodeResult<ProofBasic> decode_basic(std::span<const std::uint8_t> bytes);
std::optional<ProofBasic> deserialize_basic(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> serialize(const ProofPrivate& proof);
DecodeResult<ProofPrivate> decode_private(std::span<const std::uint8_t> bytes);
std::optional<ProofPrivate> deserialize_private(std::span<const std::uint8_t> bytes);

/// Public key serialization (the Initialize-phase on-chain record, Fig. 4).
std::vector<std::uint8_t> serialize(const PublicKey& pk, bool with_privacy);
DecodeResult<PublicKey> decode_public_key(std::span<const std::uint8_t> bytes);

/// Secret key (64 bytes: x || alpha) — off-chain, for the owner's keystore.
std::vector<std::uint8_t> serialize(const SecretKey& sk);
DecodeResult<SecretKey> decode_secret_key(std::span<const std::uint8_t> bytes);

/// File tag: name (32) || s (8) || num_chunks (8) || compressed sigmas.
std::vector<std::uint8_t> serialize(const FileTag& tag);
DecodeResult<FileTag> decode_file_tag(std::span<const std::uint8_t> bytes);

/// Challenge: c1 (32) || c2 (32) || r (32) || k (8) — what the contract posts
/// plus the agreed k.
std::vector<std::uint8_t> serialize(const Challenge& chal);
DecodeResult<Challenge> decode_challenge(std::span<const std::uint8_t> bytes);

/// Aggregate settlement tx: seed (32) || boundary (8) || rounds (8) ||
/// opening (32, compressed G1) || outcome bitmap (ceil(rounds/8)).
/// `rounds` is a full 64-bit wire field and is bounded against the buffer
/// BEFORE it sizes the bitmap; rounds == 0 is ZeroForbidden (an empty window
/// never posts), a nonzero trailing bitmap bit is BadStructure (encodings
/// are canonical and round-trip bit-exactly).
std::vector<std::uint8_t> serialize(const AggregateSettlement& agg);
DecodeResult<AggregateSettlement> decode_aggregate_settlement(
    std::span<const std::uint8_t> bytes);

}  // namespace dsaudit::audit
