// Deterministic malformed-input corpus for the untrusted-bytes boundary.
//
// Two consumers share these generators:
//   - MalformedBytesStrategy (adversary.hpp): corrupt_proof() turns an
//     honest proof encoding into a guaranteed-invalid one on the wire, so
//     every such round must die at the decode boundary with a typed
//     rejection (never UB, never a crash, never a downstream surprise);
//   - tests/test_fuzz_decode.cpp: the *_mutations() generators enumerate
//     every guaranteed-invalid class per wire format (truncation, extension,
//     non-canonical field elements, off-range points, inconsistent length
//     fields — including the 32*count overflow probes — GT coordinates >= p),
//     plus seeded random byte flips that only assert crash-freedom.
//
// Everything is a pure function of its inputs: the same (bytes, seed) always
// yields the same corpus, so a sanitizer failure replays exactly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dsaudit::attack::corpus {

struct Mutation {
  std::string label;
  std::vector<std::uint8_t> bytes;
  /// True: decode MUST return a typed error. False (random flips): decode
  /// may succeed or fail, but must not crash; if it succeeds the value must
  /// re-serialize consistently.
  bool must_reject = true;
};

/// One guaranteed-invalid corruption of a valid ProofBasic/ProofPrivate
/// encoding (distinguished by size); `variant` cycles deterministically
/// through the classes. Used by the in-sim malformed-bytes adversary.
std::vector<std::uint8_t> corrupt_proof(std::span<const std::uint8_t> valid,
                                        std::uint64_t variant);

/// Every guaranteed-invalid class for a proof encoding (basic or private).
std::vector<Mutation> proof_mutations(std::span<const std::uint8_t> valid);
/// Guaranteed-invalid public-key encodings, including s = 0 and the
/// 64-bit power-count overflow probes.
std::vector<Mutation> public_key_mutations(std::span<const std::uint8_t> valid);
/// Guaranteed-invalid file-tag encodings, including the num_chunks
/// overflow probes (32 * num_chunks wrapping past SIZE_MAX).
std::vector<Mutation> file_tag_mutations(std::span<const std::uint8_t> valid);
std::vector<Mutation> challenge_mutations(std::span<const std::uint8_t> valid);
std::vector<Mutation> secret_key_mutations(std::span<const std::uint8_t> valid);
/// Guaranteed-invalid aggregate-settlement encodings: truncation/extension,
/// rounds = 0, the 64-bit rounds count probes (the field must be bounded
/// against the buffer before it sizes the bitmap), nonzero trailing bitmap
/// bits (canonicality) and an off-curve opening.
std::vector<Mutation> aggregate_settlement_mutations(
    std::span<const std::uint8_t> valid);

/// `count` seeded single-byte flips of `valid` (must_reject = false).
std::vector<Mutation> random_flips(std::span<const std::uint8_t> valid,
                                   std::uint64_t seed, std::size_t count);

}  // namespace dsaudit::attack::corpus
