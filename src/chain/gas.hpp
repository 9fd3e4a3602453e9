// Ethereum-calibrated gas and pricing model (§VII-B).
//
// The paper cannot run pairing crypto natively in Solidity; it deploys a
// custom precompile and *extrapolates* gas from measured verification time
// against a Ropsten ZK-SNARK verification transaction (Fig. 5). We implement
// the same extrapolation:
//
//   gas(tx) = base + calldata + verify_gas_per_ms * verification_ms
//
// with the per-ms coefficient anchored so that the paper's operating point
// (288-byte proof, 7.2 ms verification) costs the paper's reported 589,000
// gas. Price conversion uses the paper's footnote constants (5 Gwei,
// 143 USD/ETH, April 2020).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

namespace dsaudit::chain {

struct GasSchedule {
  std::uint64_t tx_base = 21000;
  std::uint64_t calldata_nonzero_byte = 16;  // EIP-2028 (Istanbul, pre-paper)
  std::uint64_t calldata_zero_byte = 4;
  std::uint64_t storage_word = 20000;  // SSTORE of a fresh 32-byte word
  std::uint64_t log_byte = 8;
  /// Extrapolation coefficient; see calibrated().
  double verify_gas_per_ms = 0.0;

  /// Solve verify_gas_per_ms so that a proof of `anchor_proof_bytes` (all
  /// nonzero) + `anchor_challenge_bytes` calldata verified in `anchor_ms`
  /// costs exactly `anchor_gas`. Defaults are the paper's §VII-B numbers.
  /// constexpr, so the default schedule is a compile-time constant.
  static constexpr GasSchedule calibrated(
      std::uint64_t anchor_gas = 589000, double anchor_ms = 7.2,
      std::size_t anchor_proof_bytes = 288,
      std::size_t anchor_challenge_bytes = 48) {
    GasSchedule g;
    const std::uint64_t fixed =
        g.tx_base +
        g.calldata_gas(anchor_proof_bytes + anchor_challenge_bytes);
    if (anchor_gas <= fixed || anchor_ms <= 0) {
      throw std::invalid_argument(
          "GasSchedule::calibrated: anchor below fixed costs");
    }
    g.verify_gas_per_ms = static_cast<double>(anchor_gas - fixed) / anchor_ms;
    return g;
  }

  std::uint64_t calldata_gas(std::span<const std::uint8_t> payload) const;
  /// Gas for a payload assumed fully non-zero (upper bound used in models).
  constexpr std::uint64_t calldata_gas(std::size_t nonzero_bytes) const {
    return nonzero_bytes * calldata_nonzero_byte;
  }
  /// Full audit-response transaction: calldata + on-chain verification.
  std::uint64_t audit_tx_gas(std::size_t proof_bytes, std::size_t challenge_bytes,
                             double verify_ms) const;
};

struct PriceModel {
  double gwei_per_gas = 5.0;   // paper footnote 1
  double usd_per_eth = 143.0;  // paper footnote 1

  double eth(std::uint64_t gas) const { return gas * gwei_per_gas * 1e-9; }
  double usd(std::uint64_t gas) const { return eth(gas) * usd_per_eth; }
};

}  // namespace dsaudit::chain
