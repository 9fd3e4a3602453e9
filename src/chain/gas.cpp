#include "chain/gas.hpp"

namespace dsaudit::chain {

std::uint64_t GasSchedule::calldata_gas(std::span<const std::uint8_t> payload) const {
  std::uint64_t gas = 0;
  for (auto b : payload) {
    gas += b == 0 ? calldata_zero_byte : calldata_nonzero_byte;
  }
  return gas;
}

std::uint64_t GasSchedule::audit_tx_gas(std::size_t proof_bytes,
                                        std::size_t challenge_bytes,
                                        double verify_ms) const {
  return tx_base + calldata_gas(proof_bytes + challenge_bytes) +
         static_cast<std::uint64_t>(verify_gas_per_ms * verify_ms);
}

}  // namespace dsaudit::chain
