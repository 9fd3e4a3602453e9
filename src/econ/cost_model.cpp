#include "econ/cost_model.hpp"

#include <stdexcept>
#include <tuple>

#include "audit/types.hpp"
#include "chain/beacon.hpp"

namespace dsaudit::econ {

// One source of truth: the model's shared operating-point constants are the
// real wire sizes. A proof-shape or beacon change fails HERE, loudly,
// instead of desynchronizing gas pricing from chain-growth modeling.
static_assert(kDefaultProofBytes == audit::ProofPrivate::kWireSize);
static_assert(kDefaultChallengeBytes ==
              std::tuple_size_v<chain::BeaconOutput>);

double AuditCostModel::batched_verify_ms(std::size_t batch_size) const {
  if (batch_size == 0) {
    throw std::invalid_argument("batched_verify_ms: empty batch");
  }
  return verify_prep_ms + verify_pair_ms / static_cast<double>(batch_size);
}

std::uint64_t AuditCostModel::gas_per_audit_batched(std::size_t batch_size) const {
  return gas.audit_tx_gas(proof_bytes, challenge_bytes,
                          batched_verify_ms(batch_size));
}

std::size_t AuditCostModel::aggregate_tx_bytes(std::size_t rounds) const {
  if (rounds == 0) {
    throw std::invalid_argument("aggregate_tx_bytes: empty window");
  }
  return audit::AggregateSettlement::serialized_size_for(rounds);
}

double AuditCostModel::aggregate_verify_ms(std::size_t rounds) const {
  if (rounds == 0) {
    throw std::invalid_argument("aggregate_verify_ms: empty window");
  }
  return aggregate_prep_ms * static_cast<double>(rounds) + aggregate_pair_ms;
}

std::uint64_t AuditCostModel::gas_per_window_tx(std::size_t rounds) const {
  return gas.tx_base + gas.calldata_gas(aggregate_tx_bytes(rounds)) +
         static_cast<std::uint64_t>(gas.verify_gas_per_ms *
                                    aggregate_verify_ms(rounds));
}

std::uint64_t AuditCostModel::gas_per_audit_aggregated(
    std::size_t rounds) const {
  // Integer per-round share; the window tx's total is the exact figure.
  return gas_per_window_tx(rounds) / rounds;
}

std::uint64_t AuditCostModel::repair_gas(std::size_t tag_bytes) const {
  // Placement record: new provider address (20) + file name (16) + shard
  // index (4). The tag set and the record both land in contract storage so
  // future audits can run against the replacement shard.
  const std::size_t record_bytes = tag_bytes + 40;
  return gas.tx_base + gas.calldata_gas(record_bytes) +
         gas.storage_word * ((record_bytes + 31) / 32);
}

double contract_fee_usd(const AuditCostModel& model, unsigned duration_days,
                        double audits_per_day, unsigned num_providers) {
  if (audits_per_day <= 0 || num_providers == 0) {
    throw std::invalid_argument("contract_fee_usd: bad frequency/providers");
  }
  double audits = duration_days * audits_per_day * num_providers;
  return audits * model.usd_per_audit();
}

PkStorageCost pk_storage_cost(std::size_t s, bool with_privacy,
                              const AuditCostModel& model) {
  PkStorageCost c;
  c.bytes = audit::PublicKey::serialized_size_for(s, with_privacy);
  c.gas = model.gas.tx_base + model.gas.calldata_gas(c.bytes) +
          model.gas.storage_word * ((c.bytes + 31) / 32);
  c.usd = model.price.usd(c.gas);
  return c;
}

double ThroughputModel::tx_per_second() const {
  double usable = static_cast<double>(block_bytes - block_overhead_bytes);
  double per_tx = static_cast<double>(audit_tx_bytes + tx_overhead_bytes);
  return usable / per_tx / block_interval_s;
}

std::size_t ThroughputModel::max_users(double audits_per_user_per_day,
                                       unsigned num_providers) const {
  if (audits_per_user_per_day <= 0 || num_providers == 0) {
    throw std::invalid_argument("ThroughputModel::max_users: bad parameters");
  }
  double tx_per_day = tx_per_second() * 86400.0;
  return static_cast<std::size_t>(tx_per_day /
                                  (audits_per_user_per_day * num_providers));
}

double ThroughputModel::chain_growth_gb_per_year(
    std::size_t users, double audits_per_user_per_day,
    unsigned num_providers) const {
  double tx_per_year = users * audits_per_user_per_day * num_providers * 365.0;
  double bytes = tx_per_year * (audit_tx_bytes + tx_overhead_bytes);
  // Plus block overhead amortized over the blocks those txs occupy.
  double txs_per_block = static_cast<double>(block_bytes - block_overhead_bytes) /
                         (audit_tx_bytes + tx_overhead_bytes);
  bytes += tx_per_year / txs_per_block * block_overhead_bytes;
  return bytes / (1024.0 * 1024.0 * 1024.0);
}

double provider_prove_time_s(std::size_t users_on_provider, double per_proof_ms) {
  return users_on_provider * per_proof_ms / 1000.0;
}

}  // namespace dsaudit::econ
