// §VII cost and scalability models: per-audit USD, one-time pk storage,
// annual fees (Fig. 6), blockchain throughput/user-base ceilings and chain
// growth (Fig. 10), provider-side aggregate proving load.
#pragma once

#include <cstdint>

#include "chain/gas.hpp"

namespace dsaudit::econ {

/// The paper's §VII operating point, shared by AuditCostModel (gas pricing)
/// and ThroughputModel (chain-growth modeling) so the two can never
/// desynchronize. cost_model.cpp static_asserts pin these to the real wire
/// structs (audit::ProofPrivate::kWireSize, the 48-byte beacon output) —
/// a proof-shape change breaks the build here instead of silently skewing
/// one model.
inline constexpr std::size_t kDefaultProofBytes = 288;      // ProofPrivate
inline constexpr std::size_t kDefaultChallengeBytes = 48;   // beacon bytes
inline constexpr std::size_t kDefaultAuditTxBytes =
    kDefaultProofBytes + kDefaultChallengeBytes;

/// Everything needed to price one audit round on chain.
struct AuditCostModel {
  chain::GasSchedule gas = chain::GasSchedule::calibrated();
  chain::PriceModel price;
  std::size_t proof_bytes = kDefaultProofBytes;      // 96 without privacy
  std::size_t challenge_bytes = kDefaultChallengeBytes;  // C1, C2, r
  double verify_ms = 7.2;             // measured on-chain verification time
  /// Split of verify_ms for the batched-settlement discount row: the
  /// per-round aggregation work (challenge expansion, chi, weighting) every
  /// round pays, and the pairing + final-exponentiation work a whole batch
  /// shares. Calibrated so prep + pair == verify_ms: a batch of one prices
  /// exactly like the unbatched anchor (589,000 gas at 288 bytes).
  double verify_prep_ms = 1.8;
  double verify_pair_ms = 5.4;
  /// Aggregate-settlement calibration: the on-chain check of one aggregate
  /// window tx re-derives the weight schedule from the posted seed and runs
  /// the window's single weighted pairing equation — per-round prep
  /// (challenge expansion, chi MSM, weighting) plus one shared pairing +
  /// final-exponentiation tail. Unlike the verify_prep/pair split above
  /// (kept at its historical PR-4 values for gas bit-compatibility), these
  /// are calibrated against the CURRENT measured engine
  /// (BENCH_settlement.json window sweep: 0.5 + 2.0/64 ≈ 0.531 ms/round at
  /// the 64-round window).
  double aggregate_prep_ms = 0.5;
  double aggregate_pair_ms = 2.0;
  double beacon_usd_per_round = 0.01; // §VII-B randomness cost (0.01-0.05)

  std::uint64_t gas_per_audit() const {
    return gas.audit_tx_gas(proof_bytes, challenge_bytes, verify_ms);
  }
  double usd_per_audit() const {
    return price.usd(gas_per_audit()) + beacon_usd_per_round;
  }

  /// Calibrated per-round verification time when `batch_size` rounds settle
  /// in one combined check: prep stays per-round, the 3 pairings amortize.
  double batched_verify_ms(std::size_t batch_size) const;
  /// The batched-settlement gas row: deterministic in batch_size alone.
  std::uint64_t gas_per_audit_batched(std::size_t batch_size) const;

  /// Aggregate-settlement rows: one constant-size tx per window (seed +
  /// aggregated KZG opening + outcome bitmap) replaces every per-round
  /// prove tx. Bytes come from the real wire encoding
  /// (audit::AggregateSettlement::serialized_size_for — 88 + ceil(rounds/8))
  /// so the model can never drift from the serializer.
  std::size_t aggregate_tx_bytes(std::size_t rounds) const;
  double aggregate_verify_ms(std::size_t rounds) const;
  /// Gas of the whole window tx: base + calldata over the aggregate
  /// encoding + the aggregate check's verification gas.
  std::uint64_t gas_per_window_tx(std::size_t rounds) const;
  /// Per-audited-round share of the window tx — the row BENCH_settlement
  /// commits next to the legacy 589,000-gas anchor.
  std::uint64_t gas_per_audit_aggregated(std::size_t rounds) const;

  /// Repair row (fault engine): re-deploying one lost shard puts the
  /// replacement shard's fresh tag set plus a placement record (new
  /// provider, file name — 40 bytes) on chain, mirroring the `negotiated`
  /// storage tx of the original deployment. Deterministic in tag_bytes
  /// alone, like every other settlement figure.
  std::uint64_t repair_gas(std::size_t tag_bytes) const;
};

/// The §VII-B calibrated model every settlement path prices with: a
/// compile-time constant, so no caller builds or guards its own copy.
inline constexpr AuditCostModel kCostModel{};

/// Fig. 6: total auditing fees over a contract, with a tunable frequency and
/// the §III-A redundancy remark (auditing cost scales linearly with the
/// number of providers holding shards).
double contract_fee_usd(const AuditCostModel& model, unsigned duration_days,
                        double audits_per_day, unsigned num_providers = 1);

/// One-time on-chain public-key storage cost (Fig. 4 sizes + SSTORE gas).
struct PkStorageCost {
  std::size_t bytes = 0;
  std::uint64_t gas = 0;
  double usd = 0;
};
PkStorageCost pk_storage_cost(std::size_t s, bool with_privacy,
                              const AuditCostModel& model);

/// §VII-D throughput: a dedicated audit chain with fixed block size/interval.
struct ThroughputModel {
  std::size_t block_bytes = 18 * 1024;  // average Ethereum block, per paper
  double block_interval_s = 15.0;
  std::size_t block_overhead_bytes = 500;
  std::size_t tx_overhead_bytes = 110;
  /// Per-round audit footprint (proof + challenge reference) — the same
  /// operating point AuditCostModel prices, via the shared constants above.
  std::size_t audit_tx_bytes = kDefaultAuditTxBytes;

  double tx_per_second() const;
  /// Max concurrently-active users given per-user audit cadence and shard
  /// redundancy (each user audits `num_providers` providers).
  std::size_t max_users(double audits_per_user_per_day,
                        unsigned num_providers = 1) const;
  /// Fig. 10 (left): chain growth for a user base, GB/year.
  double chain_growth_gb_per_year(std::size_t users, double audits_per_user_per_day,
                                  unsigned num_providers = 1) const;
};

/// Fig. 10 (right): total proving time per audit round for a provider
/// holding data of `users_on_provider` distinct owners (proofs cannot be
/// merged across owners' keys, so the work is linear — the paper's
/// regression assumption).
double provider_prove_time_s(std::size_t users_on_provider, double per_proof_ms);

}  // namespace dsaudit::econ
