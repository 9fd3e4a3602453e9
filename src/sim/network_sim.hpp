// Whole-network simulation: the decentralized storage network of §III-A with
// many data owners and providers, DHT-based shard placement, one Fig. 2
// contract per (owner, provider) pair, and a shared blockchain + beacon.
//
// This is the harness behind the system-wide results (§VII-D / Fig. 10):
// tests and examples use it to measure chain growth, audit pass rates,
// escrow conservation and provider-side proving load at population scale.
//
// Misbehaviour has one model: faults plus adversaries.
//   - set_fault_schedule installs the deterministic fault engine
//     (src/sim/fault.hpp): timed crash / offline / shard-loss / proof-fault /
//     early-exit events whose consequences flow through slashing, timeout
//     retries and Reed–Solomon repair onto Chord successors.
//   - set_adversary runs a Byzantine strategy (src/attack/adversary.hpp) in
//     place of a provider's honest responder.
// The pre-fault-engine per-provider behaviours map onto these exactly (same
// passes/fails/timeouts, gas, chain bytes and ledger):
//
//   retired behaviour   replacement
//   DropsData           attack::ColludingStrategy(seed, 1000) — holds every
//                       chunk but chunk 0, sends a CorruptProof every round
//   Unresponsive        attack::PartialStorageStrategy(seed, 0, false) —
//                       holds nothing, stays silent on every challenge
//   (data loss)         FaultKind::ShardLoss — zeroes the held shard, which
//                       the repair path then re-deploys or declares lost
//
// Memory model (NetworkConfig::retention):
//
//   chain::Retention::Full      (default) — owner data, each deployment's
//     held EncodedFile, prepared Provers and per-file verifier contexts,
//     per-contract round history, the full tx / block vectors. Shards are
//     never stored: they are re-encoded from the owner data when needed
//     (deploy, repair, recoverability checks). The oracle mode for every
//     exact-constant test.
//
//   chain::Retention::Streaming — O(1) memory per user/round. Owner data is
//     regenerated on demand from per-owner deterministic seeds (the same Fr
//     values flow through tagging and proving; the bytes are never stored),
//     provers are built transiently per challenge, contracts keep bounded
//     round rings, the chain folds history into rolling aggregates, and
//     stats()/check_invariants() serve from incrementally maintained
//     counters. Everything observable that both modes define — NetworkStats,
//     ledger balances, chain bytes/gas/digest, fault counters — is identical
//     between the two, because every byte/gas figure derives from sizes and
//     every outcome from behavior, never from the (different) data bytes.
//
// The responder: every contract answers its challenges through respond(),
// one path for honest and adversarial providers in both retention modes.
// A fault gap answers nothing; otherwise the strategy (Honest without one)
// picks the action, the retained prepared prover answers when there is one
// and the action is not CorruptProof, and a transient prover over the
// regenerated held chunks (unheld chunks zeroed for CorruptProof) answers
// otherwise. Proofs are exact group elements and private proofs draw their
// masking randomness from the deployment's own RNG, so which prover answers
// never changes a byte.
//
// Key layout: one prepared Verifier and one audit::ProverKey per key (per
// owner, or per pool slot with key_pool; never more keys than owners).
// Every contract of the key borrows the Verifier; every prover of it —
// retained or transient — shares the ProverKey's psi tables.
//
// Hot per-deployment lifecycle state (provider index, shard/corruption
// flags, next-due instant, settled-round count) lives in struct-of-arrays
// vectors iterated cache-linearly by the fault and repair scans.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "contract/audit_contract.hpp"
#include "sim/fault.hpp"
#include "storage/dht.hpp"
#include "storage/erasure.hpp"

namespace dsaudit::sim {

struct NetworkConfig {
  std::size_t num_owners = 10;
  std::size_t num_providers = 5;
  std::size_t file_bytes = 4096;       // per owner
  std::size_t s = 10;                  // blocks per chunk
  std::size_t erasure_data = 3;        // k-of-n shard coding; n = shards per
  std::size_t erasure_parity = 0;      //   owner = erasure_data + parity
  std::uint64_t num_audits = 5;        // rounds per contract
  chain::Timestamp audit_period_s = 3600;
  chain::Timestamp response_window_s = 600;
  std::uint64_t reward_per_audit = 10;
  std::uint64_t penalty_per_fail = 25;
  std::size_t challenged_chunks = 8;
  bool private_proofs = true;
  /// Settle every round due at one chain instant as a single batch
  /// (contract::BatchSettlement): same outcomes, ledger and chain state as
  /// inline settlement, block-level verification cost.
  bool batched_settlement = false;
  /// With batched settlement: price prove-txs by the calibrated batch
  /// discount row instead of the flat per-round gas constant.
  bool batch_gas_discount = false;
  /// With batched settlement: widen each settlement batch across a window
  /// of chain instants (seconds; rounds due inside one window settle
  /// together at its boundary, under one Fiat–Shamir seed). 0 or 1 keeps
  /// the per-instant behavior, bit-identically.
  chain::Timestamp settlement_window_s = 0;
  /// With batched settlement: post ONE aggregate settlement tx per window
  /// (Fiat–Shamir seed + aggregated KZG opening + outcome bitmap —
  /// audit::AggregateSettlement) and redeem every clean round against it
  /// instead of posting a per-round prove tx; a window containing a
  /// detected cheater falls back to individual proofs. Off (default):
  /// chain bytes/gas/ledger bit-identical to per-round settlement.
  bool aggregate_settlement = false;
  /// Fault-engine contract knobs, forwarded into every ContractTerms
  /// (0 = off, preserving the original miss-once / run-to-expiry lifecycle).
  std::uint32_t timeout_retry_limit = 0;
  std::uint32_t slash_after_consecutive = 0;
  /// Ceiling on shard re-deployments across the whole run; once reached,
  /// a further irrecoverable shard is declared lost instead of repaired.
  std::size_t max_repairs = 16;
  std::uint64_t rng_seed = 1;
  /// History/memory mode — see the header comment. Streaming bounds memory
  /// for 10^5–10^6-owner runs; Full (default) keeps the historical,
  /// fully-materialized behavior.
  chain::Retention retention = chain::Retention::Full;
  /// 0 (default): one keypair, and one shared prepared Verifier, per owner.
  /// N >= 1: owners share a pool of N keypairs (owner o uses key o % N) and
  /// every contract borrows one of N prepared Verifiers. The verifier tables
  /// are what dominate memory at 10^5+ owners; a pool makes that cost O(N)
  /// instead of O(owners) while keeping per-owner RNG streams and all
  /// observable statistics unchanged.
  std::size_t key_pool = 0;
  /// Contract-value tiers for the selective-responder adversary: 0 (default)
  /// keeps uniform terms; N >= 1 gives owners with o % N == 0 "premium"
  /// contracts at twice the reward AND penalty (funding scales to match).
  /// Zero preserves every pinned ledger constant bit-identically.
  std::size_t premium_owner_stride = 0;
};

/// The per-stream RNG seeds are rng_seed ^ (step * (index + 1)), with one
/// odd step per kind of stream: each deployment's prover (its private
/// proofs' masking randomness), each key slot's keygen, and each repair's
/// replacement prover. Odd steps make every family injective mod 2^64, and
/// XOR with one shared seed keeps distinct offsets distinct, so no seed can
/// make two streams coincide; test_sim checks that the three families are
/// pairwise distinct at the sizes the simulator is run at.
inline constexpr std::uint64_t kDeploymentStreamStep = 0x9E3779B97F4A7C15ULL;
inline constexpr std::uint64_t kKeyStreamStep = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kRepairStreamStep = 0xD1B54A32D192ED03ULL;
constexpr std::uint64_t stream_offset(std::uint64_t step, std::uint64_t index) {
  return step * (index + 1);
}

struct Placement {
  std::size_t owner = 0;
  std::size_t shard = 0;
  std::string provider;
};

struct NetworkStats {
  std::uint64_t total_rounds = 0;
  std::uint64_t passes = 0;
  std::uint64_t fails = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t total_gas = 0;  // audit rounds only (the §VII-B figures)
  std::size_t chain_bytes = 0;
  double total_usd = 0;
  /// Aggregate-settlement telemetry (zero unless aggregate_settlement):
  /// settle-window txs posted, their summed payload bytes and gas, and how
  /// many windows fell back to per-round proofs because of a detected
  /// cheater. Window-tx gas is accounted here, NOT in total_gas (which
  /// stays "per-round audit txs only").
  std::uint64_t aggregate_txs = 0;
  std::uint64_t aggregate_tx_bytes = 0;
  std::uint64_t aggregate_tx_gas = 0;
  std::uint64_t fallback_windows = 0;
  // Fault-engine churn/repair telemetry (all zero without a fault schedule).
  std::uint64_t crashes = 0;
  std::uint64_t offline_events = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t shard_losses = 0;
  std::uint64_t slashes = 0;          // contracts closed CloseReason::Slashed
  std::uint64_t provider_exits = 0;   // contracts closed CloseReason::ProviderExit
  std::uint64_t timeout_retries = 0;  // requeued rounds across all contracts
  std::uint64_t repairs = 0;          // shards re-deployed
  std::uint64_t bytes_repaired = 0;
  std::uint64_t data_loss_events = 0; // owners whose data was declared lost
  std::uint64_t repair_gas = 0;       // repair txs (separate from total_gas)
  // Byzantine-adversary telemetry (all zero without set_adversary). An
  // "attack" is one settled round whose strategy action was not Honest;
  // it is "detected" when the round did not Pass (the proof failed, was
  // refused at the decode boundary, or never came).
  std::uint64_t attacks_attempted = 0;
  std::uint64_t attacks_detected = 0;
  std::uint64_t attacks_slashed = 0;   // adversarial contracts closed Slashed
  /// Weight-seed replays attempted against the BatchSettlement registry by
  /// seed-grinding adversaries, and how many the registry let through
  /// (check_invariants requires accepted == 0, always).
  std::uint64_t seed_replays_attempted = 0;
  std::uint64_t seed_replays_accepted = 0;
  /// Net ledger delta of all adversarial providers' audit activity:
  /// + reward per passed round, - penalty per failed/timed-out round,
  /// - forfeited collateral at a slash, - the exit fee at a provider exit.
  std::int64_t attacker_profit = 0;
};

class NetworkSim {
 public:
  explicit NetworkSim(NetworkConfig config);

  /// Install a fault schedule before deploy(). Events are applied as
  /// sequential chain actions at their timestamps; availability is served
  /// from an immutable FaultView so concurrently-running prepare stages
  /// never observe a mutation — results are bit-identical at every
  /// DSAUDIT_THREADS setting.
  void set_fault_schedule(FaultSchedule schedule);

  /// Run `strategy` on every contract this provider serves, instead of the
  /// honest responder (before deploy). Strategies are immutable and shared:
  /// decide() is pure, so concurrent prepare stages, the sequential
  /// classification in on_round and the stats_by_walk() oracle all see the
  /// same action for the same challenge. Composes with set_fault_schedule —
  /// a fault gap silences the adversary like anyone else.
  void set_adversary(std::size_t provider,
                     std::shared_ptr<const attack::AdversaryStrategy> strategy);
  /// Install a whole roster (index = provider; null entries stay honest).
  void set_adversaries(const attack::AdversaryRoster& roster);

  /// Encode, tag and place every owner's shards; open and fund contracts.
  void deploy();

  /// Run the full contract horizon on the simulated chain. Fault runs open
  /// repair contracts mid-flight; the horizon extends (in bounded epochs)
  /// until every contract — original and repair — reaches Closed. Throws
  /// std::logic_error naming the stuck contracts if the extension budget
  /// runs out with contracts still open.
  void run_to_completion();

  // --- results --------------------------------------------------------------
  /// O(1): served from aggregates maintained as each round settles (and the
  /// chain/churn counters) — no history walk at any population.
  NetworkStats stats() const;
  /// The original post-hoc implementation — walks every contract's retained
  /// round records. Kept as the differential oracle for stats(); requires
  /// full retention (throws under streaming, where history is trimmed).
  NetworkStats stats_by_walk() const;
  const std::vector<Placement>& placements() const { return placements_; }
  const chain::Blockchain& chain() const { return chain_; }
  std::uint64_t balance(const std::string& who) const { return chain_.balance(who); }
  /// Sum of all balances + escrow — must be invariant (conservation check).
  /// O(1): the ledger's mint-only total supply.
  std::uint64_t total_money() const;
  /// Every contract involving this provider.
  std::vector<const contract::AuditContract*> contracts_of(
      const std::string& provider) const;

  /// The shared block-settlement engine (null unless batched_settlement).
  const contract::BatchSettlement* batch_settlement() const {
    return batch_.get();
  }

  // Deployment introspection for the cross-thread-count differential tests
  // (deploy() shards whole deployments over the pool; keys, tags and the
  // ledger must come out byte-identical at every width).
  /// The keypairs: one per owner, or the key_pool shared pool keys.
  const std::vector<audit::KeyPair>& keys() const { return keys_; }
  std::size_t num_deployments() const { return deployments_.size(); }
  const audit::FileTag& deployment_tag(std::size_t i) const {
    return deployments_.at(i)->tag;
  }

  /// True iff `owner` can still reconstruct its file from live, intact
  /// shards (original or repaired). Trusts the fault engine's books only: a
  /// shard counts unless a fault cleared kShardOk or a repair retired it.
  /// Adversaries keep their shards' flags — what a strategy withholds from
  /// proofs is a soundness matter, not a recoverability one.
  bool owner_can_recover(std::size_t owner) const;

  /// True iff this owner's data was declared lost: fewer than k live shards
  /// at repair time, no eligible replacement provider, or the repair budget
  /// (max_repairs) was exhausted.
  bool data_lost(std::size_t owner) const;

  /// Post-run checker; throws std::logic_error naming the violated
  /// invariant:
  ///   - money conservation (total_money unchanged since deploy), with the
  ///     O(1) ledger supply cross-checked against the account-walk sum,
  ///   - exact escrow accounting (every closed contract holds zero),
  ///   - liveness (every contract Closed; settled counter == rounds
  ///     completed; at most one Aborted round, only via provider exit),
  ///   - under full retention: every aggregate counter re-derived from the
  ///     retained round records and stats() pinned equal to stats_by_walk()
  ///     — the incremental aggregates keep their post-hoc oracle,
  ///   - recoverability-or-declared-loss for every owner,
  ///   - a terminal disposition (repair or declared loss) for every
  ///     fault-invalidated shard,
  ///   - under adversaries: no honest round misattributed (every Fail
  ///     belongs to a cheating action or fault-corrupted data), zero
  ///     accepted weight-seed replays, and the incremental adversary
  ///     counters pinned to their stats_by_walk() re-derivation.
  void check_invariants() const;

 private:
  void fill_shared_stats(NetworkStats& st) const;

  /// Cold per-deployment state: identity, crypto artifacts and the contract.
  /// Hot lifecycle state lives in the struct-of-arrays vectors below.
  struct Deployment {
    Placement placement;
    storage::EncodedFile held;   // full retention: what S actually holds
    audit::FileTag tag;
    audit::Fr name;
    std::size_t num_chunks = 0;  // chunks in this shard's encoded file
    std::unique_ptr<audit::Prover> prover;  // full retention: prepared tables
    // Private-proof masking randomness. Per-deployment (seeded from the
    // network seed + deployment index) so concurrently-prepared audit rounds
    // never share an RNG stream: results stay deterministic at every
    // DSAUDIT_THREADS setting.
    std::unique_ptr<primitives::SecureRng> prover_rng;
    // The per-file verifier context the contract borrows (null under
    // streaming — contracts use the cold verification path).
    std::unique_ptr<audit::PreparedFile> file_ctx;
    std::unique_ptr<contract::AuditContract> contract;  // null iff a repair
                                                        // had no rounds left
  };

  // hot_flags_ bits.
  static constexpr std::uint8_t kShardOk = 1;      // shard data still intact
  static constexpr std::uint8_t kNeedsRepair = 2;  // a fault invalidated it
  static constexpr std::uint8_t kRepairDone = 4;   // terminal disposition
  static constexpr std::uint8_t kRetired = 8;      // superseded by a repair
  // A shard-loss fault zeroed what the provider serves. Full retention
  // zeroes the materialized `held` copy when the fault lands; streaming
  // zeroes the regenerated chunks at prove time. Same Fr values either way.
  static constexpr std::uint8_t kZeroed = 16;

  /// Index into keys_/verifiers_/prover_keys_ serving this owner: its own,
  /// or its pool slot (deploy() builds min(key_pool, num_owners) keys).
  std::size_t key_slot(std::size_t owner) const { return owner % keys_.size(); }
  const audit::KeyPair& key_of(std::size_t owner) const {
    return keys_[key_slot(owner)];
  }
  const std::shared_ptr<const audit::ProverKey>& prover_key_of(
      std::size_t owner) const {
    return prover_keys_[key_slot(owner)];
  }
  /// Owner file bytes: the stored copy under full retention, regenerated
  /// from the owner's deterministic seed under streaming.
  std::vector<std::uint8_t> owner_data_of(std::size_t owner) const;
  /// The owner's erasure-coded shards, encoded from owner_data_of.
  std::vector<std::vector<std::uint8_t>> owner_shards_of(std::size_t owner) const;
  /// Tag `file` (this deployment's shard, encoded) under dep's name and
  /// owner key; under full retention also keep it as dep.held and build the
  /// prepared prover and per-file verifier context. Shared by deploy (in
  /// parallel: it writes only to `dep`) and the repair path.
  void materialize(Deployment& dep, storage::EncodedFile file) const;
  /// What this deployment's provider actually holds, re-encoded from the
  /// owner data with the kZeroed state applied.
  storage::EncodedFile regenerate_held(std::size_t dep_index) const;
  /// The contract-value multiplier of this owner's tier (1, or 2 for
  /// premium owners under premium_owner_stride).
  std::uint64_t tier_multiplier(std::size_t owner) const {
    return (config_.premium_owner_stride != 0 &&
            owner % config_.premium_owner_stride == 0)
               ? 2
               : 1;
  }
  /// The strategy attacking this deployment's provider (null = honest).
  const attack::AdversaryStrategy* adversary_of(std::size_t dep_index) const {
    const std::size_t p = hot_provider_[dep_index];
    return p < adversary_.size() ? adversary_[p].get() : nullptr;
  }
  /// The immutable per-deployment facts decide() sees; also rebuilt by the
  /// stats_by_walk() oracle, so it must derive only from stable state.
  attack::AdversaryContext adversary_context(std::size_t dep_index) const;
  /// The one responder (see the header comment). Runs in the concurrent
  /// prepare phase, so it reads only state that is stable there.
  std::optional<std::vector<std::uint8_t>> respond(
      std::size_t dep_index, const attack::AdversaryContext& ctx,
      const audit::Challenge& chal) const;
  /// Shared by deploy() and the repair path: terms from config (with
  /// `num_audits` rounds), the contract on its owner's shared verifier and
  /// dep.file_ctx, deferred settlement, respond() as the responder, the
  /// on-closed/on-round hooks, then negotiated/acked/freeze. dep.prover_rng
  /// must be set first.
  void install_contract(Deployment& dep, std::size_t dep_index,
                        std::uint64_t num_audits);
  void apply_fault(const FaultEvent& ev, chain::Timestamp now);
  void schedule_repair(std::size_t dep_index);
  void run_repair(std::size_t dep_index, chain::Timestamp now);
  void declare_data_loss(std::size_t owner);
  bool all_contracts_closed() const { return open_contracts_ == 0; }
  /// Append one entry to every hot struct-of-arrays vector.
  void push_hot(std::uint32_t provider_index);
  bool flag(std::size_t i, std::uint8_t bit) const {
    return (hot_flags_[i] & bit) != 0;
  }
  void set_flag(std::size_t i, std::uint8_t bit) { hot_flags_[i] |= bit; }
  void clear_flag(std::size_t i, std::uint8_t bit) {
    hot_flags_[i] &= static_cast<std::uint8_t>(~bit);
  }

  NetworkConfig config_;
  primitives::SecureRng rng_;
  chain::Blockchain chain_;
  std::unique_ptr<chain::TrustedBeacon> beacon_;
  std::unique_ptr<contract::BatchSettlement> batch_;
  storage::ChordRing ring_;
  // One keypair, one prepared Verifier and one ProverKey per key slot (see
  // key_slot and NetworkConfig::key_pool); every contract borrows its slot's
  // verifier and every prover shares its slot's ProverKey.
  std::vector<audit::KeyPair> keys_;
  std::vector<std::unique_ptr<audit::Verifier>> verifiers_;
  std::vector<std::shared_ptr<const audit::ProverKey>> prover_keys_;
  // Full retention only; streaming regenerates via owner_data_of.
  std::vector<std::vector<std::uint8_t>> owner_data_;
  std::vector<Placement> placements_;
  std::vector<std::unique_ptr<Deployment>> deployments_;

  // Hot per-deployment state, struct-of-arrays (indexed like deployments_).
  std::vector<std::uint32_t> hot_provider_;      // provider-N namespace index
  std::vector<std::uint8_t> hot_flags_;          // kShardOk | kNeedsRepair...
  std::vector<chain::Timestamp> hot_next_due_;   // next challenge instant

  // The live counter record: round, churn and adversary counters, folded in
  // as rounds settle (the contracts' on_round / on_closed callbacks) and as
  // faults and repairs run. stats() adds the chain and engine figures.
  NetworkStats live_;
  /// Fail rounds with an Honest action over uncorrupted data — the "no
  /// honest round is ever penalized" invariant counter (spans ALL
  /// deployments, adversarial or not); must stay zero.
  std::uint64_t misattributed_fails_ = 0;
  std::size_t open_contracts_ = 0;

  std::uint64_t initial_money_ = 0;
  bool deployed_ = false;

  // Fault engine.
  FaultSchedule fault_schedule_;
  bool have_faults_ = false;
  FaultView fault_view_;
  std::vector<storage::NodeId> provider_ids_;        // ring ids, by index
  std::map<std::string, std::size_t> provider_index_;
  /// Live deployment serving each (owner, shard) — repair repoints this.
  std::vector<std::vector<std::size_t>> current_dep_;
  std::vector<bool> data_lost_;
  std::size_t repair_seq_ = 0;  // derives each repair's RNG stream

  // Byzantine adversary engine (src/attack). Strategies are shared_ptr so a
  // roster and the sim can co-own them; they are immutable after install.
  std::vector<std::shared_ptr<const attack::AdversaryStrategy>> adversary_;
};

}  // namespace dsaudit::sim
