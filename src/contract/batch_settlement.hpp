// Block-level deferred settlement: the engine that turns per-round
// verification cost into per-block (and, with a settlement window, per-
// multi-block) cost.
//
// Contracts in deferred mode hand their due rounds here from their prepare
// stages (which the Blockchain runs concurrently across contracts); the
// settlement sorts the batch canonically, derives a fresh Fiat–Shamir weight
// seed from the batch transcript, and verifies the whole set as one weighted
// multi-pairing (audit::verify_settlement — 1 + 2·keys pairings, bisection
// isolating any culprits) in a Blockchain barrier, between the prepares and
// the actions of the instant. Each contract's action then redeems its ticket
// sequentially in schedule order, so ledger, gas and event ordering are
// identical to inline settlement at every thread count.
//
// With a settlement window configured on the chain
// (ChainConfig::settlement_window_s > 1), the batch stays open across chain
// instants: rounds due anywhere inside the window keep enqueueing, and the
// flush fires once at the window boundary under a single Fiat–Shamir seed
// covering every round of the window (the boundary timestamp is folded into
// the seed preimage, and the replay registry records the per-window seed).
// Whatever the window, the enqueue that opens it registers one barrier at
// its boundary (Blockchain::defer_until_actions) — the only caller of the
// flush. Contracts redeem their tickets at the boundary (Ticket::settle_at
// tells them when). Window <= 1 makes every boundary the due instant itself.
//
// Aggregate tx mode (enable_aggregate_tx): each flush additionally posts ONE
// constant-size settlement tx on chain — the window's Fiat–Shamir weight
// seed, the aggregated KZG opening (sum_i [w_i zeta_i] psi_i, a single G1
// element covering every Eq.1/Eq.2 round of the window) and a per-round
// outcome bitmap plus the seed-derivation nonce that lets any verifier
// re-derive the seed from the round transcripts
// (audit::AggregateSettlement, 88 + ceil(rounds/8) bytes).
// Clean windows redeem every ticket against that tx: Outcome::aggregated
// tells the contract to post NO per-round prove tx and charge NO per-round
// gas. A window containing a detected cheater sets Outcome::fallback — the
// bisection evidence must land on chain, so every round of that window
// re-posts its individual proof exactly as in legacy mode. Disabled
// (default), nothing changes: ledger, chain bytes and gas stay bit-identical
// to per-round settlement.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "audit/protocol.hpp"
#include "chain/blockchain.hpp"
#include "primitives/random.hpp"

namespace dsaudit::contract {

class BatchSettlement {
 public:
  /// Handed out by enqueue, redeemed by the matching action.
  struct Ticket {
    std::uint64_t batch = 0;
    std::size_t index = 0;  // enqueue position within the batch
    /// The window boundary this round settles at (== the enqueue instant
    /// when windows are disabled): the window's barrier flushes there, and
    /// the contract redeems the ticket there — inline when that is the
    /// enqueue instant, from a scheduled action otherwise.
    chain::Timestamp settle_at = 0;
  };

  struct Outcome {
    bool ok = false;
    std::size_t batch_size = 0;  // rounds settled together with this one
    double flush_ms = 0;         // wall clock of the whole batch (telemetry)
    /// This round settled under an aggregate window tx: redeem against it
    /// (no per-round prove tx, no per-round gas) unless `fallback` is set.
    bool aggregated = false;
    /// The window contained a detected cheater: the bisection evidence goes
    /// on chain, so every round of the window re-posts its individual proof.
    bool fallback = false;
  };

  struct Stats {
    std::uint64_t batches = 0;        // flushes performed (== windows settled)
    std::uint64_t rounds = 0;         // instances settled
    std::uint64_t instants = 0;       // distinct chain instants that enqueued
    std::uint64_t batch_checks = 0;   // direct weighted checks (incl. bisection)
    std::uint64_t derived_checks = 0; // bisection halves derived, not checked
    std::uint64_t single_checks = 0;  // one-round ranges, at unit weight
    std::uint64_t culprits = 0;       // rounds isolated as failing
    // Aggregate-tx telemetry (zero unless enable_aggregate_tx).
    std::uint64_t aggregate_txs = 0;       // window txs posted
    std::uint64_t aggregate_tx_bytes = 0;  // their summed payload bytes
    std::uint64_t aggregate_tx_gas = 0;    // their summed gas
    std::uint64_t fallback_windows = 0;    // windows that re-posted per-round
  };

  /// `seed_nonce` keys the per-batch nonce stream (NetworkSim passes its
  /// network seed so runs stay reproducible).
  explicit BatchSettlement(std::uint64_t seed_nonce = 0);

  /// Turn on aggregate window txs (see the header comment). Must be called
  /// before the first enqueue; the tx is submitted to the chain the rounds
  /// were enqueued against, priced by the calibrated aggregate rows of
  /// econ::AuditCostModel.
  void enable_aggregate_tx();

  /// The most recently posted aggregate window tx (nullopt before the first
  /// aggregate flush): what the on-chain verifier and the adversarial tests
  /// check with audit::verify_settlement_aggregate / attack the seed of.
  std::optional<audit::AggregateSettlement> last_aggregate() const;

  /// The canonical (transcript-sorted) round transcripts of the most
  /// recently flushed window — exactly the sequence the window's weight
  /// seed hashed over, so an external verifier can re-derive the posted
  /// tx's seed with audit::derive_settlement_seed.
  std::vector<std::array<std::uint8_t, 32>> last_transcripts() const;

  /// Register one settlement-ready round. Thread-safe — called from
  /// concurrent prepare stages. `transcript` must commit the round's
  /// identity, challenge and proof bytes: it orders the batch canonically
  /// (so results are independent of arrival order) and feeds the
  /// Fiat–Shamir weight seed. The enqueue that opens a window registers the
  /// chain barrier at the window boundary that flushes it. The instance
  /// borrows its verifier/file contexts — the owning contract keeps them
  /// alive. Every round of an engine's lifetime must enqueue against the
  /// SAME chain (deferred flushes post to it later); passing a different
  /// one throws std::logic_error.
  Ticket enqueue(chain::Blockchain& chain, audit::SettlementInstance instance,
                 const std::array<std::uint8_t, 32>& transcript);

  /// Redeem a ticket of a flushed window — from Ticket::settle_at's actions
  /// on, since the window's barrier runs before them. Throws
  /// std::logic_error for a ticket of a window still open, and for one that
  /// references a flushed batch it was never part of.
  Outcome outcome(const Ticket& ticket);

  /// Weight-seed freshness registry: records `seed` as consumed, returns
  /// false if it was already used. flush() refuses to settle a batch whose
  /// derived seed replays (an adversary who saw a weight schedule could
  /// craft cancelling forgeries against it); with the per-batch nonce this
  /// never triggers in normal operation. Thread-safe like enqueue/outcome.
  bool consume_weight_seed(const std::array<std::uint8_t, 32>& seed);

  /// The Fiat–Shamir seed of the most recent flush (nullopt before the
  /// first): each settled window's seed sits in the replay registry, so a
  /// replay of it is refused — the adversarial tests pin this.
  std::optional<std::array<std::uint8_t, 32>> last_weight_seed() const;

  Stats stats() const;

 private:
  /// Settles the open batch; called only by the window's barrier, with
  /// `lock` held. The heavy verification itself runs with the lock RELEASED
  /// (the engine mutex must never be held across the thread pool's submit
  /// lock — enqueue runs on pool workers under it, and holding both in
  /// opposite orders is a lock inversion). Snapshot-out, verify, store-back.
  void flush(std::unique_lock<std::mutex>& lock);
  bool consume_weight_seed_locked(const std::array<std::uint8_t, 32>& seed);

  mutable std::mutex mutex_;
  std::condition_variable flush_cv_;
  bool flush_in_progress_ = false;
  std::uint64_t flushing_batch_ = 0;
  primitives::SecureRng nonce_rng_;
  std::uint64_t current_batch_ = 0;
  chain::Timestamp window_deadline_ = 0;  // boundary of the open window
  chain::Timestamp last_instant_ = 0;
  bool any_instant_ = false;
  bool aggregate_ = false;
  /// The chain the rounds were enqueued against — the one the window
  /// barriers run on and the flush posts the window tx to. All contracts of
  /// one engine share one chain.
  chain::Blockchain* chain_ptr_ = nullptr;
  std::optional<audit::AggregateSettlement> last_aggregate_;
  std::vector<std::array<std::uint8_t, 32>> last_transcripts_;
  std::vector<audit::SettlementInstance> pending_;
  std::vector<std::array<std::uint8_t, 32>> transcripts_;
  struct BatchResult {
    std::vector<bool> ok;
    double flush_ms = 0;
    bool aggregated = false;
    bool fallback = false;
  };
  std::map<std::uint64_t, BatchResult> results_;
  std::set<std::array<std::uint8_t, 32>> used_seeds_;
  std::optional<std::array<std::uint8_t, 32>> last_seed_;
  Stats stats_;
};

}  // namespace dsaudit::contract
