// The Fig. 2 smart contract: secure storage auditing as a state machine.
//
//   Initialize:  "negotiated" (D,S) -> ACK -> "acked" (S) -> FREEZE ->
//                "freeze" ($D, $S) -> AUDIT, schedule("Chal")
//   Audit loop:  Chal fires  -> randomness beacon -> challenge posted,
//                state PROVE -> "prove"(prf) from S -> schedule("Verify")
//                Verify fires -> V(params, metadata, prf) ? pay S : pay D,
//                cnt++ -> AUDIT (or Closed when cnt == num)
//
// Deviations from the figure are only additions the prose requires: a
// response window with timeout (a silent provider must lose the round), an
// explicit rejection path at ACK (§VI-A's denial-of-service discussion), and
// final settlement of the remaining escrow at expiry.
//
// Verification: V runs through a caller-owned audit::Verifier for the
// public key D records at Initialize — the contract borrows it (and
// optionally a prepared per-file context) rather than building its own, so
// one Verifier serves every contract under a key. Gas is priced from the
// compile-time calibrated econ::kCostModel: deterministic in on-chain data,
// never in this run's wall clock.
//
// Memory model: round outcomes are always folded into O(1) aggregate
// counters (passes/fails/timeouts/aborts/retries/gas) the moment they
// settle. The RoundRecord vector is a retention choice on top of that —
// unbounded by default (terms.retained_rounds == 0, the historical behavior
// every test pins), or a bounded ring of the most recent records for
// population-scale runs where a million contracts must stay O(1) each.
#pragma once

#include <optional>
#include <vector>

#include "audit/protocol.hpp"
#include "chain/beacon.hpp"
#include "chain/blockchain.hpp"
#include "contract/batch_settlement.hpp"

namespace dsaudit::contract {

using audit::Challenge;
using chain::Address;
using chain::Timestamp;

enum class State {
  Uninitialized,  // ⊥
  Ack,            // waiting for S's acknowledgement
  Freeze,         // waiting for both deposits
  Audit,          // between rounds, next challenge scheduled
  Prove,          // challenge posted, waiting for the proof
  Closed,         // contract expired or terminated
};

enum class RoundOutcome {
  Pass,
  Fail,
  Timeout,
  /// The contract terminated (provider exit / slash) while this round was
  /// in flight: the round never settled and moved no money.
  Aborted,
};

/// Why a contract reached State::Closed.
enum class CloseReason {
  None,          // not closed yet
  Expired,       // all num_audits rounds settled (Fig. 2's natural end)
  Rejected,      // S walked away at ACK
  ProviderExit,  // S invoked the early-exit path mid-contract
  Slashed,       // S crossed the consecutive missed-deadline threshold
};

const char* to_string(CloseReason reason);

struct ContractTerms {
  Address owner;
  Address provider;
  std::uint64_t num_audits = 0;        // the figure's `num`
  Timestamp audit_period_s = 86400;    // challenge cadence (daily by default)
  Timestamp response_window_s = 3600;  // prove deadline after a challenge
  std::uint64_t reward_per_audit = 0;  // micro-payment to S per passed round
  std::uint64_t penalty_per_fail = 0;  // compensation to D per failed round
  std::size_t challenged_chunks = 300; // k (§VI-A default: 95% confidence)
  bool private_proofs = true;          // Eq. 2 (288 B) vs Eq. 1 (96 B)
  /// With deferred settlement: price prove-txs by the calibrated batched
  /// row (econ::AuditCostModel::gas_per_audit_batched at the block's actual
  /// batch size) instead of the flat per-round constant. Off by default so
  /// batched and inline settlement stay bit-identical unless the discount
  /// is explicitly priced in.
  bool batch_gas_discount = false;
  /// Requeue-with-bounded-retry: a round whose proof misses the response
  /// window is re-attempted up to this many times — at the next settlement
  /// boundary in windowed mode, one response window later otherwise —
  /// before it finally settles as Timeout with the penalty. 0 (default)
  /// keeps the original miss-once-lose-once behavior bit-identically.
  std::uint32_t timeout_retry_limit = 0;
  /// Missed-deadline slashing: after this many CONSECUTIVE non-passing
  /// rounds (Timeout or Fail, once retries are exhausted) the contract
  /// terminates early and the provider forfeits the entire remaining
  /// escrow — undelivered rewards and collateral — to the owner.
  /// 0 (default) disables slashing, preserving the original lifecycle.
  std::uint32_t slash_after_consecutive = 0;
  /// Round-record retention: 0 (default) keeps every RoundRecord — the
  /// historical behavior rounds() consumers rely on. N >= 1 keeps only the
  /// N most recent records (the in-flight round always survives), bounding
  /// per-contract memory; the aggregate counters stay exact either way.
  std::size_t retained_rounds = 0;
  /// Same policy for the event log (0 = keep everything).
  std::size_t retained_events = 0;
};

struct RoundRecord {
  std::uint64_t round = 0;
  Challenge challenge;
  Timestamp challenged_at = 0;
  std::optional<Timestamp> proved_at;
  std::size_t proof_bytes = 0;
  /// Measured wall-clock of this round's verification. Telemetry only — gas
  /// settlement uses the calibrated econ::AuditCostModel so that gas_used,
  /// escrow flows and NetworkStats.total_gas are deterministic.
  double verify_ms = 0;
  std::uint64_t gas_used = 0;  // prove-tx gas incl. on-chain verification
  RoundOutcome outcome = RoundOutcome::Timeout;
  std::uint32_t retries = 0;   // timeout re-attempts consumed by this round
};

struct ContractEvent {
  Timestamp at = 0;
  std::string what;  // "negotiated", "acked", "inited", "challenged", ...
};

/// One audit contract between a data owner and a storage provider, driven by
/// the Blockchain's clock/scheduler. The provider participates by installing
/// a responder (typically audit::Prover) via set_responder.
class AuditContract {
 public:
  /// Responder: called when a challenge is posted; returns the serialized
  /// proof, or nullopt to simulate an unresponsive provider.
  using Responder =
      std::function<std::optional<std::vector<std::uint8_t>>(const Challenge&)>;

  /// Borrows a caller-owned prepared Verifier for the public key recorded
  /// at Initialize, and optionally a caller-owned PreparedFile for this
  /// file; both must outlive the contract. Many contracts under one key can
  /// share one Verifier (its G2 line tables dominate the per-contract
  /// footprint otherwise). A non-null `file_ctx` must have been built for
  /// (file_name, num_chunks) — std::logic_error otherwise. A null one
  /// selects the verifier's cold path (chunk hashes recomputed per round
  /// from name/num_chunks): slower per verification, zero per-file retained
  /// state; outcomes and gas are identical.
  AuditContract(chain::Blockchain& chain, chain::RandomnessBeacon& beacon,
                ContractTerms terms, const audit::Verifier& verifier,
                audit::Fr file_name, std::size_t num_chunks,
                const audit::PreparedFile* file_ctx = nullptr);

  // Scheduled callbacks capture `this`: copying or moving would leave them
  // pointing into the source.
  AuditContract(const AuditContract&) = delete;
  AuditContract& operator=(const AuditContract&) = delete;

  // --- Initialize phase (Fig. 2 top) ---------------------------------------
  /// D deploys agreements + params + metadata; pays the one-time storage tx.
  void negotiated();
  /// S acknowledges (accept) or walks away (reject -> Closed).
  void acked(bool accept);
  /// Both parties deposit; locks funds and schedules the first challenge.
  void freeze();

  // --- Audit phase ----------------------------------------------------------
  /// Responder exceptions are contained: a throwing responder is treated as
  /// an unresponsive one (the round times out / retries), so an injected
  /// fault inside a concurrent prepare fails a round, not the process.
  void set_responder(Responder responder) { responder_ = std::move(responder); }

  /// Provider-abort lifecycle: S walks away from a live contract (Audit or
  /// Prove). Escrow release rules: the owner receives every undelivered
  /// reward plus an exit fee of one penalty_per_fail taken from the
  /// provider's remaining collateral; the provider keeps the rest. An
  /// in-flight round is recorded as Aborted (it moves no money). The
  /// contract closes with CloseReason::ProviderExit.
  void provider_exit();

  /// Invoked exactly once when the contract reaches State::Closed, from the
  /// sequential action phase — NetworkSim hangs shard-repair scheduling off
  /// this. Set before the contract can close.
  using ClosedCallback = std::function<void(CloseReason)>;
  void set_on_closed(ClosedCallback cb) { on_closed_ = std::move(cb); }

  /// Invoked from the sequential action phase each time a round reaches its
  /// terminal outcome (Pass/Fail/Timeout settle, or Aborted by a provider
  /// exit), with the finished record. NetworkSim maintains its incremental
  /// population aggregates off this — the streaming replacement for walking
  /// rounds() after the fact.
  using RoundCallback = std::function<void(const RoundRecord&)>;
  void set_on_round(RoundCallback cb) { on_round_ = std::move(cb); }

  /// Deferred-settlement mode: this contract's due rounds queue into `batch`
  /// (shared across contracts) and settle together with every round due at
  /// the same chain instant — 3 pairings per block per distinct key instead
  /// of 3 per round. Outcomes, payouts and chain state are identical to
  /// inline settlement; terms.batch_gas_discount optionally prices the
  /// amortization. The BatchSettlement must outlive the contract.
  void enable_deferred_settlement(BatchSettlement& batch) { batch_ = &batch; }

  // --- inspection -----------------------------------------------------------
  State state() const { return state_; }
  CloseReason close_reason() const { return close_reason_; }
  std::uint64_t rounds_completed() const { return cnt_; }
  /// Retained round records: everything ever challenged under full
  /// retention (terms.retained_rounds == 0), the most recent ring otherwise.
  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  const std::vector<ContractEvent>& events() const { return events_; }
  std::uint64_t escrow_balance() const;
  const ContractTerms& terms() const { return terms_; }
  Address address() const { return address_; }

  // O(1) aggregate counters, exact in every retention mode.
  std::uint64_t passes() const { return passes_; }
  std::uint64_t fails() const { return fails_; }        // verification failures
  std::uint64_t timeouts() const { return timeouts_; }  // proofs never arrived
  std::uint64_t aborted_rounds() const { return aborted_; }
  std::uint64_t timeout_retries() const { return retries_; }
  /// Sum of gas_used over settled rounds (the prove-tx gas; aborted and
  /// timed-out rounds carry none).
  std::uint64_t total_round_gas() const { return round_gas_; }
  /// Rounds ever challenged (== rounds().size() under full retention).
  std::uint64_t rounds_challenged() const { return records_created_; }

 private:
  void emit(const std::string& what);
  void schedule_challenge(Timestamp when);
  /// Run the responder with exception containment (a throw == no proof).
  std::optional<std::vector<std::uint8_t>> ask_responder(const Challenge& c);
  /// Heavy, chain-state-free halves of the round callbacks. The Blockchain
  /// runs them concurrently across contracts due at the same instant (see
  /// ScheduledTask::prepare); the matching *_due actions consume the staged
  /// results and perform all chain mutations sequentially.
  void prepare_challenge(Timestamp now);
  void on_challenge_due(Timestamp now);
  void prepare_verify(Timestamp now);
  void on_verify_due(Timestamp now);
  /// Requeue path: re-ask the responder for the in-flight round's proof at
  /// a later instant (next settlement boundary / one response window on).
  void prepare_retry(Timestamp now);
  void on_retry_due(Timestamp now);
  /// Shared tail of the challenge and retry actions: take the staged proof,
  /// post the challenge-reference tx (`tx_description`) and `event`, record
  /// the proof if one arrived, and schedule Verify one response window on.
  void post_challenge(Timestamp now, const char* tx_description,
                      const char* event);
  /// Tail of a proved round (prove tx, gas, payout) once its outcome is
  /// known — inline, same-instant batched, or redeemed at a later window
  /// boundary (windowed settlement defers redemption to Ticket::settle_at).
  void finalize_proved(const BatchSettlement::Outcome& outcome);
  /// Round bookkeeping shared by every outcome path: bump the counter,
  /// close at the horizon or schedule the next challenge on the original
  /// cadence (anchored to this round's challenge time, so a window-deferred
  /// redemption does not stretch the audit period).
  void advance_round();
  void settle_and_close();
  /// Missed-deadline slashing: drain the whole remaining escrow to the
  /// owner and terminate with CloseReason::Slashed.
  void slash_and_close();
  /// Shared closure tail: set state/reason, emit, fire on_closed_ once.
  void close(CloseReason reason, const std::string& event);
  /// Fold a terminal outcome into the aggregate counters and notify
  /// on_round_. Called exactly once per settled/aborted record.
  void settle_record(const RoundRecord& rec);
  /// Enforce terms.retained_rounds/retained_events. Only called at points
  /// where no in-flight round references rounds_.back() across the trim.
  void trim_history();
  /// Price and submit one administrative tx (no proof, no verification):
  /// base gas + `payload_gas`, which defaults to the all-nonzero calldata
  /// estimate over payload_bytes.
  void submit_admin_tx(const Address& from, const char* description,
                       std::size_t payload_bytes,
                       std::optional<std::uint64_t> payload_gas = std::nullopt);
  Challenge challenge_from_beacon(std::uint64_t round) const;
  std::array<std::uint8_t, 32> round_transcript() const;

  chain::Blockchain& chain_;
  chain::RandomnessBeacon& beacon_;
  ContractTerms terms_;
  // Borrowed, caller-owned: verifier_ is never null; file_ctx_ may be
  // (cold verification path).
  const audit::Verifier* verifier_ = nullptr;
  const audit::PreparedFile* file_ctx_ = nullptr;
  audit::Fr file_name_;
  std::size_t num_chunks_;
  Address address_;

  State state_ = State::Uninitialized;
  CloseReason close_reason_ = CloseReason::None;
  std::uint64_t cnt_ = 0;
  /// Consecutive non-passing rounds (Fail/Timeout); reset by every Pass.
  /// Feeds the slash_after_consecutive threshold.
  std::uint32_t consecutive_misses_ = 0;
  Responder responder_;
  ClosedCallback on_closed_;
  RoundCallback on_round_;
  BatchSettlement* batch_ = nullptr;  // non-owning; set by enable_deferred_...
  std::optional<std::vector<std::uint8_t>> pending_proof_;
  std::vector<RoundRecord> rounds_;
  std::vector<ContractEvent> events_;
  // Aggregate counters (see the accessors).
  std::uint64_t passes_ = 0;
  std::uint64_t fails_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t round_gas_ = 0;
  std::uint64_t records_created_ = 0;

  // Staging area filled by prepare_* and consumed by the same instant's
  // action; only ever touched for this contract's own tasks.
  struct StagedChallenge {
    Challenge challenge;
    std::optional<std::vector<std::uint8_t>> proof;
  };
  std::optional<StagedChallenge> staged_challenge_;
  struct StagedVerify {
    bool ok = false;
    double verify_ms = 0;
    // Deferred mode: the round sits in the shared batch instead; the action
    // redeems this ticket for its outcome.
    std::optional<BatchSettlement::Ticket> ticket;
  };
  std::optional<StagedVerify> staged_verify_;
};

}  // namespace dsaudit::contract
