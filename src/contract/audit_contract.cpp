#include "contract/audit_contract.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "audit/serialize.hpp"
#include "contract/tx_format.hpp"
#include "econ/cost_model.hpp"
#include "primitives/keccak256.hpp"

namespace dsaudit::contract {

namespace {

std::uint64_t contract_counter = 0;

void require(bool cond, const char* what) {
  if (!cond) throw std::logic_error(std::string("AuditContract: ") + what);
}

/// Beacons may keep per-round state (CommitRevealBeacon counts withheld
/// reveals), and many contracts share one beacon; their prepare stages run
/// concurrently, so beacon reads are serialized. Outputs are pure in the
/// round number, so the acquisition order does not affect any result.
std::mutex& beacon_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

const char* to_string(CloseReason reason) {
  switch (reason) {
    case CloseReason::None: return "none";
    case CloseReason::Expired: return "expired";
    case CloseReason::Rejected: return "rejected";
    case CloseReason::ProviderExit: return "provider-exit";
    case CloseReason::Slashed: return "slashed";
  }
  return "?";
}

AuditContract::AuditContract(chain::Blockchain& chain,
                             chain::RandomnessBeacon& beacon, ContractTerms terms,
                             const audit::Verifier& verifier,
                             audit::Fr file_name, std::size_t num_chunks,
                             const audit::PreparedFile* file_ctx)
    : chain_(chain),
      beacon_(beacon),
      terms_(std::move(terms)),
      verifier_(&verifier),
      file_ctx_(file_ctx),
      file_name_(file_name),
      num_chunks_(num_chunks),
      address_("contract-" + std::to_string(++contract_counter)) {
  require(terms_.num_audits > 0, "num_audits must be positive");
  require(num_chunks_ > 0, "empty file");
  require(terms_.response_window_s < terms_.audit_period_s,
          "response window must fit inside the audit period");
  require(!file_ctx_ || (file_ctx_->num_chunks == num_chunks_ &&
                         file_ctx_->name == file_name_),
          "shared file context does not match (name, num_chunks)");
}

void AuditContract::emit(const std::string& what) {
  events_.push_back({chain_.now(), what});
  if (terms_.retained_events > 0 && events_.size() > terms_.retained_events) {
    events_.erase(events_.begin(),
                  events_.end() - static_cast<std::ptrdiff_t>(terms_.retained_events));
  }
}

void AuditContract::submit_admin_tx(const Address& from,
                                    const char* description,
                                    std::size_t payload_bytes,
                                    std::optional<std::uint64_t> payload_gas) {
  const chain::GasSchedule& gas = econ::kCostModel.gas;
  chain::Transaction tx;
  tx.from = from;
  tx.description = description;
  tx.payload_bytes = payload_bytes;
  tx.gas_used =
      gas.tx_base + payload_gas.value_or(gas.calldata_gas(payload_bytes));
  chain_.submit(tx);
}

void AuditContract::trim_history() {
  if (terms_.retained_rounds > 0 && rounds_.size() > terms_.retained_rounds) {
    rounds_.erase(rounds_.begin(),
                  rounds_.end() - static_cast<std::ptrdiff_t>(terms_.retained_rounds));
  }
}

void AuditContract::settle_record(const RoundRecord& rec) {
  switch (rec.outcome) {
    case RoundOutcome::Pass: ++passes_; break;
    case RoundOutcome::Fail: ++fails_; break;
    case RoundOutcome::Timeout: ++timeouts_; break;
    case RoundOutcome::Aborted: ++aborted_; break;
  }
  round_gas_ += rec.gas_used;
  if (on_round_) on_round_(rec);
}

void AuditContract::negotiated() {
  require(state_ == State::Uninitialized, "negotiated: state != ⊥");
  // D pays the one-time on-chain storage of agrmts + params + metadata
  // (Fig. 4's public-key bytes plus name/d).
  const auto pk_bytes = verifier_->pk_bytes(terms_.private_proofs);
  const std::size_t payload = txfmt::negotiated_payload(pk_bytes.size());
  const chain::GasSchedule& gas = econ::kCostModel.gas;
  submit_admin_tx(terms_.owner, "negotiated", payload,
                  gas.calldata_gas(pk_bytes) +
                      gas.storage_word * ((payload + 31) / 32));
  state_ = State::Ack;
  emit("negotiated");
}

void AuditContract::acked(bool accept) {
  require(state_ == State::Ack, "acked: state != ACK");
  submit_admin_tx(terms_.provider, accept ? "acked" : "rejected",
                  txfmt::kAckPayload);
  if (!accept) {
    // §VI-A: S can walk away, wasting D's storage fee — "good to none but
    // worse to himself under a robust reputation-based system".
    close(CloseReason::Rejected, "terminated-by-provider");
    return;
  }
  state_ = State::Freeze;
  emit("acked");
}

void AuditContract::freeze() {
  require(state_ == State::Freeze, "freeze: state != FREEZE");
  std::uint64_t owner_lock = terms_.reward_per_audit * terms_.num_audits;
  std::uint64_t provider_lock = terms_.penalty_per_fail * terms_.num_audits;
  chain_.transfer(terms_.owner, address_, owner_lock);
  chain_.transfer(terms_.provider, address_, provider_lock);
  submit_admin_tx(terms_.owner, "freeze", txfmt::kFreezePayload);
  state_ = State::Audit;
  emit("inited");
  schedule_challenge(chain_.now() + terms_.audit_period_s);
}

std::uint64_t AuditContract::escrow_balance() const {
  return chain_.balance(address_);
}

Challenge AuditContract::challenge_from_beacon(std::uint64_t round) const {
  chain::BeaconOutput out = beacon_.randomness(round);
  Challenge chal;
  // Domain-separated expansion of the 48 beacon bytes into (C1, C2, r).
  std::uint8_t buf[49];
  std::memcpy(buf, out.data(), 48);
  buf[48] = 0;
  chal.c1 = primitives::Keccak256::hash(std::span<const std::uint8_t>(buf, 49));
  buf[48] = 1;
  chal.c2 = primitives::Keccak256::hash(std::span<const std::uint8_t>(buf, 49));
  buf[48] = 2;
  auto rbytes = primitives::Keccak256::hash(std::span<const std::uint8_t>(buf, 49));
  chal.r = audit::Fr::from_be_bytes_mod(rbytes);
  chal.k = terms_.challenged_chunks;
  return chal;
}

void AuditContract::schedule_challenge(Timestamp when) {
  chain_.schedule(when, [this](Timestamp now) { prepare_challenge(now); },
                  [this](Timestamp now) { on_challenge_due(now); });
}

std::optional<std::vector<std::uint8_t>> AuditContract::ask_responder(
    const Challenge& c) {
  if (!responder_) return std::nullopt;
  try {
    return responder_(c);
  } catch (...) {
    // A fault injected into the prover (possibly on a pool worker, inside a
    // concurrent prepare) must cost the provider the round, not the process.
    return std::nullopt;
  }
}

void AuditContract::prepare_challenge(Timestamp /*now*/) {
  if (state_ != State::Audit || cnt_ >= terms_.num_audits) return;
  StagedChallenge staged;
  {
    std::lock_guard<std::mutex> lock(beacon_mutex());
    staged.challenge = challenge_from_beacon(cnt_);
  }
  // Provider reacts off-chain; in the simulation the responder runs here —
  // possibly concurrently with other contracts' provers — and its proof
  // "arrives" as a tx in the response window.
  staged.proof = ask_responder(staged.challenge);
  staged_challenge_ = std::move(staged);
}

void AuditContract::on_challenge_due(Timestamp now) {
  if (state_ != State::Audit) {  // contract closed meanwhile
    staged_challenge_.reset();
    return;
  }
  require(cnt_ < terms_.num_audits, "challenge beyond num_audits");
  require(staged_challenge_.has_value(), "challenge action without its prepare");
  RoundRecord rec;
  rec.round = cnt_;
  rec.challenge = staged_challenge_->challenge;
  rec.challenged_at = now;
  rounds_.push_back(std::move(rec));
  ++records_created_;
  state_ = State::Prove;
  post_challenge(now, "challenged", "challenged");
}

void AuditContract::post_challenge(Timestamp now, const char* tx_description,
                                   const char* event) {
  pending_proof_ = std::move(staged_challenge_->proof);
  staged_challenge_.reset();
  submit_admin_tx(address_, tx_description, txfmt::kChallengePayload);
  emit(event);
  if (pending_proof_) {
    RoundRecord& rec = rounds_.back();
    rec.proved_at = now;
    rec.proof_bytes = pending_proof_->size();
    emit("proofposted");
  }
  chain_.schedule(now + terms_.response_window_s,
                  [this](Timestamp t) { prepare_verify(t); },
                  [this](Timestamp t) { on_verify_due(t); });
}

void AuditContract::prepare_verify(Timestamp /*now*/) {
  if (state_ != State::Prove || !pending_proof_) return;
  auto t0 = std::chrono::steady_clock::now();
  StagedVerify staged;
  // Decode here (cheap, concurrent); a malformed proof never reaches the
  // settlement engine — it fails this round immediately.
  audit::SettlementInstance inst;
  inst.verifier = verifier_;
  inst.file = file_ctx_;  // null => the engine recomputes chunk hashes
  inst.name = file_name_;
  inst.num_chunks = num_chunks_;
  inst.challenge = rounds_.back().challenge;
  if (terms_.private_proofs) {
    inst.priv = audit::decode_private(*pending_proof_).value;
  } else {
    inst.basic = audit::decode_basic(*pending_proof_).value;
  }
  if (inst.basic || inst.priv) {
    if (batch_) {
      // Deferred settlement: hand the round to the shared block batch; the
      // expensive verification happens once per instant (or window), for
      // every due round together.
      staged.ticket =
          batch_->enqueue(chain_, std::move(inst), round_transcript());
    } else {
      staged.ok = audit::verify_settlement(
                      std::span<const audit::SettlementInstance>(&inst, 1), {})
                      .ok[0];
    }
  }
  staged.verify_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  staged_verify_ = staged;
}

/// Canonical identity of the pending round for the batch transcript: the
/// contract address, round number, challenge and exact proof bytes. Orders
/// the block batch deterministically and commits the weight seed to the
/// proofs (Fiat–Shamir).
std::array<std::uint8_t, 32> AuditContract::round_transcript() const {
  std::vector<std::uint8_t> buf;
  const auto chal = audit::serialize(rounds_.back().challenge);
  buf.reserve(address_.size() + 8 + chal.size() + pending_proof_->size());
  buf.insert(buf.end(), address_.begin(), address_.end());
  for (int b = 0; b < 8; ++b) {
    buf.push_back(static_cast<std::uint8_t>(cnt_ >> (8 * b)));
  }
  buf.insert(buf.end(), chal.begin(), chal.end());
  buf.insert(buf.end(), pending_proof_->begin(), pending_proof_->end());
  return primitives::Keccak256::hash(
      std::span<const std::uint8_t>(buf.data(), buf.size()));
}

void AuditContract::on_verify_due(Timestamp now) {
  if (state_ != State::Prove) {
    staged_verify_.reset();
    return;
  }
  if (!pending_proof_) {
    staged_verify_.reset();
    RoundRecord& rec = rounds_.back();
    if (rec.retries < terms_.timeout_retry_limit && responder_) {
      // Requeue with bounded retry: a transient miss inside a settlement
      // window is re-attempted at the next boundary (one response window
      // later when windows are off) instead of being slashed immediately.
      ++rec.retries;
      ++retries_;
      emit("timeout-retry");
      Timestamp retry_at = chain_.settlement_window() > 1
                               ? chain_.settlement_boundary(now + 1)
                               : now + terms_.response_window_s;
      chain_.schedule(retry_at, [this](Timestamp t) { prepare_retry(t); },
                      [this](Timestamp t) { on_retry_due(t); });
      return;
    }
    rec.outcome = RoundOutcome::Timeout;
    emit("fail");
    settle_record(rec);
    if (terms_.penalty_per_fail > 0) {
      chain_.transfer(address_, terms_.owner, terms_.penalty_per_fail);
    }
    ++consecutive_misses_;
    advance_round();
    return;
  }
  require(staged_verify_.has_value(), "verify action without its prepare");
  if (staged_verify_->ticket) {
    const BatchSettlement::Ticket ticket = *staged_verify_->ticket;
    staged_verify_.reset();
    pending_proof_.reset();
    // The round settles at its window boundary, whose barrier flushes the
    // window before any action there runs. A provider exit can close the
    // contract (aborting this round) before the boundary — a dead round
    // must not settle.
    auto redeem = [this, ticket](Timestamp) {
      if (state_ == State::Prove) finalize_proved(batch_->outcome(ticket));
    };
    if (ticket.settle_at == now) {
      redeem(now);
    } else {
      chain_.schedule(ticket.settle_at, redeem);
    }
    return;
  }
  const BatchSettlement::Outcome inline_res{staged_verify_->ok, 1,
                                            staged_verify_->verify_ms};
  staged_verify_.reset();
  pending_proof_.reset();
  finalize_proved(inline_res);
}

void AuditContract::prepare_retry(Timestamp /*now*/) {
  if (state_ != State::Prove || pending_proof_) return;
  StagedChallenge staged;
  staged.challenge = rounds_.back().challenge;  // same round, same challenge
  staged.proof = ask_responder(staged.challenge);
  staged_challenge_ = std::move(staged);
}

void AuditContract::on_retry_due(Timestamp now) {
  if (state_ != State::Prove || pending_proof_) {  // closed/settled meanwhile
    staged_challenge_.reset();
    return;
  }
  require(staged_challenge_.has_value(), "retry action without its prepare");
  // The retry rebroadcasts the challenge reference on chain; the response
  // window restarts from the retry instant.
  post_challenge(now, "retry", "retried");
}

void AuditContract::finalize_proved(const BatchSettlement::Outcome& outcome) {
  RoundRecord& rec = rounds_.back();
  rec.verify_ms = outcome.flush_ms;  // telemetry: this round's (or its whole
                                     // window's) measured verification time
  if (outcome.aggregated && !outcome.fallback) {
    // Clean aggregate window: this round redeems against the window's one
    // settle-window tx (seed + aggregated opening + outcome bitmap, already
    // on chain — BatchSettlement posted it at the flush). No per-round
    // prove tx, no per-round bytes or gas; the money transfers below are
    // unchanged. A dirty window (fallback) re-posts individual proofs so
    // the bisection evidence lands on chain.
    rec.gas_used = 0;
  } else {
    // The prove tx carries the proof bytes and triggers on-chain
    // verification; gas follows the §VII-B extrapolation at the model's
    // calibrated verification time, NOT this run's wall clock — settlement
    // must be a deterministic function of on-chain data (with the batch
    // discount, of on-chain data plus the settled batch's size).
    chain::Transaction tx;
    tx.from = terms_.provider;
    tx.description = "prove";
    tx.payload_bytes = rec.proof_bytes;
    const econ::AuditCostModel& model = econ::kCostModel;
    tx.gas_used = model.gas.audit_tx_gas(
        rec.proof_bytes, model.challenge_bytes,
        terms_.batch_gas_discount ? model.batched_verify_ms(outcome.batch_size)
                                  : model.verify_ms);
    chain_.submit(tx);
    rec.gas_used = tx.gas_used;
  }

  if (outcome.ok) {
    rec.outcome = RoundOutcome::Pass;
    emit("pass");
    settle_record(rec);
    if (terms_.reward_per_audit > 0) {
      chain_.transfer(address_, terms_.provider, terms_.reward_per_audit);
    }
    consecutive_misses_ = 0;
  } else {
    rec.outcome = RoundOutcome::Fail;
    emit("fail");
    settle_record(rec);
    if (terms_.penalty_per_fail > 0) {
      chain_.transfer(address_, terms_.owner, terms_.penalty_per_fail);
    }
    ++consecutive_misses_;
  }
  advance_round();
}

void AuditContract::advance_round() {
  pending_proof_.reset();
  ++cnt_;
  if (terms_.slash_after_consecutive > 0 &&
      consecutive_misses_ >= terms_.slash_after_consecutive) {
    slash_and_close();
    trim_history();
    return;
  }
  if (cnt_ >= terms_.num_audits) {
    settle_and_close();
    trim_history();
    return;
  }
  state_ = State::Audit;
  schedule_challenge(rounds_.back().challenged_at + terms_.audit_period_s);
  trim_history();
}

void AuditContract::settle_and_close() {
  // Return unspent escrow: undelivered rewards to the owner, unburned
  // collateral to the provider.
  std::uint64_t unpaid_rewards = terms_.reward_per_audit * (fails() + timeouts());
  std::uint64_t kept_collateral =
      terms_.penalty_per_fail * terms_.num_audits -
      terms_.penalty_per_fail * (fails() + timeouts());
  if (unpaid_rewards > 0) chain_.transfer(address_, terms_.owner, unpaid_rewards);
  if (kept_collateral > 0) {
    chain_.transfer(address_, terms_.provider, kept_collateral);
  }
  close(CloseReason::Expired, "expired");
}

void AuditContract::slash_and_close() {
  // Missed-deadline slashing: the provider abandoned the contract, so the
  // owner is made whole from everything still escrowed — the undelivered
  // reward pool AND the provider's remaining collateral.
  std::uint64_t remaining = chain_.balance(address_);
  if (remaining > 0) chain_.transfer(address_, terms_.owner, remaining);
  submit_admin_tx(address_, "slashed", txfmt::kClosePayload);
  close(CloseReason::Slashed, "slashed");
}

void AuditContract::provider_exit() {
  require(state_ == State::Audit || state_ == State::Prove,
          "provider_exit: contract not live");
  if (state_ == State::Prove && records_created_ > cnt_) {
    // The in-flight round never settles; it moves no money either way.
    rounds_.back().outcome = RoundOutcome::Aborted;
    settle_record(rounds_.back());
  }
  // Escrow release: the owner recovers every undelivered reward plus an
  // exit fee of one penalty_per_fail carved from the provider's remaining
  // collateral; the provider keeps the rest of its collateral.
  std::uint64_t escrow = chain_.balance(address_);
  std::uint64_t remaining_rewards =
      terms_.reward_per_audit * (terms_.num_audits - passes());
  if (remaining_rewards > escrow) remaining_rewards = escrow;
  std::uint64_t remaining_collateral = escrow - remaining_rewards;
  std::uint64_t exit_fee =
      std::min<std::uint64_t>(terms_.penalty_per_fail, remaining_collateral);
  if (remaining_rewards + exit_fee > 0) {
    chain_.transfer(address_, terms_.owner, remaining_rewards + exit_fee);
  }
  if (remaining_collateral > exit_fee) {
    chain_.transfer(address_, terms_.provider, remaining_collateral - exit_fee);
  }
  submit_admin_tx(terms_.provider, "provider-exit", txfmt::kClosePayload);
  close(CloseReason::ProviderExit, "provider-exit");
  trim_history();
}

void AuditContract::close(CloseReason reason, const std::string& event) {
  state_ = State::Closed;
  close_reason_ = reason;
  emit(event);
  if (on_closed_) on_closed_(reason);
}

}  // namespace dsaudit::contract
