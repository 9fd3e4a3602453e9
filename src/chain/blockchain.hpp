// Discrete-event blockchain simulator.
//
// Substitutes the paper's 3-node private Ethereum testnet (miner / provider /
// owner, §VII-A). It models what the evaluation actually measures: per-tx gas
// and size, block production at a fixed interval with a size budget
// (§VII-D assumes ~18 KB average blocks => ~2 tx/s for 288-byte audit txs
// plus overhead), cumulative chain growth (Fig. 10 left) and a native-token
// ledger for the deposit/micro-payment flows of Fig. 2.
//
// Time is event-driven: advance() skips from due instant to due instant over
// a binary min-heap of scheduled tasks, the timed barriers and the
// block-boundary cadence — no per-second walking. History is governed by
// ChainConfig::retention:
//
//   Retention::Full       (default) materializes every Transaction and Block,
//                         exactly as the original simulator did — the oracle
//                         mode every exact-constant test pins against.
//   Retention::Streaming  folds mined txs and blocks into rolling aggregates
//                         (counts, bytes, gas, a running keccak digest of the
//                         mined tx stream) the moment they are mined, and
//                         accounts runs of empty blocks arithmetically. O(1)
//                         memory per tx/block; blocks()/transactions() stay
//                         empty. Every aggregate is maintained identically in
//                         both modes, so a streaming run must match its
//                         full-retention twin bit-for-bit on
//                         block_count/tx_count/bytes/gas/digest.
//
// Pending txs live in one mempool shared by both modes: a FIFO queue per tx
// class (envelope bytes, gas), each entry tagged with its submission number.
// A block repeatedly mines the lowest-numbered head among the classes that
// still fit its remaining budget — exactly FIFO-with-skip over the whole
// backlog, at a cost of O(mined x classes) per block (src/chain/README.md).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "chain/gas.hpp"

namespace dsaudit::chain {

using Address = std::string;
using Timestamp = std::uint64_t;  // seconds since simulation start

/// History retention policy (see the header comment).
enum class Retention : std::uint8_t { Full, Streaming };

struct Transaction {
  Address from;
  std::string description;        // e.g. "prove", "challenge", "freeze"
  std::size_t payload_bytes = 0;  // calldata size
  std::uint64_t gas_used = 0;
  Timestamp submitted_at = 0;
  Timestamp mined_at = 0;
  std::uint64_t block_number = 0;
};

struct Block {
  std::uint64_t number = 0;
  Timestamp timestamp = 0;
  std::size_t size_bytes = 0;
  std::uint64_t gas_used = 0;
  std::vector<std::size_t> tx_indices;  // into Blockchain::transactions()
};

struct ChainConfig {
  Timestamp block_interval_s = 15;      // Ethereum-like
  std::size_t max_block_bytes = 18 * 1024;  // §VII-D average block size
  // Generous by default so the paper's size budget (18 KB) is the binding
  // constraint, as §VII-D assumes for its dedicated audit fork.
  std::uint64_t max_block_gas = 30'000'000;
  std::size_t block_overhead_bytes = 500;   // header+receipts amortized
  std::size_t tx_overhead_bytes = 110;      // envelope per tx
  /// Deferred-settlement window (seconds). Rounds due anywhere inside one
  /// window settle together at its boundary (the next multiple of this
  /// value) — fattening small batches at population scale. 0 or 1 means
  /// per-instant settlement: every boundary coincides with the due instant,
  /// byte-identical to the pre-window behavior.
  Timestamp settlement_window_s = 0;
  /// History retention (Full = materialized vectors, the historical
  /// behavior; Streaming = rolling aggregates, O(1) memory per tx/block).
  Retention retention = Retention::Full;
};

/// Scheduled callback ("Ethereum Alarm Clock" in Fig. 2): fires the first
/// time a block at/after `when` is mined. A task may carry an optional
/// `prepare` stage holding its side-effect-free heavy work (proof generation,
/// proof verification): advance() runs the prepares of all tasks due at one
/// instant concurrently on the parallel pool, then runs every `action`
/// sequentially in schedule order — so chain state (balances, transactions,
/// events) evolves exactly as it would under one-at-a-time execution.
struct ScheduledTask {
  Timestamp when = 0;
  std::function<void(Timestamp)> action;
  std::function<void(Timestamp)> prepare;  // optional, must not touch chain
};

class Blockchain {
 public:
  explicit Blockchain(ChainConfig config = {});

  Timestamp now() const { return now_; }
  Retention retention() const { return config_.retention; }

  /// Configured deferred-settlement window (see ChainConfig).
  Timestamp settlement_window() const { return config_.settlement_window_s; }
  /// First window boundary at or after `t`: ceil(t / window) * window, or
  /// `t` itself when windows are disabled (window <= 1). Work due at `t`
  /// settles at this instant.
  Timestamp settlement_boundary(Timestamp t) const {
    const Timestamp w = config_.settlement_window_s;
    if (w <= 1) return t;
    return (t + w - 1) / w * w;
  }

  // --- ledger -------------------------------------------------------------
  void mint(const Address& who, std::uint64_t amount);
  std::uint64_t balance(const Address& who) const;
  /// Throws std::runtime_error on insufficient funds.
  void transfer(const Address& from, const Address& to, std::uint64_t amount);
  /// Sum of every balance (mint-only monotone; transfers conserve it).
  /// Maintained incrementally — O(1), valid in both retention modes.
  std::uint64_t total_supply() const { return total_supply_; }

  // --- transactions -------------------------------------------------------
  /// Queue a transaction; it is mined by the next advance() with capacity.
  /// Returns the tx index (the running submission count under streaming
  /// retention, where transactions() stays empty). Throws
  /// std::invalid_argument for a description of 65,536 bytes or more, which
  /// the stream digest's 2-byte length prefix cannot encode.
  std::size_t submit(Transaction tx);

  /// Schedule a callback at a future timestamp.
  void schedule(Timestamp when, std::function<void(Timestamp)> action);
  /// Schedule a callback plus a side-effect-free prepare stage that advance()
  /// may run concurrently with other due tasks' prepares before any action.
  void schedule(Timestamp when, std::function<void(Timestamp)> prepare,
                std::function<void(Timestamp)> action);

  /// Register `fn` to run exactly once at instant `at`, after the prepares of
  /// every task due there and before any of their actions. This is the
  /// block-level barrier the windowed audit settlement flushes at: every
  /// contract's prepare enqueues its round, the barrier at the window
  /// boundary verifies the whole window once, and the actions then redeem
  /// per-round outcomes sequentially in schedule order. `at` becomes an event
  /// instant even with no task due there, so advance() stops at it (and the
  /// streaming empty-block fast path never runs past it). Barriers due at one
  /// instant run in registration order. Thread-safe (prepares run
  /// concurrently); the barriers themselves run sequentially on the driving
  /// thread, so they may use the parallel pool. Throws std::logic_error for
  /// `at` < now().
  void defer_until_actions(Timestamp at, std::function<void(Timestamp)> fn);

  /// Advance simulated time, skipping straight to the next due instant
  /// (scheduled task, barrier or block boundary) and firing everything due
  /// there. Under streaming retention, maximal runs of empty blocks between
  /// events are accounted arithmetically in one step.
  void advance(Timestamp seconds);

  // --- introspection ------------------------------------------------------
  /// Materialized history; empty under Retention::Streaming.
  const std::vector<Block>& blocks() const { return blocks_; }
  const std::vector<Transaction>& transactions() const { return txs_; }
  /// Submitted txs not yet mined, including any too large for any block.
  std::size_t pending_count() const { return pending_count_; }
  /// Total bytes appended to the chain so far (Fig. 10 left measures the
  /// annual rate of this).
  std::size_t total_chain_bytes() const { return total_bytes_; }
  std::uint64_t total_gas_used() const { return total_gas_; }

  // Rolling aggregates, maintained identically in both retention modes.
  /// Blocks mined so far (== blocks().size() under full retention).
  std::uint64_t block_count() const { return block_count_; }
  /// Transactions MINED so far (excludes still-pending submissions; under
  /// full retention transactions() additionally shows the pending tail).
  std::uint64_t tx_count() const { return tx_count_; }
  /// Sum of payload_bytes over every mined tx.
  std::uint64_t total_payload_bytes() const { return total_payload_bytes_; }
  /// Running keccak-256 over the mined transaction stream, folded in mined
  /// order. `from` addresses enter as first-appearance intern ids, so two
  /// runs whose contracts carry different process-global counter suffixes
  /// but behave identically produce the same digest — the cross-run,
  /// cross-retention-mode comparison handle.
  const std::array<std::uint8_t, 32>& tx_stream_digest() const {
    return tx_digest_;
  }

 private:
  void mine_one_block();
  /// Earliest instant with a task or barrier due, or `none` if neither.
  Timestamp next_due(Timestamp none);
  /// Run the barriers due at now_, in registration order.
  void run_barriers();
  /// Fold one freshly mined tx into the rolling aggregates (count, payload
  /// bytes, stream digest). Called in mined order in both retention modes.
  void fold_mined(const Transaction& tx);

  ChainConfig config_;
  Timestamp now_ = 0;
  Timestamp next_block_at_;

  // Full-retention history (empty under streaming).
  std::vector<Transaction> txs_;
  std::vector<Block> blocks_;

  // Mempool: one FIFO per tx class, keyed by (payload + envelope bytes,
  // gas). Every tx of a class fits a block exactly when its head does, so
  // the class heads are all mine_one_block() looks at. Empty classes are
  // erased.
  struct PendingTx {
    std::uint64_t seq = 0;  // submission number == index into txs_ (full)
    Transaction tx;         // the tx itself under streaming; unused under full
  };
  using TxClass = std::pair<std::size_t, std::uint64_t>;  // (bytes, gas)
  using Mempool = std::map<TxClass, std::deque<PendingTx>>;
  /// Whether a tx of class `cls` fits a block whose contents so far (block
  /// overhead included) total `bytes` and `gas` — the one inclusion test.
  bool fits(std::size_t bytes, std::uint64_t gas, const TxClass& cls) const {
    return bytes + cls.first <= config_.max_block_bytes &&
           gas + cls.second <= config_.max_block_gas;
  }
  Mempool mempool_;
  std::size_t pending_count_ = 0;
  // Pending txs whose class fits an empty block. While 0, every coming block
  // is empty, so the streaming fast path may account runs of them at once.
  std::size_t pending_mineable_ = 0;

  // Scheduler: binary min-heap ordered by (when, seq). seq is the insertion
  // number, so the pop order is exactly the old multimap's (time, insertion)
  // order — the firing sequence every determinism test pins.
  struct PendingTask {
    Timestamp when = 0;
    std::uint64_t seq = 0;
    ScheduledTask task;
  };
  struct TaskAfter {
    bool operator()(const PendingTask& a, const PendingTask& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  std::vector<PendingTask> tasks_;  // heap under TaskAfter
  std::uint64_t task_seq_ = 0;

  // Barriers by instant; a multimap keeps registration order per instant.
  std::multimap<Timestamp, std::function<void(Timestamp)>> barriers_;
  std::mutex barrier_mutex_;  // guards barriers_ (prepares register)
  std::map<Address, std::uint64_t> balances_;
  std::size_t total_bytes_ = 0;
  std::uint64_t total_gas_ = 0;

  // Rolling aggregates (both modes).
  std::uint64_t block_count_ = 0;
  std::uint64_t tx_count_ = 0;
  std::uint64_t submitted_count_ = 0;
  std::uint64_t total_payload_bytes_ = 0;
  std::uint64_t total_supply_ = 0;
  std::array<std::uint8_t, 32> tx_digest_{};
  std::map<Address, std::uint64_t> addr_intern_;
};

}  // namespace dsaudit::chain
