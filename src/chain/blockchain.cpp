#include "chain/blockchain.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "primitives/keccak256.hpp"

namespace dsaudit::chain {

Blockchain::Blockchain(ChainConfig config) : config_(config) {
  next_block_at_ = config_.block_interval_s;
}

void Blockchain::mint(const Address& who, std::uint64_t amount) {
  balances_[who] += amount;
  total_supply_ += amount;
}

std::uint64_t Blockchain::balance(const Address& who) const {
  auto it = balances_.find(who);
  return it == balances_.end() ? 0 : it->second;
}

void Blockchain::transfer(const Address& from, const Address& to,
                          std::uint64_t amount) {
  auto it = balances_.find(from);
  if (it == balances_.end() || it->second < amount) {
    throw std::runtime_error("Blockchain::transfer: insufficient funds of " + from);
  }
  it->second -= amount;
  balances_[to] += amount;
  // Drop zeroed entries so the ledger map tracks live accounts, not every
  // address ever seen — closed contract escrows dominate at population
  // scale. balance() reports missing entries as 0, so this is unobservable.
  it = balances_.find(from);
  if (it != balances_.end() && it->second == 0) balances_.erase(it);
}

std::size_t Blockchain::submit(Transaction tx) {
  if (tx.description.size() > 0xffff) {
    throw std::invalid_argument(
        "Blockchain::submit: description longer than 65535 bytes");
  }
  tx.submitted_at = now_;
  const std::uint64_t seq = submitted_count_++;
  PendingTx entry{seq, {}};
  const TxClass cls{tx.payload_bytes + config_.tx_overhead_bytes, tx.gas_used};
  if (config_.retention == Retention::Full) {
    txs_.push_back(std::move(tx));
  } else {
    entry.tx = std::move(tx);
  }
  mempool_[cls].push_back(std::move(entry));
  ++pending_count_;
  if (fits(config_.block_overhead_bytes, 0, cls)) ++pending_mineable_;
  return seq;
}

void Blockchain::schedule(Timestamp when, std::function<void(Timestamp)> action) {
  tasks_.push_back({when, task_seq_++, {when, std::move(action), nullptr}});
  std::push_heap(tasks_.begin(), tasks_.end(), TaskAfter{});
}

void Blockchain::schedule(Timestamp when, std::function<void(Timestamp)> prepare,
                          std::function<void(Timestamp)> action) {
  tasks_.push_back(
      {when, task_seq_++, {when, std::move(action), std::move(prepare)}});
  std::push_heap(tasks_.begin(), tasks_.end(), TaskAfter{});
}

void Blockchain::defer_until_actions(Timestamp at,
                                     std::function<void(Timestamp)> fn) {
  if (at < now_) {
    throw std::logic_error("Blockchain::defer_until_actions: instant in the past");
  }
  std::lock_guard<std::mutex> lock(barrier_mutex_);
  barriers_.emplace(at, std::move(fn));
}

Timestamp Blockchain::next_due(Timestamp none) {
  Timestamp next = tasks_.empty() ? none : tasks_.front().when;
  std::lock_guard<std::mutex> lock(barrier_mutex_);
  return barriers_.empty() ? next : std::min(next, barriers_.begin()->first);
}

void Blockchain::run_barriers() {
  std::vector<std::function<void(Timestamp)>> due;
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    const auto end = barriers_.upper_bound(now_);
    for (auto it = barriers_.begin(); it != end; ++it) {
      due.push_back(std::move(it->second));
    }
    barriers_.erase(barriers_.begin(), end);
  }
  for (auto& fn : due) fn(now_);
}

void Blockchain::fold_mined(const Transaction& tx) {
  ++tx_count_;
  total_payload_bytes_ += tx.payload_bytes;
  // Digest = keccak(prev || intern(from) || desc || fixed-width fields),
  // folded in mined order. Interning `from` by first appearance makes the
  // digest a function of behavior, not of the process-global contract
  // counter, so it compares across runs and retention modes.
  auto [it, fresh] = addr_intern_.emplace(tx.from, addr_intern_.size());
  (void)fresh;
  std::vector<std::uint8_t> buf;
  buf.reserve(32 + 8 + 2 + tx.description.size() + 8 * 5);
  buf.insert(buf.end(), tx_digest_.begin(), tx_digest_.end());
  auto put64 = [&buf](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) buf.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  };
  put64(it->second);
  // 2-byte length prefix; submit() rejects descriptions it cannot encode.
  buf.push_back(static_cast<std::uint8_t>(tx.description.size() & 0xff));
  buf.push_back(static_cast<std::uint8_t>(tx.description.size() >> 8));
  buf.insert(buf.end(), tx.description.begin(), tx.description.end());
  put64(tx.payload_bytes);
  put64(tx.gas_used);
  put64(tx.submitted_at);
  put64(tx.mined_at);
  put64(tx.block_number);
  tx_digest_ = primitives::Keccak256::hash(
      std::span<const std::uint8_t>(buf.data(), buf.size()));
}

void Blockchain::mine_one_block() {
  Block b;
  b.number = block_count_ + 1;
  b.timestamp = now_;
  b.size_bytes = config_.block_overhead_bytes;
  // Greedy FIFO-with-skip inclusion under the block's size and gas budgets
  // (our simulation has no fee market): mine the lowest-numbered head among
  // the classes that still fit, until none does. The budget only shrinks, so
  // a class that fails once never fits again in this block — the same txs,
  // in the same order, as a scan of the whole backlog in submission order.
  for (;;) {
    Mempool::iterator next = mempool_.end();
    for (auto it = mempool_.begin(); it != mempool_.end(); ++it) {
      if (fits(b.size_bytes, b.gas_used, it->first) &&
          (next == mempool_.end() ||
           it->second.front().seq < next->second.front().seq)) {
        next = it;
      }
    }
    if (next == mempool_.end()) break;
    PendingTx& entry = next->second.front();
    Transaction& tx =
        config_.retention == Retention::Full ? txs_[entry.seq] : entry.tx;
    tx.mined_at = now_;
    tx.block_number = b.number;
    b.size_bytes += next->first.first;
    b.gas_used += next->first.second;
    if (config_.retention == Retention::Full) b.tx_indices.push_back(entry.seq);
    fold_mined(tx);
    next->second.pop_front();
    if (next->second.empty()) mempool_.erase(next);
    --pending_count_;
    --pending_mineable_;
  }
  total_bytes_ += b.size_bytes;
  total_gas_ += b.gas_used;
  ++block_count_;
  if (config_.retention == Retention::Full) blocks_.push_back(std::move(b));
}

void Blockchain::advance(Timestamp seconds) {
  Timestamp target = now_ + seconds;
  for (;;) {
    // Next event: a task or barrier instant or a block boundary, whichever
    // first.
    Timestamp due = next_due(target + 1);
    // Streaming fast path: while no pending tx fits even an empty block, a
    // maximal run of empty blocks strictly before the next due instant is
    // pure arithmetic — k blocks, k * overhead bytes, no gas. (Full
    // retention materializes each Block, so it walks them one by one.)
    if (config_.retention == Retention::Streaming && pending_mineable_ == 0 &&
        next_block_at_ < due) {
      Timestamp hi = std::min(target, due - 1);
      if (next_block_at_ <= hi) {
        std::uint64_t k = (hi - next_block_at_) / config_.block_interval_s + 1;
        block_count_ += k;
        total_bytes_ += k * config_.block_overhead_bytes;
        now_ = next_block_at_ + (k - 1) * config_.block_interval_s;
        next_block_at_ += k * config_.block_interval_s;
        continue;
      }
    }
    Timestamp next_event = std::min(next_block_at_, due);
    if (next_event > target) break;
    now_ = next_event;
    // Fire everything due now (tasks may submit txs mined in the next block).
    // Each batch drains the tasks due at this instant: prepares run first —
    // concurrently when a pool is configured; they are side-effect-free by
    // contract — then the barriers due now (registered earlier or by these
    // prepares), then the actions sequentially in schedule order, so ledger
    // and transaction ordering are identical at every thread count. Actions
    // may schedule new tasks at <= now_; the loop batches those too.
    while (next_due(now_ + 1) <= now_) {
      std::vector<ScheduledTask> batch;
      while (!tasks_.empty() && tasks_.front().when <= now_) {
        std::pop_heap(tasks_.begin(), tasks_.end(), TaskAfter{});
        batch.push_back(std::move(tasks_.back().task));
        tasks_.pop_back();
      }
      std::vector<std::size_t> prepares;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].prepare) prepares.push_back(i);
      }
      parallel::parallel_for(prepares.size(), [&](std::size_t k) {
        batch[prepares[k]].prepare(now_);
      });
      run_barriers();
      for (auto& task : batch) task.action(now_);
    }
    if (now_ >= next_block_at_) {
      mine_one_block();
      next_block_at_ += config_.block_interval_s;
    }
  }
  now_ = target;
}

}  // namespace dsaudit::chain
