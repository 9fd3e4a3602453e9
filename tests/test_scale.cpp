// Streaming-vs-retained differential suite for the memory-bounded simulation
// path (chain::Retention::Streaming + NetworkConfig::retention/key_pool).
//
// The contract under test: a streaming run and its full-retention twin must
// agree bit-for-bit on everything both modes define — chain aggregates
// (blocks, txs, bytes, gas, payload, the mined-tx stream digest), ledger
// balances, NetworkStats and the fault/churn counters — across honest and
// misbehaving providers, chaos fault schedules, batched/windowed settlement,
// shared key pools and every DSAUDIT_THREADS width. Only history
// materialization may differ (blocks()/transactions()/rounds() stay empty or
// trimmed under streaming).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/network_sim.hpp"

namespace dsaudit {
namespace {

std::string hex(const std::array<std::uint8_t, 32>& d) {
  static const char* k = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : d) {
    out.push_back(k[b >> 4]);
    out.push_back(k[b & 0xf]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Chain layer: identical task/tx workloads through both retention modes.
// ---------------------------------------------------------------------------

// A deterministic workload exercising every aggregate: mints, transfers,
// task-submitted txs of varying sizes (some exceeding one block's budget so
// the greedy-skip path runs), long idle gaps (the bulk empty-block path) and
// same-instant task batches.
void drive_workload(chain::Blockchain& bc) {
  bc.mint("alice", 1'000);
  bc.mint("bob", 500);
  auto submit = [&bc](const std::string& from, const std::string& what,
                      std::size_t bytes, std::uint64_t gas) {
    chain::Transaction tx;
    tx.from = from;
    tx.description = what;
    tx.payload_bytes = bytes;
    tx.gas_used = gas;
    bc.submit(tx);
  };
  // Two tasks at the same instant (batch ordering), one later, one far out
  // past a long empty-block run.
  bc.schedule(40, [&](chain::Timestamp) { submit("alice", "a", 300, 21'000); });
  bc.schedule(40, [&](chain::Timestamp) {
    submit("bob", "b", 9'000, 100'000);       // fat tx: fills most of a block
    submit("alice", "c", 9'000, 100'000);     // overflows -> next block
    bc.transfer("alice", "bob", 250);
  });
  bc.schedule(700, [&](chain::Timestamp) {
    submit("carol-contract", "d", 64, 5'000);  // fresh from-address interning
    bc.mint("carol-contract", 7);
  });
  // Nested scheduling from inside a task, landing after an idle stretch.
  bc.schedule(900, [&](chain::Timestamp now) {
    bc.schedule(now + 50'000, [&](chain::Timestamp) {
      submit("bob", "late", 128, 42'000);
    });
  });
  bc.advance(120'000);
}

std::string chain_aggregate_fingerprint(const chain::Blockchain& bc) {
  std::ostringstream out;
  out << "now=" << bc.now() << " blocks=" << bc.block_count()
      << " txs=" << bc.tx_count() << " bytes=" << bc.total_chain_bytes()
      << " gas=" << bc.total_gas_used()
      << " payload=" << bc.total_payload_bytes()
      << " supply=" << bc.total_supply() << " pending=" << bc.pending_count()
      << " alice=" << bc.balance("alice") << " bob=" << bc.balance("bob")
      << " digest=" << hex(bc.tx_stream_digest());
  return out.str();
}

TEST(ScaleChain, StreamingAggregatesMatchFullRetention) {
  chain::ChainConfig full_cfg;
  chain::ChainConfig stream_cfg;
  stream_cfg.retention = chain::Retention::Streaming;
  chain::Blockchain full(full_cfg), stream(stream_cfg);
  drive_workload(full);
  drive_workload(stream);

  EXPECT_EQ(chain_aggregate_fingerprint(full),
            chain_aggregate_fingerprint(stream));
  // Full retention materializes what the aggregates summarize...
  EXPECT_EQ(full.block_count(), full.blocks().size());
  std::uint64_t mined = 0;
  for (const auto& tx : full.transactions()) mined += tx.block_number != 0;
  EXPECT_EQ(full.tx_count(), mined);
  // ...streaming does not.
  EXPECT_TRUE(stream.blocks().empty());
  EXPECT_TRUE(stream.transactions().empty());
}

// A year of idle 15 s blocks with one task in the middle: the streaming
// fast path must account exactly the blocks the full chain materializes.
// With `unmineable` set, two txs too large for any block — one over the
// byte budget, one over the gas budget — stay pending all year. Every block
// is still empty, so streaming keeps taking the fast path around them.
void expect_idle_year_exact(bool unmineable) {
  chain::ChainConfig stream_cfg;
  stream_cfg.retention = chain::Retention::Streaming;
  chain::Blockchain full{chain::ChainConfig{}}, stream(stream_cfg);
  for (chain::Blockchain* bc : {&full, &stream}) {
    bc->mint("alice", 10);
    if (unmineable) {
      chain::Transaction tx;
      tx.from = "alice";
      tx.description = "oversize";
      tx.payload_bytes = 18 * 1024;
      bc->submit(tx);
      tx.description = "over-gas";
      tx.payload_bytes = 32;
      tx.gas_used = 30'000'001;
      bc->submit(tx);
    }
    bc->schedule(10'000'000, [bc](chain::Timestamp) {
      chain::Transaction tx;
      tx.from = "alice";
      tx.description = "mid";
      tx.payload_bytes = 32;
      tx.gas_used = 1'000;
      bc->submit(tx);
    });
    bc->advance(31'536'000);
  }
  EXPECT_EQ(full.block_count(), stream.block_count());
  EXPECT_EQ(full.total_chain_bytes(), stream.total_chain_bytes());
  EXPECT_EQ(full.total_gas_used(), stream.total_gas_used());
  EXPECT_EQ(full.tx_count(), 1u);
  EXPECT_EQ(stream.tx_count(), 1u);
  EXPECT_EQ(full.pending_count(), stream.pending_count());
  EXPECT_EQ(stream.pending_count(), unmineable ? 2u : 0u);
  EXPECT_EQ(hex(full.tx_stream_digest()), hex(stream.tx_stream_digest()));
  EXPECT_EQ(full.block_count(), 31'536'000u / 15u);
}

TEST(ScaleChain, BulkEmptyBlockAccountingIsExact) {
  expect_idle_year_exact(false);
}

TEST(ScaleChain, BulkEmptyBlockAccountingIsExactWithUnmineableTxPending) {
  expect_idle_year_exact(true);
}

// ---------------------------------------------------------------------------
// Network layer: streaming runs match their full-retention twins on every
// shared observable.
// ---------------------------------------------------------------------------

using sim::NetworkConfig;
using sim::NetworkSim;
using sim::NetworkStats;

NetworkConfig scale_config() {
  NetworkConfig c;
  c.num_owners = 3;
  c.num_providers = 4;
  c.file_bytes = 400;
  c.s = 4;
  c.erasure_data = 2;
  c.erasure_parity = 1;
  c.num_audits = 3;
  c.challenged_chunks = 999;
  c.private_proofs = false;
  c.rng_seed = 11;
  return c;
}

// Everything both retention modes define, flattened to text: chain
// aggregates + digest, every owner/provider balance and recovery
// disposition, and the full stats block.
std::string sim_fingerprint(const NetworkSim& net, const NetworkConfig& c) {
  std::ostringstream out;
  const chain::Blockchain& chain = net.chain();
  out << "blocks=" << chain.block_count() << " txs=" << chain.tx_count()
      << " bytes=" << chain.total_chain_bytes()
      << " gas=" << chain.total_gas_used()
      << " payload=" << chain.total_payload_bytes()
      << " supply=" << chain.total_supply()
      << " digest=" << hex(chain.tx_stream_digest()) << "\n";
  for (std::size_t o = 0; o < c.num_owners; ++o) {
    std::string who = "owner-" + std::to_string(o);
    out << who << "=" << net.balance(who) << " lost=" << net.data_lost(o)
        << " recover=" << net.owner_can_recover(o) << "\n";
  }
  for (std::size_t p = 0; p < c.num_providers; ++p) {
    std::string who = "provider-" + std::to_string(p);
    out << who << "=" << net.balance(who) << "\n";
  }
  NetworkStats st = net.stats();
  out << "rounds=" << st.total_rounds << " pass=" << st.passes
      << " fail=" << st.fails << " timeout=" << st.timeouts
      << " gas=" << st.total_gas << " chain_bytes=" << st.chain_bytes
      << " crashes=" << st.crashes << " offline=" << st.offline_events
      << " rejoins=" << st.rejoins << " shard_losses=" << st.shard_losses
      << " slashes=" << st.slashes << " exits=" << st.provider_exits
      << " retries=" << st.timeout_retries << " repairs=" << st.repairs
      << " bytes_repaired=" << st.bytes_repaired
      << " data_loss=" << st.data_loss_events
      << " repair_gas=" << st.repair_gas << "\n"
      << "attacks=" << st.attacks_attempted
      << " detected=" << st.attacks_detected
      << " attacks_slashed=" << st.attacks_slashed
      << " attacker_profit=" << st.attacker_profit
      << " seed_replays=" << st.seed_replays_attempted
      << " replays_accepted=" << st.seed_replays_accepted << "\n";
  return out.str();
}

std::unique_ptr<NetworkSim> run_net(
    NetworkConfig c, chain::Retention retention,
    std::optional<std::uint64_t> fault_seed = std::nullopt,
    const attack::AdversaryRoster& adversaries = {}) {
  c.retention = retention;
  auto net = std::make_unique<NetworkSim>(c);
  net->set_adversaries(adversaries);
  if (fault_seed) {
    net->set_fault_schedule(sim::FaultSchedule::random(
        *fault_seed, c.num_providers,
        (c.num_audits + 2) * c.audit_period_s, 4));
  }
  net->deploy();
  net->run_to_completion();
  net->check_invariants();
  return net;
}

std::string run_mode(NetworkConfig c, chain::Retention retention,
                     std::optional<std::uint64_t> fault_seed = std::nullopt,
                     const attack::AdversaryRoster& adversaries = {}) {
  return sim_fingerprint(*run_net(c, retention, fault_seed, adversaries), c);
}

TEST(ScaleSim, HonestRunMatchesFullRetention) {
  const NetworkConfig c = scale_config();
  EXPECT_EQ(run_mode(c, chain::Retention::Full),
            run_mode(c, chain::Retention::Streaming));
}

// Contract freeze locks penalty_per_fail * num_audits of provider
// collateral per deployment, all at deploy time. At 10^6 owners the Chord
// arc skew concentrates enough contracts on one provider to exhaust the
// flat mint; deploy() must top funding up to the placement-derived demand.
// Reproduced at tiny scale with an oversized penalty: one provider carries
// several contracts whose combined lock exceeds the flat 1'000'000.
TEST(ScaleSim, ProviderFundingScalesWithPlacementLoad) {
  NetworkConfig c = scale_config();
  c.penalty_per_fail = 400'000;
  c.reward_per_audit = 600'000;  // owner side: 3 shards x 0.6M x 3 > 1M too
  EXPECT_EQ(run_mode(c, chain::Retention::Full),
            run_mode(c, chain::Retention::Streaming));
}

TEST(ScaleSim, PrivateProofsMatchFullRetention) {
  NetworkConfig c = scale_config();
  c.private_proofs = true;
  c.num_owners = 2;
  EXPECT_EQ(run_mode(c, chain::Retention::Full),
            run_mode(c, chain::Retention::Streaming));
}

TEST(ScaleSim, MisbehavingProvidersMatchFullRetention) {
  // provider-0 drops chunk 0 of everything it holds (a corrupt proof every
  // round); provider-2 holds nothing and never answers.
  const NetworkConfig c = scale_config();
  attack::AdversaryRoster adversaries;
  adversaries.by_provider = {
      std::make_shared<attack::ColludingStrategy>(7, 1000), nullptr,
      std::make_shared<attack::PartialStorageStrategy>(
          7, 0, /*answer_uncovered=*/false)};
  EXPECT_EQ(
      run_mode(c, chain::Retention::Full, std::nullopt, adversaries),
      run_mode(c, chain::Retention::Streaming, std::nullopt, adversaries));
}

TEST(ScaleSim, EveryStrategyMatchesFullRetention) {
  // One provider per strategy, each in a regime where it cheats, plus one
  // honest provider. Full retention answers Honest, GrindProof and
  // MalformedProof rounds from the retained prover and streaming from a
  // transient one; the bytes, and so every observable, must agree.
  NetworkConfig c = scale_config();
  c.num_owners = 6;
  c.num_providers = 6;
  c.private_proofs = true;  // grinding needs the randomized proof
  c.batched_settlement = true;
  c.settlement_window_s = 1800;  // settled windows: the replay target
  c.slash_after_consecutive = 2;
  attack::AdversaryRoster adversaries;
  adversaries.by_provider = {
      std::make_shared<attack::PartialStorageStrategy>(
          7, 500, /*answer_uncovered=*/true),
      std::make_shared<attack::ColludingStrategy>(7, 500),
      // Contract value 10 * 3 = 30 is below the threshold: it cheats.
      std::make_shared<attack::SelectiveStrategy>(7, /*value_threshold=*/45,
                                                  1000),
      std::make_shared<attack::SeedGrindingStrategy>(7, /*candidates=*/3),
      std::make_shared<attack::MalformedBytesStrategy>(7, 500),
      nullptr};
  const auto full =
      run_net(c, chain::Retention::Full, std::nullopt, adversaries);
  EXPECT_EQ(sim_fingerprint(*full, c),
            run_mode(c, chain::Retention::Streaming, std::nullopt, adversaries));
  // Every provider serves contracts, and every kind of outcome occurred.
  for (std::size_t p = 0; p < c.num_providers; ++p) {
    EXPECT_FALSE(full->contracts_of("provider-" + std::to_string(p)).empty())
        << "provider " << p;
  }
  const NetworkStats st = full->stats();
  EXPECT_GT(st.attacks_detected, 0u);
  EXPECT_LT(st.attacks_detected, st.attacks_attempted);  // grinds pass
  EXPECT_GT(st.attacks_slashed, 0u);
  EXPECT_GT(st.seed_replays_attempted, 0u);
  EXPECT_EQ(st.seed_replays_accepted, 0u);
}

TEST(ScaleSim, ChaosSchedulesMatchFullRetention) {
  // The first few seeds whose schedules are busy (>= 2 events), so the
  // differential covers crash/offline/shard-loss/exit + repair, not just
  // the honest path.
  NetworkConfig c = scale_config();
  c.timeout_retry_limit = 1;
  c.slash_after_consecutive = 2;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; seeds.size() < 3 && s < 200; ++s) {
    if (sim::FaultSchedule::random(s, c.num_providers,
                                   (c.num_audits + 2) * c.audit_period_s, 4)
            .events.size() >= 2) {
      seeds.push_back(s);
    }
  }
  ASSERT_EQ(seeds.size(), 3u);
  for (std::uint64_t seed : seeds) {
    NetworkConfig cs = c;
    cs.rng_seed = seed;
    EXPECT_EQ(run_mode(cs, chain::Retention::Full, seed),
              run_mode(cs, chain::Retention::Streaming, seed))
        << "fault seed " << seed;
  }
}

TEST(ScaleSim, BatchedAndWindowedSettlementMatchFullRetention) {
  NetworkConfig c = scale_config();
  c.batched_settlement = true;
  c.batch_gas_discount = true;
  c.settlement_window_s = 1800;
  EXPECT_EQ(run_mode(c, chain::Retention::Full),
            run_mode(c, chain::Retention::Streaming));
}

TEST(ScaleSim, KeyPoolMatchesAcrossRetention) {
  // A shared key pool changes which keypair serves each owner, so it is its
  // own behavior (not compared against pool-less runs) — but the two
  // retention modes must still agree under it, and so must pool sizes that
  // map owners to identical keys.
  NetworkConfig c = scale_config();
  c.key_pool = 2;
  EXPECT_EQ(run_mode(c, chain::Retention::Full),
            run_mode(c, chain::Retention::Streaming));
}

TEST(ScaleSim, StreamingIsBitIdenticalAcrossThreadCounts) {
  NetworkConfig c = scale_config();
  c.retention = chain::Retention::Streaming;
  c.key_pool = 2;
  const unsigned original = parallel::thread_count();
  parallel::set_thread_count(1);
  const std::string baseline = run_mode(c, chain::Retention::Streaming, 3);
  for (unsigned width : {2u, 8u}) {
    parallel::set_thread_count(width);
    EXPECT_EQ(run_mode(c, chain::Retention::Streaming, 3), baseline)
        << "diverged at " << width << " threads";
  }
  parallel::set_thread_count(original);
}

// ---------------------------------------------------------------------------
// Aggregate plumbing and retention bookkeeping.
// ---------------------------------------------------------------------------

TEST(ScaleSim, StatsWalkOracleAgreesUnderFullRetention) {
  NetworkConfig c = scale_config();
  NetworkSim net(c);
  net.deploy();
  net.run_to_completion();
  const NetworkStats a = net.stats();
  const NetworkStats w = net.stats_by_walk();
  EXPECT_EQ(a.total_rounds, w.total_rounds);
  EXPECT_EQ(a.passes, w.passes);
  EXPECT_EQ(a.fails, w.fails);
  EXPECT_EQ(a.timeouts, w.timeouts);
  EXPECT_EQ(a.total_gas, w.total_gas);
  EXPECT_EQ(a.timeout_retries, w.timeout_retries);
}

TEST(ScaleSim, StatsWalkThrowsUnderStreaming) {
  NetworkConfig c = scale_config();
  c.retention = chain::Retention::Streaming;
  NetworkSim net(c);
  net.deploy();
  net.run_to_completion();
  EXPECT_THROW(net.stats_by_walk(), std::logic_error);
}

TEST(ScaleSim, StreamingBoundsRoundAndEventHistory) {
  NetworkConfig c = scale_config();
  c.retention = chain::Retention::Streaming;
  c.num_audits = 5;
  NetworkSim net(c);
  net.deploy();
  net.run_to_completion();
  std::size_t contracts = 0;
  for (std::size_t p = 0; p < c.num_providers; ++p) {
    for (const auto* ct : net.contracts_of("provider-" + std::to_string(p))) {
      ++contracts;
      EXPECT_LE(ct->rounds().size(), 2u) << ct->address();
      EXPECT_LE(ct->events().size(), 4u) << ct->address();
      // The counters still carry the full history the ring no longer does.
      EXPECT_EQ(ct->passes() + ct->fails() + ct->timeouts(),
                ct->rounds_completed());
      EXPECT_EQ(ct->rounds_challenged(), c.num_audits);
    }
  }
  EXPECT_EQ(contracts, c.num_owners * (c.erasure_data + c.erasure_parity));
}

TEST(ScaleSim, RunToCompletionNamesStuckContracts) {
  // An unresponsive-forever provider with an effectively unbounded retry
  // budget: its rounds requeue past every extension epoch, the contract
  // never closes, and run_to_completion must throw naming it.
  NetworkConfig c = scale_config();
  c.num_owners = 1;
  c.erasure_parity = 0;  // two shards, fewer contracts in the blast radius
  c.timeout_retry_limit = 1'000'000;
  c.max_repairs = 0;  // guard = 2 extension epochs: fail fast
  sim::FaultSchedule schedule;
  schedule.events.push_back({/*at=*/1, /*provider=*/0, sim::FaultKind::Offline,
                             /*duration_s=*/2'000'000'000});
  schedule.events.push_back({/*at=*/1, /*provider=*/1, sim::FaultKind::Offline,
                             /*duration_s=*/2'000'000'000});
  schedule.events.push_back({/*at=*/1, /*provider=*/2, sim::FaultKind::Offline,
                             /*duration_s=*/2'000'000'000});
  schedule.events.push_back({/*at=*/1, /*provider=*/3, sim::FaultKind::Offline,
                             /*duration_s=*/2'000'000'000});
  NetworkSim net(c);
  net.set_fault_schedule(schedule);
  net.deploy();
  try {
    net.run_to_completion();
    FAIL() << "expected std::logic_error naming the stuck contracts";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("failed to complete"), std::string::npos) << what;
    EXPECT_NE(what.find("contract-"), std::string::npos) << what;
    EXPECT_NE(what.find("rounds "), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace dsaudit
