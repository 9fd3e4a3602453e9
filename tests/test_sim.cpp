// Network-simulation tests: population-scale behaviour of the full system —
// audit outcomes, money conservation, chain growth, failure recovery, and
// the fault engine's exact churn/repair accounting under hand-written
// schedules (the randomized sweep lives in test_chaos.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "econ/cost_model.hpp"
#include "sim/network_sim.hpp"
#include "storage/codec.hpp"
#include "storage/dht.hpp"

namespace dsaudit::sim {
namespace {

// A data-dropping provider: holds every chunk but chunk 0 and sends a
// corrupt proof on every challenge.
std::shared_ptr<const attack::AdversaryStrategy> drops_data() {
  return std::make_shared<attack::ColludingStrategy>(7, 1000);
}

// An unresponsive provider: holds nothing, never answers.
std::shared_ptr<const attack::AdversaryStrategy> unresponsive() {
  return std::make_shared<attack::PartialStorageStrategy>(
      7, 0, /*answer_uncovered=*/false);
}

// Every shard provider p holds is lost before the first challenge.
FaultEvent shard_loss(std::size_t p) {
  return {1, p, FaultKind::ShardLoss, 0};
}

NetworkConfig small_config() {
  NetworkConfig c;
  c.num_owners = 4;
  c.num_providers = 5;
  c.file_bytes = 1200;
  c.s = 5;
  c.erasure_data = 2;
  c.erasure_parity = 1;
  c.num_audits = 3;
  c.challenged_chunks = 999;  // challenge every chunk: deterministic outcomes
  c.private_proofs = true;
  return c;
}

// Every deployment's and repair's prover stream (the private proofs'
// masking randomness) and every key slot's keygen stream is seeded
// rng_seed ^ offset. XOR with one seed is a bijection, so the streams are
// distinct for every seed iff the offsets are: check all three families
// together, at 10^6 deployments and keys and 10^4 repairs.
TEST(NetworkSim, RngStreamOffsetsArePairwiseDistinct) {
  constexpr std::uint64_t kDeployments = 1'000'000, kKeys = 1'000'000,
                          kRepairs = 10'000;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(kDeployments + kKeys + kRepairs);
  for (std::uint64_t i = 0; i < kDeployments; ++i) {
    offsets.push_back(stream_offset(kDeploymentStreamStep, i));
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    offsets.push_back(stream_offset(kKeyStreamStep, k));
  }
  for (std::uint64_t r = 0; r < kRepairs; ++r) {
    offsets.push_back(stream_offset(kRepairStreamStep, r));
  }
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()), offsets.end());
  EXPECT_NE(offsets.front(), 0u);  // no stream runs on the bare seed
}

TEST(NetworkSim, AllHonestEveryAuditPasses) {
  NetworkSim net(small_config());
  net.deploy();
  net.run_to_completion();
  auto st = net.stats();
  // 4 owners x 3 shards x 3 audits.
  EXPECT_EQ(st.total_rounds, 4u * 3u * 3u);
  EXPECT_EQ(st.passes, st.total_rounds);
  EXPECT_EQ(st.fails, 0u);
  EXPECT_EQ(st.timeouts, 0u);
  // Gas settlement is deterministic: every private-proof round costs exactly
  // the paper's calibrated 589,000-gas anchor, so the network total is an
  // exact constant on any machine and at any thread count.
  EXPECT_EQ(st.total_gas, st.total_rounds * 589'000u);
  EXPECT_GT(st.chain_bytes, 0u);
  for (std::size_t o = 0; o < 4; ++o) EXPECT_TRUE(net.owner_can_recover(o));
}

TEST(NetworkSim, MoneyIsConserved) {
  NetworkSim net(small_config());
  net.deploy();
  std::uint64_t before = net.total_money();
  net.run_to_completion();
  EXPECT_EQ(net.total_money(), before);
}

TEST(NetworkSim, DataDroppingProviderIsCaughtAndSlashed) {
  NetworkConfig c = small_config();
  NetworkSim net(c);
  net.set_adversary(0, drops_data());
  net.deploy();
  // Balance snapshot is post-freeze: the collateral is already escrowed.
  std::uint64_t post_freeze = net.balance("provider-0");
  net.run_to_completion();
  auto st = net.stats();
  // provider-0's contracts fail every round (all chunks challenged); others
  // pass.
  auto bad_contracts = net.contracts_of("provider-0");
  std::uint64_t expected_fails = 0;
  for (const auto* ctr : bad_contracts) {
    EXPECT_EQ(ctr->fails(), c.num_audits);
    expected_fails += ctr->fails();
  }
  EXPECT_EQ(st.fails, expected_fails);
  if (!bad_contracts.empty()) {
    // All rounds failed: no rewards earned and no collateral returned, so the
    // balance stays at the post-freeze floor — strictly below what honesty
    // would have paid out.
    std::uint64_t if_honest =
        post_freeze + bad_contracts.size() * c.num_audits *
                          (c.reward_per_audit + c.penalty_per_fail);
    EXPECT_EQ(net.balance("provider-0"), post_freeze);
    EXPECT_LT(net.balance("provider-0"), if_honest);
  }
  EXPECT_EQ(st.passes + st.fails, st.total_rounds);
  // Money, liveness, no honest round charged, and recoverability (the
  // cheater's shards still count: its flags are the fault engine's books).
  net.check_invariants();
}

TEST(NetworkSim, UnresponsiveProviderTimesOutEverywhere) {
  NetworkSim net(small_config());
  net.set_adversary(1, unresponsive());
  net.deploy();
  net.run_to_completion();
  for (const auto* ctr : net.contracts_of("provider-1")) {
    EXPECT_EQ(ctr->timeouts(), ctr->rounds_completed());
  }
}

TEST(NetworkSim, ErasureCodingSurvivesOneBadProvider) {
  // 2-of-3 coding: losing any single provider's shards must not lose data.
  NetworkSim net(small_config());
  net.set_fault_schedule(FaultSchedule{{shard_loss(2)}});
  net.deploy();
  net.run_to_completion();
  net.check_invariants();
  for (std::size_t o = 0; o < 4; ++o) {
    EXPECT_TRUE(net.owner_can_recover(o)) << "owner " << o;
    EXPECT_FALSE(net.data_lost(o)) << "owner " << o;
  }
}

TEST(NetworkSim, TooManyBadProvidersLosesSomeone) {
  // With every provider losing its shards, recovery must fail — and the
  // loss is declared, not silent.
  NetworkSim net(small_config());
  FaultSchedule all;
  for (std::size_t p = 0; p < 5; ++p) all.events.push_back(shard_loss(p));
  net.set_fault_schedule(all);
  net.deploy();
  net.run_to_completion();
  net.check_invariants();
  for (std::size_t o = 0; o < 4; ++o) {
    EXPECT_FALSE(net.owner_can_recover(o));
    EXPECT_TRUE(net.data_lost(o));
  }
}

TEST(NetworkSim, ChainGrowthScalesWithPopulation) {
  NetworkConfig small = small_config();
  small.num_owners = 2;
  NetworkConfig big = small_config();
  big.num_owners = 6;
  NetworkSim a(small), b(big);
  a.deploy();
  a.run_to_completion();
  b.deploy();
  b.run_to_completion();
  // 3x the owners => ~3x the audit transactions; block overhead damps the
  // byte ratio but it must clearly grow.
  EXPECT_GT(b.stats().total_gas, 2 * a.stats().total_gas);
  EXPECT_GT(b.stats().chain_bytes, a.stats().chain_bytes);
}

TEST(NetworkSim, Validation) {
  NetworkConfig c = small_config();
  c.num_owners = 0;
  EXPECT_THROW(NetworkSim{c}, std::invalid_argument);
  NetworkSim ok(small_config());
  EXPECT_THROW(ok.run_to_completion(), std::logic_error);  // before deploy
  ok.deploy();
  EXPECT_THROW(ok.deploy(), std::logic_error);  // double deploy
  EXPECT_THROW(ok.set_adversary(0, drops_data()),
               std::logic_error);  // after deploy
}

TEST(NetworkSim, NonPrivateModeAlsoRuns) {
  NetworkConfig c = small_config();
  c.private_proofs = false;
  c.num_owners = 2;
  NetworkSim net(c);
  net.deploy();
  net.run_to_completion();
  EXPECT_EQ(net.stats().passes, net.stats().total_rounds);
}

// ---------------------------------------------------------------------------
// Fault engine: hand-written schedules with exact-constant accounting.
// ---------------------------------------------------------------------------

// Mirrors deploy()'s DHT placement so a test can pick its victim before the
// sim exists: shard (o, sh) lands on the sh-th ring successor of
// "owner-<o>/archive". Placement depends only on the name set, not the seed.
std::vector<std::vector<std::string>> predicted_placements(
    const NetworkConfig& c) {
  storage::ChordRing ring;
  for (std::size_t p = 0; p < c.num_providers; ++p) {
    ring.join("provider-" + std::to_string(p));
  }
  const std::size_t shards = c.erasure_data + c.erasure_parity;
  std::vector<std::vector<std::string>> out(c.num_owners);
  for (std::size_t o = 0; o < c.num_owners; ++o) {
    auto holders = ring.successors(
        storage::ring_hash("owner-" + std::to_string(o) + "/archive"), shards);
    for (std::size_t sh = 0; sh < shards; ++sh) {
      out[o].push_back(*ring.node_name(holders[sh % holders.size()]));
    }
  }
  return out;
}

struct Victim {
  std::string name;
  std::size_t index = 0;
  std::uint64_t contracts = 0;  // deployments it holds
};

// owner-0's shard-0 holder: guaranteed at least one contract.
Victim pick_victim(const NetworkConfig& c) {
  auto where = predicted_placements(c);
  Victim v;
  v.name = where[0][0];
  v.index = std::stoul(v.name.substr(v.name.find('-') + 1));
  for (const auto& row : where) {
    for (const auto& p : row) v.contracts += (p == v.name);
  }
  return v;
}

// Tag size of a repaired shard: small_config shards are ceil(1200/2) = 600
// bytes, re-encoded at s blocks per chunk with one 32-byte sigma per chunk.
std::size_t repair_tag_bytes(const NetworkConfig& c) {
  const std::size_t shard_len =
      (c.file_bytes + c.erasure_data - 1) / c.erasure_data;
  return storage::encode_file(std::vector<std::uint8_t>(shard_len), c.s)
             .num_chunks() *
         32;
}

TEST(NetworkSimFaults, CrashedProviderIsSlashedAndItsShardsRepaired) {
  NetworkConfig c = small_config();
  c.slash_after_consecutive = 2;
  const Victim v = pick_victim(c);
  ASSERT_GE(v.contracts, 1u);

  NetworkSim net(c);
  FaultSchedule sched;
  sched.events.push_back({100, v.index, FaultKind::Crash, 0});
  net.set_fault_schedule(sched);
  net.deploy();
  // Collateral is already escrowed; a slashed provider never gets it back,
  // so its balance must end exactly where it stands now.
  const std::uint64_t post_freeze = net.balance(v.name);
  net.run_to_completion();
  net.check_invariants();

  auto st = net.stats();
  EXPECT_EQ(st.crashes, 1u);
  EXPECT_EQ(st.slashes, v.contracts);
  EXPECT_EQ(st.timeouts, 2u * v.contracts);  // two misses, then slashed
  EXPECT_EQ(st.timeout_retries, 0u);         // retries are off here
  EXPECT_EQ(st.fails, 0u);
  // Each slashed contract settled 2 of its 3 rounds; its repair contract
  // runs the remaining 1 — the network-wide round count is unchanged.
  EXPECT_EQ(st.total_rounds, 36u);
  EXPECT_EQ(st.passes, st.total_rounds - st.timeouts);
  EXPECT_EQ(st.repairs, v.contracts);
  EXPECT_EQ(st.bytes_repaired, v.contracts * 600u);  // ceil(1200/2) per shard
  EXPECT_EQ(st.data_loss_events, 0u);

  // Repair pricing is deterministic in the replacement shard's tag size.
  econ::AuditCostModel model;
  EXPECT_EQ(st.repair_gas, v.contracts * model.repair_gas(repair_tag_bytes(c)));

  EXPECT_EQ(net.balance(v.name), post_freeze);
  for (std::size_t o = 0; o < c.num_owners; ++o) {
    EXPECT_TRUE(net.owner_can_recover(o)) << "owner " << o;
    EXPECT_FALSE(net.data_lost(o));
  }
}

TEST(NetworkSimFaults, ShardLossFailsProofsThenSlashesAndRepairs) {
  NetworkConfig c = small_config();
  c.slash_after_consecutive = 2;
  const Victim v = pick_victim(c);

  NetworkSim net(c);
  FaultSchedule sched;
  sched.events.push_back({100, v.index, FaultKind::ShardLoss, 0});
  net.set_fault_schedule(sched);
  net.deploy();
  net.run_to_completion();
  net.check_invariants();

  auto st = net.stats();
  // Unlike a crash, the provider keeps answering — over zeroed data, so the
  // proofs verify false and the consecutive-miss counter trips the slash.
  EXPECT_EQ(st.shard_losses, 1u);
  EXPECT_EQ(st.crashes, 0u);
  EXPECT_EQ(st.fails, 2u * v.contracts);
  EXPECT_EQ(st.timeouts, 0u);
  EXPECT_EQ(st.slashes, v.contracts);
  EXPECT_EQ(st.repairs, v.contracts);
  EXPECT_EQ(st.bytes_repaired, v.contracts * 600u);
  EXPECT_EQ(st.total_rounds, 36u);
  EXPECT_EQ(st.passes, st.total_rounds - st.fails);
  for (std::size_t o = 0; o < c.num_owners; ++o) {
    EXPECT_TRUE(net.owner_can_recover(o)) << "owner " << o;
  }
}

TEST(NetworkSimFaults, EarlyExitAbortsInFlightRoundAndRepairsElsewhere) {
  NetworkConfig c = small_config();
  const Victim v = pick_victim(c);

  NetworkSim net(c);
  FaultSchedule sched;
  // Round 0 is challenged at t=3600 and verifies at t=4200: at t=3700 every
  // contract of the victim is mid-round (Prove) and must abort cleanly.
  sched.events.push_back({3700, v.index, FaultKind::EarlyExit, 0});
  net.set_fault_schedule(sched);
  net.deploy();
  net.run_to_completion();
  net.check_invariants();

  auto st = net.stats();
  EXPECT_EQ(st.provider_exits, v.contracts);
  EXPECT_EQ(st.slashes, 0u);
  EXPECT_EQ(st.timeouts, 0u);
  EXPECT_EQ(st.fails, 0u);
  // The aborted rounds never settled (rounds_completed excludes them), so
  // each repair contract replays all 3 audits: the total is unchanged and
  // every settled round passed.
  EXPECT_EQ(st.total_rounds, 36u);
  EXPECT_EQ(st.passes, 36u);
  EXPECT_EQ(st.repairs, v.contracts);
  EXPECT_EQ(st.data_loss_events, 0u);
  for (const auto* ctr : net.contracts_of(v.name)) {
    EXPECT_EQ(ctr->close_reason(), contract::CloseReason::ProviderExit);
  }
  for (std::size_t o = 0; o < c.num_owners; ++o) {
    EXPECT_TRUE(net.owner_can_recover(o)) << "owner " << o;
  }
}

TEST(NetworkSimFaults, DelayedProofIsSavedByTimeoutRetry) {
  NetworkConfig c = small_config();
  c.timeout_retry_limit = 1;
  const Victim v = pick_victim(c);

  NetworkSim net(c);
  FaultSchedule sched;
  // Round 1's challenge (t=7200) lands in the delay gap [7200, 7800): the
  // deadline passes, the retry re-issues at t=8400 and succeeds.
  sched.events.push_back({7200, v.index, FaultKind::DelayProof, 0});
  net.set_fault_schedule(sched);
  net.deploy();
  net.run_to_completion();
  net.check_invariants();

  auto st = net.stats();
  EXPECT_EQ(st.timeout_retries, v.contracts);
  EXPECT_EQ(st.timeouts, 0u);
  EXPECT_EQ(st.fails, 0u);
  EXPECT_EQ(st.total_rounds, 36u);
  EXPECT_EQ(st.passes, 36u);
  EXPECT_EQ(st.repairs, 0u);
  EXPECT_EQ(st.slashes, 0u);
}

TEST(NetworkSimFaults, DroppedProofExhaustsRetryAndCostsThePenalty) {
  NetworkConfig c = small_config();
  c.timeout_retry_limit = 1;
  const Victim v = pick_victim(c);

  NetworkSim net(c);
  FaultSchedule sched;
  // Drop gap [7200, 7200 + 2*600 + 1): the first retry (t=8400) also fails,
  // the retry budget is spent, and the round settles Timeout.
  sched.events.push_back({7200, v.index, FaultKind::DropProof, 0});
  net.set_fault_schedule(sched);
  net.deploy();
  net.run_to_completion();
  net.check_invariants();

  auto st = net.stats();
  EXPECT_EQ(st.timeout_retries, v.contracts);
  EXPECT_EQ(st.timeouts, v.contracts);
  EXPECT_EQ(st.fails, 0u);
  EXPECT_EQ(st.total_rounds, 36u);
  EXPECT_EQ(st.passes, 36u - v.contracts);
  EXPECT_EQ(st.repairs, 0u);  // transient: data was never at risk
  EXPECT_EQ(st.slashes, 0u);
}

TEST(NetworkSimFaults, OfflineProviderRejoinsAndCountersSaySo) {
  NetworkConfig c = small_config();
  const Victim v = pick_victim(c);

  NetworkSim net(c);
  FaultSchedule sched;
  // Gap [4300, 6300) sits strictly between round 0's verify (4200) and
  // round 1's challenge (7200): no round is touched, only the churn
  // counters move.
  sched.events.push_back({4300, v.index, FaultKind::Offline, 2000});
  net.set_fault_schedule(sched);
  net.deploy();
  net.run_to_completion();
  net.check_invariants();

  auto st = net.stats();
  EXPECT_EQ(st.offline_events, 1u);
  EXPECT_EQ(st.rejoins, 1u);
  EXPECT_EQ(st.timeouts, 0u);
  EXPECT_EQ(st.total_rounds, 36u);
  EXPECT_EQ(st.passes, 36u);
  EXPECT_EQ(st.repairs, 0u);
}

}  // namespace
}  // namespace dsaudit::sim
