// The settlement window's transient heap, counted exactly.
//
// This executable alone links tests/support/counting_heap.cpp, which
// replaces the global operator new: every byte the program allocates is
// counted, so a bound on the live-heap high-water is a bound on what the
// code holds, independent of the allocator's retention and of RSS noise.
#include <gtest/gtest.h>

#include <cstdio>

#include "audit/protocol.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/network_sim.hpp"
#include "support/counting_heap.hpp"

namespace dsaudit {
namespace {

/// One audit of 10^4 streaming basic owners, shaped like auditbench's
/// scale-basic population (124-byte files, s = 4, one data shard, k = 1,
/// a 16-key pool, batched settlement): every owner's round falls due at the
/// same instants, so one settlement window holds all 10^4 rounds. The
/// figure is the live-heap high-water of the audit run minus the live heap
/// at its start (right after deploy), per round: the challenge instant's
/// pending proofs and txs, the settle instant's window, verify_settlement's
/// terms and MSM scratch. At one thread the count repeats to the byte.
///
/// Measured: 2,973 B a round (src/contract/README.md breaks it down by
/// holder). The bound is that plus 25%.
TEST(SettlementWindow, TransientBytesPerRound) {
  constexpr double kBoundBytesPerRound = 2973 * 1.25;

  sim::NetworkConfig c;
  c.num_owners = 10'000;
  c.num_providers = 64;
  c.file_bytes = 124;
  c.s = 4;
  c.erasure_data = 1;
  c.erasure_parity = 0;
  c.num_audits = 1;
  c.challenged_chunks = 1;
  c.private_proofs = false;
  c.batched_settlement = true;
  c.batch_gas_discount = true;
  c.retention = chain::Retention::Streaming;
  c.key_pool = 16;
  c.rng_seed = 42;

  const unsigned original = parallel::thread_count();
  parallel::set_thread_count(1);
  double per_round = 0;
  {
    sim::NetworkSim net(c);
    net.deploy();
    const std::size_t start = counting_heap::live_bytes();
    counting_heap::reset_high_water();
    net.run_to_completion();
    const std::size_t high = counting_heap::high_water_bytes();
    const sim::NetworkStats st = net.stats();
    ASSERT_EQ(st.total_rounds, c.num_owners);
    EXPECT_EQ(st.passes, c.num_owners);
    per_round = static_cast<double>(high - start) /
                static_cast<double>(st.total_rounds);
  }
  parallel::set_thread_count(original);
  std::printf("settlement window: %.0f transient bytes per round\n", per_round);
  RecordProperty("transient_bytes_per_round", static_cast<int>(per_round));
  EXPECT_LE(per_round, kBoundBytesPerRound);
}

/// A basic round's instance carries no private proof: the Eq. 2 shape is
/// boxed, its copies are deep, and an instance copy owns its own R.
TEST(SettlementWindow, PrivateProofBoxCopiesDeep) {
  audit::SettlementInstance a;
  EXPECT_FALSE(a.priv);
  audit::ProofPrivate p;
  p.big_r = ff::Fp12::one();
  p.y_prime = ff::Fr::from_u64(7);
  a.priv = p;
  ASSERT_TRUE(a.priv);
  audit::SettlementInstance b = a;
  ASSERT_TRUE(b.priv);
  EXPECT_NE(&*a.priv, &*b.priv);
  b.priv->y_prime = ff::Fr::from_u64(8);
  EXPECT_EQ(a.priv->y_prime, ff::Fr::from_u64(7));
  a.priv = std::optional<audit::ProofPrivate>{};
  EXPECT_FALSE(a.priv);
  EXPECT_TRUE(b.priv);
}

}  // namespace
}  // namespace dsaudit
