// The parallel layer's two contracts, tested together:
//   1. the pool itself is a correct fork/join primitive (every index runs
//      exactly once, exceptions propagate, nesting collapses inline);
//   2. every sharded hot path is a pure optimization — msm, multi_pairing,
//      Prover::prove and the whole NetworkSim produce identical results at
//      1, 2 and 8 threads. The pre-existing naive-oracle differential tests
//      pin the sequential paths; these pin the sharded paths to them.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "attack/adversary.hpp"
#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "pairing/pairing.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/network_sim.hpp"
#include "storage/codec.hpp"

namespace dsaudit {
namespace {

using audit::Challenge;
using audit::Fr;
using curve::G1;
using curve::G2;
using primitives::SecureRng;

// Holds every chunk but chunk 0 and sends a corrupt proof on every challenge.
std::shared_ptr<const attack::AdversaryStrategy> drops_data() {
  return std::make_shared<attack::ColludingStrategy>(7, 1000);
}

/// Runs `body` under each thread count and hands every run's result to
/// `equal` against the single-thread baseline. Restores the environment
/// default afterwards even if an assertion throws.
template <typename Result>
void for_thread_counts(const std::function<Result()>& body,
                       const std::function<void(const Result&, const Result&,
                                                unsigned)>& equal) {
  struct Restore {
    ~Restore() { parallel::set_thread_count(0); }
  } restore;
  parallel::set_thread_count(1);
  const Result baseline = body();
  for (unsigned threads : {2u, 8u}) {
    parallel::set_thread_count(threads);
    ASSERT_EQ(parallel::thread_count(), threads);
    equal(baseline, body(), threads);
  }
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  parallel::set_thread_count(4);
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel::parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  parallel::set_thread_count(0);
}

TEST(ThreadPool, RangesCoverWithoutOverlap) {
  parallel::set_thread_count(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel::parallel_for_ranges(hits.size(),
                                [&](std::size_t b, std::size_t e) {
                                  for (std::size_t i = b; i < e; ++i) {
                                    hits[i].fetch_add(1);
                                  }
                                });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  // A fixed max_chunks bounds the split regardless of pool width.
  std::atomic<int> chunks{0};
  parallel::parallel_for_ranges(
      100, [&](std::size_t, std::size_t) { chunks.fetch_add(1); }, 2);
  EXPECT_LE(chunks.load(), 2);
  parallel::set_thread_count(0);
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  parallel::set_thread_count(4);
  EXPECT_THROW(parallel::parallel_for(
                   64,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ok{0};
  parallel::parallel_for(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
  parallel::set_thread_count(0);
}

TEST(ThreadPool, FailFastStopsClaimingIndicesAfterAThrow) {
  // A failed task must not just propagate — remaining unclaimed indices are
  // abandoned, so a huge parallel_for dies promptly instead of grinding on.
  // What no schedule can move: the thread whose task threw records the
  // failure before it could claim again, so it runs no further index. Index
  // 0 is claimed first; its task throws only once indices 1..3 run on the
  // three other threads, and those block until the throw, so the thrower is
  // free to claim while almost the whole range is still unclaimed.
  parallel::set_thread_count(4);
  constexpr std::size_t n = 100'000;
  std::atomic<std::size_t> blocked{0}, on_thrower{0};
  std::atomic<bool> thrown{false};
  std::atomic<std::thread::id> thrower{};
  EXPECT_THROW(parallel::parallel_for(
                   n,
                   [&](std::size_t i) {
                     if (i == 0) {
                       while (blocked.load() < 3) std::this_thread::yield();
                       thrower = std::this_thread::get_id();
                       thrown = true;
                       throw std::runtime_error("first");
                     }
                     if (i <= 3) {
                       blocked.fetch_add(1);
                       while (!thrown.load()) std::this_thread::yield();
                     }
                     if (std::this_thread::get_id() == thrower.load()) {
                       on_thrower.fetch_add(1);
                     }
                   }),
               std::runtime_error);
  EXPECT_EQ(on_thrower.load(), 0u);
  // The single-thread inline path fails fast trivially (index order).
  parallel::set_thread_count(1);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(parallel::parallel_for(n,
                                      [&](std::size_t i) {
                                        if (i == 0) throw std::runtime_error("first");
                                        executed.fetch_add(1);
                                      }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 0u);
  parallel::set_thread_count(0);
}

TEST(ThreadPool, NestedCallsRunInline) {
  parallel::set_thread_count(4);
  std::atomic<int> total{0};
  parallel::parallel_for(4, [&](std::size_t) {
    EXPECT_TRUE(parallel::in_worker());
    // The nested call must not deadlock waiting for occupied workers.
    parallel::parallel_for(5, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 20);
  EXPECT_FALSE(parallel::in_worker());
  parallel::set_thread_count(0);
}

// ---------------------------------------------------------------------------
// Cross-thread-count differential oracles.
// ---------------------------------------------------------------------------

TEST(ParallelDifferential, MsmAllPathsMatchSingleThread) {
  struct Results {
    G1 cold;
    G1 precomputed;
    G1 subset;
    G2 cold_g2;
  };
  for_thread_counts<Results>(
      [] {
        auto rng = SecureRng::deterministic(700);
        std::vector<G1> pts;
        std::vector<Fr> sc;
        for (int i = 0; i < 600; ++i) {
          pts.push_back(curve::g1_random(rng));
          sc.push_back(i % 11 == 0 ? Fr::zero() : Fr::random(rng));
        }
        sc[1] = Fr::zero() - Fr::one();  // 254-bit bound inside the shard set
        Results r;
        r.cold = curve::msm<G1>(pts, sc);
        auto tbl = curve::msm_precompute<G1>(pts);
        r.precomputed = curve::msm_precomputed(tbl, sc);
        std::vector<std::uint64_t> idx;
        std::vector<Fr> subset_sc;
        for (int i = 0; i < 300; ++i) {
          idx.push_back(static_cast<std::uint64_t>((i * 7) % pts.size()));
          subset_sc.push_back(Fr::random(rng));
        }
        // Duplicated indices: the same base (and its phi image) is read by
        // more than one scalar column.
        for (std::size_t j : {0u, 1u, 1u, 150u, 299u}) {
          idx.push_back(idx[j]);
          subset_sc.push_back(Fr::random(rng));
        }
        r.subset = curve::msm_precomputed(tbl, idx, subset_sc);
        // Oracle at every thread count: the cold MSM over the gathered bases.
        std::vector<G1> gathered;
        for (std::uint64_t i : idx) gathered.push_back(pts[i]);
        EXPECT_EQ(r.subset, curve::msm<G1>(gathered, subset_sc))
            << parallel::thread_count() << " threads";
        std::vector<G2> pts2;
        std::vector<Fr> sc2;
        for (int i = 0; i < 96; ++i) {
          pts2.push_back(curve::g2_random(rng));
          sc2.push_back(Fr::random(rng));
        }
        r.cold_g2 = curve::msm<G2>(pts2, sc2);
        return r;
      },
      [](const Results& base, const Results& got, unsigned threads) {
        EXPECT_EQ(base.cold, got.cold) << threads << " threads";
        EXPECT_EQ(base.precomputed, got.precomputed) << threads << " threads";
        EXPECT_EQ(base.subset, got.subset) << threads << " threads";
        EXPECT_EQ(base.cold_g2, got.cold_g2) << threads << " threads";
      });
}

TEST(ParallelDifferential, MultiPairingBitIdenticalAcrossThreadCounts) {
  // Sharded Miller grouping multiplies group values back together; squaring
  // distributes over products, so the result is the exact same field element
  // — assert bit-level equality, not just GT equality.
  for_thread_counts<std::vector<ff::Fp12>>(
      [] {
        auto rng = SecureRng::deterministic(701);
        std::vector<ff::Fp12> out;
        for (std::size_t n : {2u, 3u, 4u, 7u}) {
          std::vector<std::pair<G1, G2>> pairs;
          for (std::size_t i = 0; i < n; ++i) {
            pairs.emplace_back(curve::g1_random(rng), curve::g2_random(rng));
          }
          out.push_back(pairing::multi_pairing(pairs));
        }
        return out;
      },
      [](const std::vector<ff::Fp12>& base, const std::vector<ff::Fp12>& got,
         unsigned threads) {
        ASSERT_EQ(base.size(), got.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
          EXPECT_TRUE(base[i] == got[i]) << threads << " threads, product " << i;
        }
      });
}

TEST(ParallelDifferential, ProverEmitsIdenticalProofBytes) {
  struct Results {
    std::vector<std::uint8_t> basic;
    std::vector<std::uint8_t> priv;
    bool basic_ok = false;
    bool priv_ok = false;
  };
  for_thread_counts<Results>(
      [] {
        auto rng = SecureRng::deterministic(702);
        auto kp = audit::keygen(10, rng);
        std::vector<std::uint8_t> data(6000);
        rng.fill(data);
        auto file = storage::encode_file(data, 10);
        Fr name = Fr::random(rng);
        auto tag = audit::generate_tags(kp.sk, kp.pk, file, name, 4);
        audit::Prover prover(kp.pk, file, tag);
        Challenge chal;
        auto c1 = rng.bytes32(), c2 = rng.bytes32();
        std::copy(c1.begin(), c1.end(), chal.c1.begin());
        std::copy(c2.begin(), c2.end(), chal.c2.begin());
        chal.r = Fr::random(rng);
        chal.k = file.num_chunks();
        Results r;
        r.basic = audit::serialize(prover.prove(chal));
        auto proof_rng = SecureRng::deterministic(703);
        r.priv = audit::serialize(prover.prove_private(chal, proof_rng));
        audit::Verifier verifier(kp.pk);
        auto basic = audit::decode_basic(r.basic);
        auto priv = audit::decode_private(r.priv);
        r.basic_ok = basic && verifier.verify(name, file.num_chunks(), chal, *basic);
        r.priv_ok =
            priv && verifier.verify_private(name, file.num_chunks(), chal, *priv);
        return r;
      },
      [](const Results& base, const Results& got, unsigned threads) {
        EXPECT_TRUE(got.basic_ok && got.priv_ok) << threads << " threads";
        EXPECT_EQ(base.basic, got.basic) << threads << " threads";
        EXPECT_EQ(base.priv, got.priv) << threads << " threads";
      });
}

TEST(ParallelDifferential, BatchedSettlementIdenticalAcrossThreadCounts) {
  // Deferred settlement enqueues rounds from concurrent prepare stages; the
  // canonical transcript ordering inside BatchSettlement must make batch
  // outcomes, gas (with the discount row) and the ledger independent of the
  // pool width.
  struct Results {
    sim::NetworkStats stats;
    std::vector<std::uint64_t> balances;
    std::uint64_t batches = 0;
    std::uint64_t culprits = 0;
  };
  for_thread_counts<Results>(
      [] {
        sim::NetworkConfig c;
        c.num_owners = 2;
        c.num_providers = 3;
        c.file_bytes = 1000;
        c.s = 5;
        c.erasure_data = 2;
        c.erasure_parity = 1;
        c.num_audits = 2;
        c.challenged_chunks = 999;
        c.private_proofs = true;
        c.batched_settlement = true;
        c.batch_gas_discount = true;
        sim::NetworkSim net(c);
        net.set_adversary(1, drops_data());
        net.deploy();
        net.run_to_completion();
        Results r;
        r.stats = net.stats();
        for (std::size_t o = 0; o < c.num_owners; ++o) {
          r.balances.push_back(net.balance("owner-" + std::to_string(o)));
        }
        for (std::size_t p = 0; p < c.num_providers; ++p) {
          r.balances.push_back(net.balance("provider-" + std::to_string(p)));
        }
        r.batches = net.batch_settlement()->stats().batches;
        r.culprits = net.batch_settlement()->stats().culprits;
        return r;
      },
      [](const Results& base, const Results& got, unsigned threads) {
        EXPECT_EQ(base.stats.passes, got.stats.passes) << threads << " threads";
        EXPECT_EQ(base.stats.fails, got.stats.fails) << threads << " threads";
        EXPECT_EQ(base.stats.total_gas, got.stats.total_gas)
            << threads << " threads";
        EXPECT_EQ(base.stats.chain_bytes, got.stats.chain_bytes)
            << threads << " threads";
        EXPECT_EQ(base.balances, got.balances) << threads << " threads";
        EXPECT_EQ(base.batches, got.batches) << threads << " threads";
        EXPECT_EQ(base.culprits, got.culprits) << threads << " threads";
      });
}

TEST(ParallelDifferential, DeployKeysTagsAndLedgerByteIdentical) {
  // deploy() shards whole deployments over the pool (per-owner derived key
  // RNGs, concurrent keygen/tagging/table builds); the emitted keys, tags
  // and the post-run ledger must be byte-identical at every pool width.
  struct Results {
    std::vector<std::vector<std::uint8_t>> pk_bytes;
    std::vector<std::vector<std::uint8_t>> tag_bytes;
    std::vector<std::uint64_t> balances;
    std::uint64_t total_gas = 0;
  };
  for_thread_counts<Results>(
      [] {
        sim::NetworkConfig c;
        c.num_owners = 3;
        c.num_providers = 3;
        c.file_bytes = 900;
        c.s = 5;
        c.erasure_data = 2;
        c.erasure_parity = 1;
        c.num_audits = 1;
        c.challenged_chunks = 999;
        c.private_proofs = true;
        sim::NetworkSim net(c);
        net.deploy();
        net.run_to_completion();
        Results r;
        for (const auto& kp : net.keys()) {
          r.pk_bytes.push_back(audit::serialize(kp.pk, true));
        }
        for (std::size_t i = 0; i < net.num_deployments(); ++i) {
          r.tag_bytes.push_back(audit::serialize(net.deployment_tag(i)));
        }
        for (std::size_t o = 0; o < c.num_owners; ++o) {
          r.balances.push_back(net.balance("owner-" + std::to_string(o)));
        }
        for (std::size_t p = 0; p < c.num_providers; ++p) {
          r.balances.push_back(net.balance("provider-" + std::to_string(p)));
        }
        r.total_gas = net.stats().total_gas;
        return r;
      },
      [](const Results& base, const Results& got, unsigned threads) {
        EXPECT_EQ(base.pk_bytes, got.pk_bytes) << threads << " threads";
        EXPECT_EQ(base.tag_bytes, got.tag_bytes) << threads << " threads";
        EXPECT_EQ(base.balances, got.balances) << threads << " threads";
        EXPECT_EQ(base.total_gas, got.total_gas) << threads << " threads";
      });
}

TEST(ParallelDifferential, WindowedSettlementIdenticalAcrossThreadCounts) {
  // Inline, per-instant deferred and window=1 deferred settlement must be
  // mutually bit-identical (chain bytes, gas, ledger) AND independent of
  // the pool width — the windowed acceptance invariant, at 1/2/8 threads.
  struct Snapshot {
    sim::NetworkStats stats;
    std::vector<std::uint64_t> balances;
    std::size_t blocks = 0;
    std::size_t chain_bytes = 0;
  };
  struct Results {
    Snapshot inline_run, per_instant, window1;
  };
  auto snapshot_of = [](bool batched, chain::Timestamp window) {
    sim::NetworkConfig c;
    c.num_owners = 2;
    c.num_providers = 3;
    c.file_bytes = 1000;
    c.s = 5;
    c.erasure_data = 2;
    c.erasure_parity = 1;
    c.num_audits = 2;
    c.challenged_chunks = 999;
    c.private_proofs = true;
    c.batched_settlement = batched;
    c.settlement_window_s = window;
    sim::NetworkSim net(c);
    net.set_adversary(1, drops_data());
    net.deploy();
    net.run_to_completion();
    Snapshot s;
    s.stats = net.stats();
    for (std::size_t o = 0; o < c.num_owners; ++o) {
      s.balances.push_back(net.balance("owner-" + std::to_string(o)));
    }
    for (std::size_t p = 0; p < c.num_providers; ++p) {
      s.balances.push_back(net.balance("provider-" + std::to_string(p)));
    }
    s.blocks = net.chain().blocks().size();
    s.chain_bytes = net.chain().total_chain_bytes();
    return s;
  };
  auto expect_equal = [](const Snapshot& x, const Snapshot& y,
                         const char* what) {
    EXPECT_EQ(x.stats.passes, y.stats.passes) << what;
    EXPECT_EQ(x.stats.fails, y.stats.fails) << what;
    EXPECT_EQ(x.stats.timeouts, y.stats.timeouts) << what;
    EXPECT_EQ(x.stats.total_gas, y.stats.total_gas) << what;
    EXPECT_EQ(x.chain_bytes, y.chain_bytes) << what;
    EXPECT_EQ(x.balances, y.balances) << what;
    EXPECT_EQ(x.blocks, y.blocks) << what;
  };
  for_thread_counts<Results>(
      [&] {
        Results r;
        r.inline_run = snapshot_of(false, 0);
        r.per_instant = snapshot_of(true, 0);
        r.window1 = snapshot_of(true, 1);
        expect_equal(r.inline_run, r.per_instant, "inline vs per-instant");
        expect_equal(r.inline_run, r.window1, "inline vs window=1");
        return r;
      },
      [&](const Results& base, const Results& got, unsigned threads) {
        (void)threads;
        expect_equal(base.inline_run, got.inline_run, "inline across threads");
        expect_equal(base.per_instant, got.per_instant,
                     "per-instant across threads");
        expect_equal(base.window1, got.window1, "window=1 across threads");
      });
}

TEST(ParallelDifferential, NetworkSimStatsAndLedgerIdentical) {
  struct Results {
    sim::NetworkStats stats;
    std::vector<std::uint64_t> balances;
    std::size_t blocks = 0;
  };
  for_thread_counts<Results>(
      [] {
        sim::NetworkConfig c;
        c.num_owners = 2;
        c.num_providers = 3;
        c.file_bytes = 1000;
        c.s = 5;
        c.erasure_data = 2;
        c.erasure_parity = 1;
        c.num_audits = 2;
        c.challenged_chunks = 999;
        c.private_proofs = true;
        sim::NetworkSim net(c);
        net.set_adversary(1, drops_data());
        net.deploy();
        net.run_to_completion();
        Results r;
        r.stats = net.stats();
        for (std::size_t o = 0; o < c.num_owners; ++o) {
          r.balances.push_back(net.balance("owner-" + std::to_string(o)));
        }
        for (std::size_t p = 0; p < c.num_providers; ++p) {
          r.balances.push_back(net.balance("provider-" + std::to_string(p)));
        }
        r.blocks = net.chain().blocks().size();
        return r;
      },
      [](const Results& base, const Results& got, unsigned threads) {
        EXPECT_EQ(base.stats.total_rounds, got.stats.total_rounds)
            << threads << " threads";
        EXPECT_EQ(base.stats.passes, got.stats.passes) << threads << " threads";
        EXPECT_EQ(base.stats.fails, got.stats.fails) << threads << " threads";
        EXPECT_EQ(base.stats.timeouts, got.stats.timeouts)
            << threads << " threads";
        EXPECT_EQ(base.stats.total_gas, got.stats.total_gas)
            << threads << " threads";
        EXPECT_EQ(base.stats.chain_bytes, got.stats.chain_bytes)
            << threads << " threads";
        EXPECT_EQ(base.balances, got.balances) << threads << " threads";
        EXPECT_EQ(base.blocks, got.blocks) << threads << " threads";
        // And the settlement constant holds at every thread count.
        EXPECT_EQ(got.stats.total_gas, got.stats.total_rounds * 589'000u);
      });
}

}  // namespace
}  // namespace dsaudit
