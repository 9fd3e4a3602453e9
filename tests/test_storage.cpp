// Storage substrate tests: codec, GF(256), Reed–Solomon, Chord DHT.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "storage/codec.hpp"
#include "storage/dht.hpp"
#include "storage/erasure.hpp"
#include "storage/gf256.hpp"

namespace dsaudit::storage {
namespace {

using primitives::SecureRng;

std::vector<std::uint8_t> random_bytes(std::size_t n, SecureRng& rng) {
  std::vector<std::uint8_t> v(n);
  rng.fill(v);
  return v;
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Codec, RoundTripVariousSizes) {
  auto rng = SecureRng::deterministic(90);
  for (std::size_t size : {0u, 1u, 30u, 31u, 32u, 1000u, 4096u, 10000u}) {
    for (std::size_t s : {1u, 2u, 50u}) {
      auto data = random_bytes(size, rng);
      EncodedFile f = encode_file(data, s);
      EXPECT_EQ(decode_file(f), data) << "size=" << size << " s=" << s;
      // Structural invariants.
      EXPECT_EQ(f.s, s);
      for (const auto& chunk : f.chunks) EXPECT_EQ(chunk.size(), s);
      std::size_t expected_blocks = size == 0 ? 1 : (size + 30) / 31;
      EXPECT_EQ(f.num_blocks, expected_blocks);
      EXPECT_EQ(f.num_chunks(), (expected_blocks + s - 1) / s);
    }
  }
}

TEST(Codec, RejectsZeroS) {
  std::vector<std::uint8_t> d{1, 2, 3};
  EXPECT_THROW(encode_file(d, 0), std::invalid_argument);
}

TEST(Codec, BlocksAreCanonicalFieldElements) {
  auto rng = SecureRng::deterministic(91);
  auto data = random_bytes(310, rng);
  EncodedFile f = encode_file(data, 5);
  // 31-byte packing leaves the top byte zero: values < 2^248 < r.
  for (const auto& chunk : f.chunks) {
    for (const auto& b : chunk) {
      EXPECT_EQ(b.to_bytes()[0], 0);
    }
  }
}

TEST(Codec, EncryptionRoundTripAndKeySeparation) {
  auto rng = SecureRng::deterministic(92);
  auto plain = random_bytes(500, rng);
  std::array<std::uint8_t, 32> key{};
  key[0] = 7;
  auto buf = plain;
  encrypt_in_place(buf, key, 1);
  EXPECT_NE(buf, plain);
  // Different file id -> different keystream.
  auto buf2 = plain;
  encrypt_in_place(buf2, key, 2);
  EXPECT_NE(buf, buf2);
  decrypt_in_place(buf, key, 1);
  EXPECT_EQ(buf, plain);
}

// ---------------------------------------------------------------------------
// GF(2^8)
// ---------------------------------------------------------------------------

TEST(Gf256Field, FieldAxiomsExhaustiveInverse) {
  for (int a = 1; a < 256; ++a) {
    auto ai = Gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), ai), 1) << "a=" << a;
  }
  EXPECT_THROW(Gf256::inv(0), std::domain_error);
  EXPECT_THROW(Gf256::div(1, 0), std::domain_error);
}

TEST(Gf256Field, MulProperties) {
  auto rng = SecureRng::deterministic(93);
  for (int i = 0; i < 200; ++i) {
    auto a = static_cast<std::uint8_t>(rng.uniform(256));
    auto b = static_cast<std::uint8_t>(rng.uniform(256));
    auto c = static_cast<std::uint8_t>(rng.uniform(256));
    EXPECT_EQ(Gf256::mul(a, b), Gf256::mul(b, a));
    EXPECT_EQ(Gf256::mul(a, Gf256::mul(b, c)), Gf256::mul(Gf256::mul(a, b), c));
    // Distributivity over xor-addition.
    EXPECT_EQ(Gf256::mul(a, Gf256::add(b, c)),
              Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c)));
    EXPECT_EQ(Gf256::mul(a, 1), a);
    EXPECT_EQ(Gf256::mul(a, 0), 0);
  }
}

TEST(Gf256Field, PowMatchesRepeatedMul) {
  for (unsigned e = 0; e < 10; ++e) {
    std::uint8_t acc = 1;
    for (unsigned i = 0; i < e; ++i) acc = Gf256::mul(acc, 3);
    EXPECT_EQ(Gf256::pow(3, e), acc);
  }
  EXPECT_EQ(Gf256::pow(0, 0), 1);
  EXPECT_EQ(Gf256::pow(0, 5), 0);
}

// ---------------------------------------------------------------------------
// Reed–Solomon
// ---------------------------------------------------------------------------

TEST(Erasure, EncodeIsSystematic) {
  auto rng = SecureRng::deterministic(94);
  auto data = random_bytes(100, rng);
  ReedSolomon rs(4, 2);
  auto shards = rs.encode(data);
  ASSERT_EQ(shards.size(), 6u);
  // First k shards are the data verbatim (zero-padded).
  std::size_t shard_len = shards[0].size();
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(shards[i / shard_len][i % shard_len], data[i]);
  }
}

TEST(Erasure, ReconstructFromAnyKShards) {
  auto rng = SecureRng::deterministic(95);
  auto data = random_bytes(317, rng);  // deliberately not divisible by k
  ReedSolomon rs(3, 7);                // the paper's 3-out-of-10 example
  auto shards = rs.encode(data);
  // Try every 3-subset of the 10 shards.
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      for (std::size_t c = b + 1; c < 10; ++c) {
        std::vector<std::optional<std::vector<std::uint8_t>>> present(10);
        present[a] = shards[a];
        present[b] = shards[b];
        present[c] = shards[c];
        auto rec = rs.reconstruct(present, data.size());
        ASSERT_TRUE(rec.has_value()) << a << "," << b << "," << c;
        EXPECT_EQ(*rec, data) << a << "," << b << "," << c;
      }
    }
  }
  // More than k shards present, parity-heavy: the first k of them decode.
  std::vector<std::optional<std::vector<std::uint8_t>>> extra(10);
  for (std::size_t i : {0, 3, 5, 9}) extra[i] = shards[i];
  auto rec = rs.reconstruct(extra, data.size());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, data);
}

TEST(Erasure, FailsBelowThreshold) {
  auto rng = SecureRng::deterministic(96);
  auto data = random_bytes(64, rng);
  ReedSolomon rs(4, 2);
  auto shards = rs.encode(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> present(6);
  present[0] = shards[0];
  present[3] = shards[3];
  present[5] = shards[5];  // only 3 of 4 required
  EXPECT_FALSE(rs.reconstruct(present, data.size()).has_value());
}

TEST(Erasure, ParameterValidation) {
  EXPECT_THROW(ReedSolomon(0, 2), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 100), std::invalid_argument);
  ReedSolomon rs(2, 1);
  std::vector<std::optional<std::vector<std::uint8_t>>> wrong(5);
  EXPECT_THROW(rs.reconstruct(wrong, 10), std::invalid_argument);
}

TEST(Erasure, NoParityDegenerate) {
  auto rng = SecureRng::deterministic(97);
  auto data = random_bytes(50, rng);
  ReedSolomon rs(5, 0);
  auto shards = rs.encode(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> present(5);
  for (std::size_t i = 0; i < 5; ++i) present[i] = shards[i];
  EXPECT_EQ(*rs.reconstruct(present, data.size()), data);
}

// ---------------------------------------------------------------------------
// Chord DHT
// ---------------------------------------------------------------------------

TEST(Dht, LookupFindsResponsibleNode) {
  ChordRing ring;
  std::vector<NodeId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(ring.join("provider-" + std::to_string(i)));
  EXPECT_EQ(ring.size(), 50u);
  auto rng = SecureRng::deterministic(98);
  for (int i = 0; i < 100; ++i) {
    NodeId key = rng.next_u64();
    auto res = ring.lookup(key);
    // The responsible node is the clockwise successor: no other node lies in
    // (key, responsible).
    for (NodeId other : ids) {
      if (other == res.responsible) continue;
      bool between = res.responsible >= key ? (other > key && other < res.responsible)
                                            : (other > key || other < res.responsible);
      EXPECT_FALSE(between);
    }
  }
}

TEST(Dht, RoutingIsLogarithmic) {
  ChordRing ring;
  for (int i = 0; i < 128; ++i) ring.join("node-" + std::to_string(i));
  auto rng = SecureRng::deterministic(99);
  std::size_t total_hops = 0;
  constexpr int kLookups = 200;
  for (int i = 0; i < kLookups; ++i) {
    total_hops += ring.lookup(rng.next_u64()).hops;
  }
  double avg = static_cast<double>(total_hops) / kLookups;
  // log2(128) = 7; Chord averages ~log2(n)/2. Generous upper bound.
  EXPECT_LE(avg, 14.0);
  EXPECT_GE(avg, 1.0);
}

TEST(Dht, JoinLeaveConsistency) {
  ChordRing ring;
  NodeId a = ring.join("a");
  NodeId b = ring.join("b");
  ring.join("c");
  NodeId key = a;  // lookup of an existing id returns that node
  EXPECT_EQ(ring.lookup(key).responsible, a);
  ring.leave(a);
  EXPECT_FALSE(ring.contains(a));
  EXPECT_NE(ring.lookup(key).responsible, a);
  EXPECT_THROW(ring.leave(a), std::invalid_argument);
  EXPECT_EQ(ring.node_name(b).value(), "b");
  EXPECT_FALSE(ring.node_name(a).has_value());
}

TEST(Dht, SuccessorsDistinctAndOrdered) {
  ChordRing ring;
  for (int i = 0; i < 20; ++i) ring.join("p" + std::to_string(i));
  auto succ = ring.successors(ring_hash("some-file"), 10);
  EXPECT_EQ(succ.size(), 10u);
  std::set<NodeId> uniq(succ.begin(), succ.end());
  EXPECT_EQ(uniq.size(), 10u);
  // Requesting more than ring size clamps.
  EXPECT_EQ(ring.successors(0, 100).size(), 20u);
}

TEST(Dht, LookupStaysCorrectAcrossLeaveAndRejoin) {
  // The repair path re-runs successor lookups after churn: ownership must
  // hand over to the clockwise successor on leave and hand back on rejoin.
  ChordRing ring;
  std::map<NodeId, std::string> ids;
  for (int i = 0; i < 12; ++i) {
    std::string name = "churn-" + std::to_string(i);
    ids[ring.join(name)] = name;
  }
  auto rng = SecureRng::deterministic(103);
  std::vector<NodeId> keys;
  for (int i = 0; i < 40; ++i) keys.push_back(rng.next_u64());

  auto owner_of = [&](NodeId key) { return ring.lookup(key).responsible; };
  std::map<NodeId, NodeId> before;
  for (NodeId k : keys) before[k] = owner_of(k);

  // Drop one node: exactly its keys move, everyone else's stay put.
  NodeId gone = before.begin()->second;
  ring.leave(gone);
  for (NodeId k : keys) {
    NodeId now = owner_of(k);
    if (before[k] == gone) {
      EXPECT_NE(now, gone);
    } else {
      EXPECT_EQ(now, before[k]) << "unrelated key moved on leave";
    }
  }

  // Rejoin under the same name: same ring id (ids are name hashes), so the
  // original ownership map is restored exactly.
  NodeId back = ring.join(ids.at(gone));
  EXPECT_EQ(back, gone);
  for (NodeId k : keys) {
    EXPECT_EQ(owner_of(k), before[k]) << "ownership not restored on rejoin";
  }
}

TEST(Dht, EmptyRingThrows) {
  ChordRing ring;
  EXPECT_THROW(ring.lookup(1), std::logic_error);
  EXPECT_THROW(ring.successors(1, 1), std::logic_error);
}

TEST(Dht, SingleNodeOwnsEverything) {
  ChordRing ring;
  NodeId solo = ring.join("solo");
  auto rng = SecureRng::deterministic(100);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.lookup(rng.next_u64()).responsible, solo);
  }
}

}  // namespace
}  // namespace dsaudit::storage
