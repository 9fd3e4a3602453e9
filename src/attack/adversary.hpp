// Byzantine adversary engine: provider strategies that actively optimize
// against the audit protocol, run INSIDE NetworkSim in place of the honest
// responder (NetworkSim::set_adversary / set_adversaries).
//
// Where the PR-6 fault engine models crash-style failures (nodes that stop),
// these strategies model providers that keep participating while cheating:
// storing only part of the data, colluding across keys, discriminating by
// contract value, grinding the Fiat–Shamir machinery, or probing the
// deserialization boundary with malformed bytes.
//
// Determinism contract (same as the fault engine): decide() is a PURE
// function of (context, challenge) and the strategy's immutable parameters.
// It is called from concurrently-running contract prepare stages AND
// re-evaluated in the sequential round-settlement callback (to classify the
// round for the adversary counters) and again by the stats_by_walk()
// differential oracle — all three must agree, so no strategy may carry
// mutable state. Rosters are seed-drawable (AdversaryRoster::random) and
// describe()-replayable, bit-identical at every DSAUDIT_THREADS setting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/types.hpp"

namespace dsaudit::attack {

enum class StrategyKind : std::uint8_t {
  /// Stores only a fraction of its chunks; answers honestly when every
  /// challenged chunk happens to be held, cheats (or stays silent) otherwise.
  /// Detection probability per round is exactly the paper's
  /// 1 - (1 - missing_fraction)^k story.
  PartialStorage,
  /// Member of a cheating ring spanning providers (and therefore owner
  /// keys): all members share one group seed, so their cheat rounds
  /// correlate and pile multi-key failures into the same settlement window —
  /// the worst case for cross-key settlement bisection.
  Colluding,
  /// Discriminates by contract value: cheats only on contracts whose total
  /// reward is below a threshold, serves premium contracts honestly.
  Selective,
  /// Grinds the proof randomness (valid proofs, chosen to bias the
  /// settlement transcript) and replays prior window weight seeds against
  /// the BatchSettlement registry — both must yield zero advantage.
  SeedGrinding,
  /// Sends syntactically malformed proof encodings (truncated, oversized,
  /// non-canonical scalars, off-curve points, non-GT elements) at the
  /// deserialization boundary.
  MalformedBytes,
};

const char* to_string(StrategyKind kind);

/// What the adversary does with one challenge of one contract.
enum class AdversaryAction : std::uint8_t {
  Honest,         // correct proof over intact data
  CorruptProof,   // proof computed over data with unheld chunks zeroed
  NoAnswer,       // silent: the round times out
  MalformedProof, // valid proof bytes deliberately corrupted on the wire
  GrindProof,     // valid proof selected among several candidates
};

const char* to_string(AdversaryAction action);

/// Immutable facts about the contract a challenge belongs to. Built once per
/// deployment by NetworkSim; everything decide() may depend on besides the
/// challenge itself.
struct AdversaryContext {
  std::size_t deployment = 0;
  std::size_t provider = 0;
  std::size_t owner = 0;
  std::size_t num_chunks = 0;           // d of this deployment's shard
  std::uint64_t reward_per_audit = 0;   // this contract's terms (tier-scaled)
  std::uint64_t penalty_per_fail = 0;
  std::uint64_t num_audits = 0;
};

namespace detail {
/// splitmix64 finalizer — the engine's one keyed hash. Strategies derive
/// every per-challenge coin from it so decisions replay exactly.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
/// Fold a challenge seed into one word (c1 is 32 bytes of beacon output —
/// any 8 of them are already uniform; fold all for good measure).
inline std::uint64_t fold(const std::array<std::uint8_t, 32>& c1) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    acc = acc * 0x100000001B3ULL + c1[i];
  }
  return acc;
}
}  // namespace detail

class AdversaryStrategy {
 public:
  virtual ~AdversaryStrategy() = default;
  virtual StrategyKind kind() const = 0;
  /// PURE and thread-safe: may depend only on the arguments and immutable
  /// members (see the header comment for who calls it, and when).
  virtual AdversaryAction decide(const AdversaryContext& ctx,
                                 const audit::Challenge& chal) const = 0;
  /// Whether the provider actually holds chunk `index` of this deployment.
  /// When decide() returns CorruptProof, the sim zeroes every unheld chunk
  /// before proving — the proof fails exactly when a challenge touches one.
  virtual bool holds_chunk(const AdversaryContext& ctx,
                           std::uint64_t index) const {
    (void)ctx;
    (void)index;
    return true;
  }
  /// Candidate proofs generated per GrindProof action (1 for everyone else).
  virtual std::size_t grind_candidates() const { return 1; }
  /// One replayable line: kind + parameters (the roster aggregates these).
  virtual std::string describe() const = 0;
};

/// Stores each chunk independently with probability stored_permille/1000
/// (decided by a keyed hash of (seed, deployment, chunk) — fixed for the
/// whole run, as real partial storage would be). Covered challenges are
/// answered honestly; uncovered ones get a corrupt proof (answer_uncovered)
/// or silence.
class PartialStorageStrategy final : public AdversaryStrategy {
 public:
  PartialStorageStrategy(std::uint64_t seed, std::uint32_t stored_permille,
                         bool answer_uncovered);
  StrategyKind kind() const override { return StrategyKind::PartialStorage; }
  AdversaryAction decide(const AdversaryContext& ctx,
                         const audit::Challenge& chal) const override;
  bool holds_chunk(const AdversaryContext& ctx,
                   std::uint64_t index) const override;
  std::string describe() const override;

 private:
  std::uint64_t seed_;
  std::uint32_t stored_permille_;
  bool answer_uncovered_;
};

/// All members constructed with the same group_seed cheat on the same keyed
/// coin of each challenge seed, and share the same corrupted state (none of
/// them holds chunk 0). cheat_permille tunes how often the ring strikes.
class ColludingStrategy final : public AdversaryStrategy {
 public:
  ColludingStrategy(std::uint64_t group_seed, std::uint32_t cheat_permille);
  StrategyKind kind() const override { return StrategyKind::Colluding; }
  AdversaryAction decide(const AdversaryContext& ctx,
                         const audit::Challenge& chal) const override;
  bool holds_chunk(const AdversaryContext& ctx,
                   std::uint64_t index) const override;
  std::string describe() const override;

 private:
  std::uint64_t group_seed_;
  std::uint32_t cheat_permille_;
};

/// Cheats (drops chunk 0) exactly on contracts whose total reward
/// (reward_per_audit * num_audits) is below value_threshold; premium
/// contracts are served honestly. Models a provider that only bothers
/// storing data it is paid enough for.
class SelectiveStrategy final : public AdversaryStrategy {
 public:
  SelectiveStrategy(std::uint64_t seed, std::uint64_t value_threshold,
                    std::uint32_t cheat_permille);
  StrategyKind kind() const override { return StrategyKind::Selective; }
  AdversaryAction decide(const AdversaryContext& ctx,
                         const audit::Challenge& chal) const override;
  bool holds_chunk(const AdversaryContext& ctx,
                   std::uint64_t index) const override;
  std::string describe() const override;

 private:
  std::uint64_t seed_;
  std::uint64_t value_threshold_;
  std::uint32_t cheat_permille_;
};

/// Every private-proof round is ground: `candidates` valid proofs are
/// generated with fresh masking randomness and the lexicographically
/// smallest serialization is submitted (an attempt to bias the settlement
/// transcript, and through it the Fiat–Shamir weight seed). The sim
/// additionally replays the previous window's weight seed against the
/// BatchSettlement registry on this strategy's behalf — the registry must
/// refuse every attempt. Under basic (deterministic) proofs grinding
/// degenerates to honesty, which is itself the verdict: nothing to grind.
class SeedGrindingStrategy final : public AdversaryStrategy {
 public:
  SeedGrindingStrategy(std::uint64_t seed, std::size_t candidates);
  StrategyKind kind() const override { return StrategyKind::SeedGrinding; }
  AdversaryAction decide(const AdversaryContext& ctx,
                         const audit::Challenge& chal) const override;
  std::size_t grind_candidates() const override { return candidates_; }
  std::string describe() const override;

 private:
  std::uint64_t seed_;
  std::size_t candidates_;
};

/// Corrupts the wire encoding of an otherwise-honest proof on a keyed coin
/// of each challenge (malformed_permille), cycling deterministically through
/// the guaranteed-invalid corpus classes (src/attack/corpus.hpp). Every such
/// round must fail CLEANLY at the decode boundary — typed rejection, penalty,
/// no crash.
class MalformedBytesStrategy final : public AdversaryStrategy {
 public:
  MalformedBytesStrategy(std::uint64_t seed, std::uint32_t malformed_permille);
  StrategyKind kind() const override { return StrategyKind::MalformedBytes; }
  AdversaryAction decide(const AdversaryContext& ctx,
                         const audit::Challenge& chal) const override;
  std::string describe() const override;

 private:
  std::uint64_t seed_;
  std::uint32_t malformed_permille_;
};

/// A per-provider strategy assignment for one NetworkSim run.
struct AdversaryRoster {
  /// Index = provider index; null = honest provider.
  std::vector<std::shared_ptr<const AdversaryStrategy>> by_provider;

  /// Draw a roster from a seed: 1..max_adversaries distinct providers get
  /// strategies with seed-derived parameters, uniformly mixing every
  /// StrategyKind. When two or more Colluding members are drawn they share
  /// one group seed (a genuine ring). Same seed, same roster — the sweep
  /// prints the seed on failure and replaying it reproduces the run.
  static AdversaryRoster random(std::uint64_t seed, std::size_t num_providers,
                                std::size_t max_adversaries = 2);

  /// One line per adversarial provider, for failure replay.
  std::string describe() const;
};

}  // namespace dsaudit::attack
