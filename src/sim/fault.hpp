// Deterministic, seed-replayable fault engine for the network simulation.
//
// A FaultSchedule is a timed list of provider events — crash, offline-for-a-
// while, shard loss, dropped/delayed proof submission, early contract exit —
// either hand-written (exact-constant tests) or drawn from a seed
// (FaultSchedule::random, the chaos property tests). NetworkSim installs the
// schedule at deploy() and wires each event's consequences through the
// contract layer (missed-deadline slashing, provider-exit settlement), the
// batch-settlement layer (timeout retry at the next window boundary) and the
// storage layer (Reed–Solomon repair of lost shards onto Chord successors).
//
// Determinism contract: the same (network seed, schedule) pair produces the
// same chain bytes, ledger, events and stats at every DSAUDIT_THREADS
// setting. Two properties make that hold:
//   1. Availability is a PURE function of the schedule. FaultView precomputes
//      every provider's offline intervals / crash / exit instants at install
//      time, so concurrently-running prepare stages (where responders run)
//      only ever read immutable state.
//   2. Every mutating consequence (ring departure, shard zeroing, contract
//      abort, repair) runs as a chain::Blockchain scheduled *action* —
//      actions are sequential in schedule order at every thread count.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"

namespace dsaudit::sim {

enum class FaultKind : std::uint8_t {
  /// Permanent: the provider goes silent forever and its held shard data is
  /// lost. Its contracts miss deadlines until the slashing threshold
  /// terminates them; repair re-deploys the lost shards.
  Crash,
  /// Transient: unresponsive for duration_s, then rejoins intact. Missed
  /// rounds inside the gap time out (and retry, if the terms allow).
  Offline,
  /// The provider keeps answering but silently loses its held chunk data:
  /// proofs verify false, rounds fail, and the shard needs repair.
  ShardLoss,
  /// The proof for any challenge issued in [at, at + 2*response_window] is
  /// lost in transit: the round times out and its first retry fails too —
  /// only a second retry (or none) saves it from the penalty.
  DropProof,
  /// The proof for any challenge issued in [at, at + response_window)
  /// misses the deadline but the provider recovers: a retry at the next
  /// settlement boundary succeeds. Distinguishes "late" from "lost".
  DelayProof,
  /// The provider walks away from every live contract at `at` (paid exit:
  /// it forfeits one penalty_per_fail per contract but keeps the rest of
  /// its collateral); its shards must be re-deployed elsewhere.
  EarlyExit,
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  chain::Timestamp at = 0;
  std::size_t provider = 0;  // index into NetworkSim's provider set
  FaultKind kind = FaultKind::Offline;
  chain::Timestamp duration_s = 0;  // Offline only
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  /// Draw a schedule from a seed: up to max_events events over [0, horizon),
  /// uniformly mixing every FaultKind over `num_providers` providers. The
  /// same seed always yields the same schedule — chaos tests print the seed
  /// on failure and replaying it reproduces the run bit-identically.
  static FaultSchedule random(std::uint64_t seed, std::size_t num_providers,
                              chain::Timestamp horizon_s,
                              std::size_t max_events = 6);

  /// One line per event — printed by the chaos harness on failure so the
  /// offending schedule can be pinned as a regression.
  std::string describe() const;
};

/// Immutable, thread-safe view of a schedule's availability consequences.
/// Built once (before any concurrent phase); prepare-stage responders query
/// it with the challenge instant.
class FaultView {
 public:
  FaultView() = default;
  FaultView(const FaultSchedule& schedule, std::size_t num_providers,
            chain::Timestamp response_window_s);

  /// True iff the provider answers challenges issued at instant `t`:
  /// not crashed, not exited, not inside an offline/proof-fault gap.
  bool available(std::size_t provider, chain::Timestamp t) const;

 private:
  struct Interval {
    chain::Timestamp begin = 0;
    chain::Timestamp end = 0;  // exclusive; begin == end never matches
  };
  struct Provider {
    std::vector<Interval> gaps;
    chain::Timestamp silent_from =
        std::numeric_limits<chain::Timestamp>::max();  // crash or exit
  };
  std::vector<Provider> providers_;
};

}  // namespace dsaudit::sim
