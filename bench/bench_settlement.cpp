// Batched-settlement throughput: rounds/sec at batch sizes 1 / 8 / 64
// against the unbatched prepared-verifier path, for both proof shapes; the
// dirty path: a private batch of 64 with 1 and 4 culprits, where bisection
// isolates each cheater; and the cold streaming path in scale-basic's shape
// (one-chunk files, k = 1, no PreparedFile, transient table-less provers).
//
// Plain main() program (no google-benchmark dependency) so CI's bench-smoke
// step can always build and run it; emits BENCH_settlement.json recording
// the perf trajectory. Usage: bench_settlement [--out FILE] [--reps N]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "audit/protocol.hpp"
#include "econ/cost_model.hpp"
#include "storage/codec.hpp"

using namespace dsaudit;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ms_per_round(Clock::time_point t0, int reps, std::size_t rounds) {
  return ms_since(t0) / reps / static_cast<double>(rounds);
}

struct Shape {
  const char* label;
  bool private_proofs;
  double unbatched_ms = 0;
  struct Row {
    std::size_t size;
    double ms_per_round;
  };
  std::vector<Row> rows;
};

audit::Challenge challenge_from(primitives::SecureRng& rng, std::size_t k) {
  audit::Challenge c;
  c.c1 = rng.bytes32();
  c.c2 = rng.bytes32();
  c.r = audit::Fr::random(rng);
  c.k = k;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_settlement.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[++i];
    if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) reps = std::atoi(argv[++i]);
  }

  // One provider-held file: 64 chunks, s = 10, k = 8 challenged chunks per
  // round (the simulator's population-scale operating point, where pairings
  // rather than the chi MSM dominate a round).
  constexpr std::size_t kS = 10, kChunks = 64, kK = 8;
  auto rng = primitives::SecureRng::deterministic(4242);
  auto kp = audit::keygen(kS, rng);
  std::vector<std::uint8_t> data(kChunks * kS * 31);
  rng.fill(data);
  auto file = storage::encode_file(data, kS);
  audit::Fr name = audit::Fr::random(rng);
  auto tag = audit::generate_tags(kp.sk, kp.pk, file, name);
  audit::Prover prover(kp.pk, file, tag, /*prepare_psi=*/true,
                       /*prepare_sigma=*/true);
  audit::Verifier verifier(kp.pk);
  audit::PreparedFile ctx = audit::prepare_file(name, file.num_chunks());

  const std::size_t sizes[] = {1, 8, 64};
  Shape shapes[] = {{"basic", false}, {"private", true}};

  for (Shape& shape : shapes) {
    // Pre-generate 64 distinct rounds.
    std::vector<audit::SettlementInstance> pool(64);
    for (auto& inst : pool) {
      inst.verifier = &verifier;
      inst.file = &ctx;
      inst.challenge = challenge_from(rng, kK);
      if (shape.private_proofs) {
        inst.priv = prover.prove_private(inst.challenge, rng);
      } else {
        inst.basic = prover.prove(inst.challenge);
      }
    }

    // Unbatched reference: the prepared per-round verifier.
    {
      auto t0 = Clock::now();
      int n = 0;
      for (int r = 0; r < reps; ++r) {
        for (int i = 0; i < 8; ++i, ++n) {
          const auto& inst = pool[i];
          bool ok = shape.private_proofs
                        ? verifier.verify_private(ctx, inst.challenge, *inst.priv)
                        : verifier.verify(ctx, inst.challenge, *inst.basic);
          if (!ok) return std::fprintf(stderr, "unbatched verify failed\n"), 1;
        }
      }
      shape.unbatched_ms = ms_since(t0) / n;
    }

    for (std::size_t size : sizes) {
      std::vector<audit::SettlementInstance> batch(pool.begin(),
                                                   pool.begin() + size);
      auto seed = rng.bytes32();
      auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        if (!audit::verify_settlement(batch, seed).all_ok()) {
          return std::fprintf(stderr, "batch verify failed\n"), 1;
        }
      }
      shape.rows.push_back({size, ms_per_round(t0, reps, size)});
    }
  }

  // Window sweep: a settlement window spanning `window` chain instants of 4
  // due private rounds each settles their union in one flush under one
  // Fiat–Shamir seed — the per-round cost of fattening small blocks.
  constexpr std::size_t kRoundsPerInstant = 4;
  const std::size_t windows[] = {1, 4, 16};
  struct WindowRow {
    std::size_t window;
    std::size_t rounds;
    double ms_per_round;
  };
  std::vector<WindowRow> window_rows;
  {
    std::vector<audit::SettlementInstance> pool(64);
    for (auto& inst : pool) {
      inst.verifier = &verifier;
      inst.file = &ctx;
      inst.challenge = challenge_from(rng, kK);
      inst.priv = prover.prove_private(inst.challenge, rng);
    }
    for (std::size_t window : windows) {
      const std::size_t rounds = kRoundsPerInstant * window;
      std::vector<audit::SettlementInstance> batch(pool.begin(),
                                                   pool.begin() + rounds);
      auto seed = rng.bytes32();
      auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        if (!audit::verify_settlement(batch, seed).all_ok()) {
          return std::fprintf(stderr, "window sweep verify failed\n"), 1;
        }
      }
      window_rows.push_back({window, rounds, ms_per_round(t0, reps, rounds)});
    }
  }

  // Aggregate settle-window tx: the same window sweep, but verification also
  // computes the one aggregated KZG opening that the settle-window tx posts
  // on chain (the measured marginal cost of the extra MSM), and each row
  // prices the tx against the per-round prove tx via the econ model — the
  // chain-footprint trajectory ISSUE 10 gates (bytes and gas per audited
  // round, higher is worse).
  struct AggregateRow {
    std::size_t window;
    std::size_t rounds;
    double ms_per_round;
    double bytes_per_round;
    std::uint64_t gas_per_round;
  };
  std::vector<AggregateRow> aggregate_rows;
  const econ::AuditCostModel cost_model;
  {
    std::vector<audit::SettlementInstance> pool(64);
    for (auto& inst : pool) {
      inst.verifier = &verifier;
      inst.file = &ctx;
      inst.challenge = challenge_from(rng, kK);
      inst.priv = prover.prove_private(inst.challenge, rng);
    }
    audit::SettlementOptions opts;
    opts.compute_aggregate_opening = true;
    for (std::size_t window : windows) {
      const std::size_t rounds = kRoundsPerInstant * window;
      std::vector<audit::SettlementInstance> batch(pool.begin(),
                                                   pool.begin() + rounds);
      auto seed = rng.bytes32();
      auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        if (!audit::verify_settlement(batch, seed, opts).all_ok()) {
          return std::fprintf(stderr, "aggregate sweep verify failed\n"), 1;
        }
      }
      aggregate_rows.push_back(
          {window, rounds, ms_per_round(t0, reps, rounds),
           static_cast<double>(cost_model.aggregate_tx_bytes(rounds)) /
               static_cast<double>(rounds),
           cost_model.gas_per_audit_aggregated(rounds)});
    }
  }

  // Dirty batch: 64 private rounds with 1 and 4 culprits at fixed
  // positions. Bisection checks each failing range's left half directly and
  // derives its right half, so the row reports both counts next to the
  // per-round cost.
  constexpr std::size_t kDirtyBatch = 64;
  const std::vector<std::vector<std::size_t>> culprit_sets = {
      {37}, {5, 22, 37, 58}};
  struct DirtyRow {
    std::size_t culprits;
    double ms_per_round;
    std::size_t batch_checks;
    std::size_t derived_checks;
  };
  std::vector<DirtyRow> dirty_rows;
  {
    std::vector<audit::SettlementInstance> pool(kDirtyBatch);
    for (auto& inst : pool) {
      inst.verifier = &verifier;
      inst.file = &ctx;
      inst.challenge = challenge_from(rng, kK);
      inst.priv = prover.prove_private(inst.challenge, rng);
    }
    for (const auto& culprits : culprit_sets) {
      std::vector<audit::SettlementInstance> batch = pool;
      for (std::size_t at : culprits) batch[at].priv->y_prime += audit::Fr::one();
      auto seed = rng.bytes32();
      audit::SettlementOutcome res;
      auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        res = audit::verify_settlement(batch, seed);
        std::size_t failed = 0;
        for (bool ok : res.ok) failed += !ok;
        if (failed != culprits.size()) {
          return std::fprintf(stderr, "dirty batch isolated %zu of %zu culprits\n",
                              failed, culprits.size()), 1;
        }
      }
      dirty_rows.push_back({culprits.size(), ms_per_round(t0, reps, kDirtyBatch),
                            res.batch_checks, res.derived_checks});
    }
  }

  // Cold streaming path, scale-basic's shape: s = 4, one-chunk files, k = 1.
  // Settlement has no PreparedFile, so each round's chunk hash folds into
  // the batch check's epsilon slot; the prover is built per round without
  // tables, so psi is a 3-base cold MSM.
  constexpr std::size_t kColdS = 4, kColdBatch = 64;
  double cold_settle_ms = 0, cold_prove_ms = 0;
  {
    auto cold_kp = audit::keygen(kColdS, rng);
    audit::Verifier cold_verifier(cold_kp.pk);
    std::vector<storage::EncodedFile> files;
    std::vector<audit::FileTag> tags;
    std::vector<audit::SettlementInstance> batch(kColdBatch);
    for (auto& inst : batch) {
      std::vector<std::uint8_t> bytes(kColdS * 31);
      rng.fill(bytes);
      files.push_back(storage::encode_file(bytes, kColdS));
      inst.name = audit::Fr::random(rng);
      tags.push_back(audit::generate_tags(cold_kp.sk, cold_kp.pk, files.back(),
                                          inst.name));
      inst.verifier = &cold_verifier;
      inst.num_chunks = files.back().num_chunks();
      inst.challenge = challenge_from(rng, 1);
    }
    auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < kColdBatch; ++i) {
        const audit::Prover transient(cold_kp.pk, files[i], tags[i],
                                      /*prepare_psi=*/false,
                                      /*prepare_sigma=*/false);
        batch[i].basic = transient.prove(batch[i].challenge);
      }
    }
    cold_prove_ms = ms_per_round(t0, reps, kColdBatch);
    auto seed = rng.bytes32();
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      if (!audit::verify_settlement(batch, seed).all_ok()) {
        return std::fprintf(stderr, "cold batch verify failed\n"), 1;
      }
    }
    cold_settle_ms = ms_per_round(t0, reps, kColdBatch);
  }

  std::string json = "{\n";
  json += "  \"num_chunks\": " + std::to_string(kChunks) +
          ", \"s\": " + std::to_string(kS) + ", \"k\": " + std::to_string(kK) +
          ",\n";
  for (std::size_t si = 0; si < 2; ++si) {
    const Shape& shape = shapes[si];
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  \"%s\": {\n    \"unbatched_ms_per_round\": %.3f,\n    \"batched\": [",
                  shape.label, shape.unbatched_ms);
    json += buf;
    for (std::size_t i = 0; i < shape.rows.size(); ++i) {
      const auto& row = shape.rows[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n      {\"batch_size\": %zu, \"ms_per_round\": %.3f, "
                    "\"rounds_per_sec\": %.1f}",
                    i ? "," : "", row.size, row.ms_per_round,
                    1000.0 / row.ms_per_round);
      json += buf;
    }
    std::snprintf(buf, sizeof(buf), "\n    ],\n    \"speedup_at_64\": %.2f\n  },\n",
                  shape.unbatched_ms / shape.rows.back().ms_per_round);
    json += buf;
  }
  json += "  \"window_sweep\": {\n    \"shape\": \"private\", \"rounds_per_instant\": " +
          std::to_string(kRoundsPerInstant) + ",\n    \"rows\": [";
  for (std::size_t i = 0; i < window_rows.size(); ++i) {
    const auto& row = window_rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n      {\"window\": %zu, \"rounds\": %zu, "
                  "\"ms_per_round\": %.3f, \"rounds_per_sec\": %.1f}",
                  i ? "," : "", row.window, row.rounds, row.ms_per_round,
                  1000.0 / row.ms_per_round);
    json += buf;
  }
  json += "\n    ]\n  },\n";
  {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "  \"aggregate\": {\n    \"shape\": \"private-aggregate\", "
                  "\"rounds_per_instant\": %zu,\n    \"legacy_bytes_per_round\""
                  ": %zu, \"legacy_gas_per_round\": %llu,\n    \"rows\": [",
                  kRoundsPerInstant, cost_model.proof_bytes,
                  static_cast<unsigned long long>(cost_model.gas_per_audit()));
    json += buf;
    for (std::size_t i = 0; i < aggregate_rows.size(); ++i) {
      const auto& row = aggregate_rows[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n      {\"window\": %zu, \"rounds\": %zu, "
                    "\"ms_per_round\": %.3f, \"bytes_per_round\": %.3f, "
                    "\"gas_per_round\": %llu}",
                    i ? "," : "", row.window, row.rounds, row.ms_per_round,
                    row.bytes_per_round,
                    static_cast<unsigned long long>(row.gas_per_round));
      json += buf;
    }
    const AggregateRow& widest = aggregate_rows.back();
    std::snprintf(buf, sizeof(buf),
                  "\n    ],\n    \"bytes_reduction_at_%zu\": %.1f, "
                  "\"gas_reduction_at_%zu\": %.1f\n  },\n",
                  widest.window,
                  static_cast<double>(cost_model.proof_bytes) /
                      widest.bytes_per_round,
                  widest.window,
                  static_cast<double>(cost_model.gas_per_audit()) /
                      static_cast<double>(widest.gas_per_round));
    json += buf;
  }
  json += "  \"dirty\": {\n    \"shape\": \"private-dirty\", \"rows\": [";
  for (std::size_t i = 0; i < dirty_rows.size(); ++i) {
    const auto& row = dirty_rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n      {\"batch_size\": %zu, \"culprits\": %zu, "
                  "\"ms_per_round\": %.3f, \"batch_checks\": %zu, "
                  "\"derived_checks\": %zu}",
                  i ? "," : "", kDirtyBatch, row.culprits, row.ms_per_round,
                  row.batch_checks, row.derived_checks);
    json += buf;
  }
  json += "\n    ]\n  },\n";
  {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "  \"cold\": {\n    \"shape\": \"scale-basic\", \"s\": %zu, "
                  "\"chunks\": 1, \"k\": 1,\n    \"rows\": [\n"
                  "      {\"op\": \"settle\", \"batch_size\": %zu, "
                  "\"ms_per_round\": %.3f},\n"
                  "      {\"op\": \"prove\", \"ms_per_round\": %.3f}\n"
                  "    ]\n  }\n}\n",
                  kColdS, kColdBatch, cold_settle_ms, cold_prove_ms);
    json += buf;
  }

  std::fputs(json.c_str(), stdout);
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
