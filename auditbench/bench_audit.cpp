// End-to-end audit benchmark: whole audit rounds (beacon -> prove -> decode
// -> settle -> chain) on four workloads, plus a traced per-layer breakdown.
//
// Untraced, a workload runs through the public sim::NetworkSim API (deploy,
// run_to_completion, check_invariants, stats) and yields the end-to-end
// metrics. Traced, the same honest round path is re-assembled from each
// module's public API — chain::Blockchain + TrustedBeacon,
// contract::BatchSettlement, shared-verifier contract::AuditContracts with
// set_responder / set_on_round, storage::ReedSolomon / encode_file,
// audit::Prover / serialize / deserialize_* — with a span (trace.hpp) around
// every call into a layer. Nothing inside src/ is instrumented.
//
// Every episode (one deploy plus one run) is a fresh child process of this
// binary, so VmHWM is that episode's own peak. A measurement runs episodes
// back to back for --seconds (or exactly --reps of them) and reports medians.
//
// Usage: bench_audit [--workload NAME|all] [--seed N] [--seconds S]
//                    [--trace 0|1] [--threads N] [--reps N] [--smoke]
//                    [--selfcheck]
// The last line on stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// and the exit code is non-zero whenever a correctness check failed.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/corpus.hpp"
#include "audit/protocol.hpp"
#include "audit/serialize.hpp"
#include "chain/beacon.hpp"
#include "chain/blockchain.hpp"
#include "contract/audit_contract.hpp"
#include "contract/batch_settlement.hpp"
#include "pairing/pairing.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/network_sim.hpp"
#include "storage/codec.hpp"
#include "storage/dht.hpp"
#include "storage/erasure.hpp"
#include "trace.hpp"

#ifndef AUDITBENCH_BUILD_TYPE
#define AUDITBENCH_BUILD_TYPE "unknown"
#endif

using namespace dsaudit;
using auditbench::Accum;
using auditbench::Clock;
using auditbench::secs_since;
using auditbench::Span;
using auditbench::timed;

namespace {

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  std::size_t owners;
  std::size_t providers;
  std::size_t file_bytes;
  std::size_t s;
  std::size_t data_shards;
  std::size_t parity_shards;
  std::uint64_t audits;
  std::size_t k;  // challenged chunks
  bool private_proofs;
  bool aggregate;   // one settle-window tx per window
  bool streaming;   // chain::Retention::Streaming (else Full)
  bool churn;       // fault schedule + adversaries + windowed settlement
  int setups;       // deploys per untraced episode; setup_s is their median
};

// Each keeps the shape that decides which layer dominates it (README.md
// says why each workload exists and how its size was checked). scale-basic
// is one ~20 s episode at 4 threads, large enough that the mempool backlog
// takes a third of the run as at the population operating point, so it
// deploys three times for setup_s; private-prepared keeps 900-round
// instants. Columns: name, owners, providers, file bytes, s, data and
// parity shards, audits, k, private, aggregate, streaming, churn, setups.
constexpr Workload kWorkloads[] = {
    {"scale-basic", 30000, 64, 124, 4, 1, 0, 2, 1, false, false, true, false, 3},
    {"private-prepared", 300, 16, 19840, 10, 2, 1, 2, 8, true, true, false, false, 1},
    {"churn-adversarial", 120, 24, 9920, 10, 2, 1, 4, 8, true, true, false, true, 1},
    {"onboard-large", 60, 32, 158720, 20, 2, 1, 1, 8, true, true, false, false, 1},
};

// The churn workload's script is fixed, so that --seed varies data, keys
// and challenges but not the work a run does: availability faults (offline
// gaps, dropped and delayed proofs) drawn from one constant seed, and three
// providers that cheat on every challenge (one proves over data it never
// stored, one sends malformed bytes, one stays silent), so every attack is
// detected whatever the challenges draw. Crashes, shard losses and early
// exits are left out: they start NetworkSim's internal repair, which the
// traced replay cannot repeat from public APIs.
constexpr std::uint64_t kChurnScriptSeed = 42;

struct ChurnScript {
  sim::FaultSchedule faults;
  std::map<std::size_t, std::shared_ptr<const attack::AdversaryStrategy>> cheaters;
};

ChurnScript churn_script(const sim::NetworkConfig& c) {
  ChurnScript s;
  s.faults = sim::FaultSchedule::random(kChurnScriptSeed, c.num_providers,
                                        c.num_audits * c.audit_period_s, 16);
  std::erase_if(s.faults.events, [](const sim::FaultEvent& ev) {
    return ev.kind != sim::FaultKind::Offline && ev.kind != sim::FaultKind::DropProof &&
           ev.kind != sim::FaultKind::DelayProof;
  });
  s.cheaters[9] = std::make_shared<attack::PartialStorageStrategy>(
      kChurnScriptSeed, /*stored_permille=*/0, /*answer_uncovered=*/true);
  s.cheaters[17] = std::make_shared<attack::MalformedBytesStrategy>(
      kChurnScriptSeed, /*malformed_permille=*/1000);
  s.cheaters[4] = std::make_shared<attack::PartialStorageStrategy>(
      kChurnScriptSeed, /*stored_permille=*/0, /*answer_uncovered=*/false);
  return s;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

sim::NetworkConfig config_for(const Workload& w, std::uint64_t seed, bool smoke) {
  sim::NetworkConfig c;
  c.num_owners = smoke ? std::max<std::size_t>(4, w.owners / 20) : w.owners;
  c.num_providers = w.providers;
  c.file_bytes = w.file_bytes;
  c.s = w.s;
  c.erasure_data = w.data_shards;
  c.erasure_parity = w.parity_shards;
  c.num_audits = w.audits;
  c.challenged_chunks = w.k;
  c.private_proofs = w.private_proofs;
  c.batched_settlement = true;
  c.batch_gas_discount = true;
  c.aggregate_settlement = w.aggregate;
  c.retention = w.streaming ? chain::Retention::Streaming : chain::Retention::Full;
  c.key_pool = 16;
  c.rng_seed = seed;
  if (w.churn) {
    c.settlement_window_s = 1800;
    c.timeout_retry_limit = 1;
    c.slash_after_consecutive = 3;
  }
  return c;
}

std::uint64_t expected_rounds(const sim::NetworkConfig& c) {
  return c.num_owners * (c.erasure_data + c.erasure_parity) * c.num_audits;
}

// ------------------------------------------------------------------ rows

/// One episode's measurements, as printed by a child on one line:
/// {"name": number, ..., "digest": "hex"}.
struct Row {
  std::map<std::string, double> num;
  std::string digest;

  double at(const std::string& key) const {
    auto it = num.find(key);
    if (it == num.end()) throw std::runtime_error("row lacks " + key);
    return it->second;
  }
};

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string to_json(const Row& row) {
  std::string out = "{";
  for (const auto& [k, v] : row.num) out += "\"" + k + "\": " + fmt_num(v) + ", ";
  out += "\"digest\": \"" + row.digest + "\"}";
  return out;
}

/// Parses exactly what to_json prints; nullopt on anything else.
std::optional<Row> parse_row(const std::string& line) {
  Row row;
  std::size_t i = line.find('{');
  if (i == std::string::npos) return std::nullopt;
  for (;;) {
    const std::size_t k0 = line.find('"', i);
    if (k0 == std::string::npos) break;
    const std::size_t k1 = line.find('"', k0 + 1);
    const std::size_t colon = line.find(':', k1);
    if (k1 == std::string::npos || colon == std::string::npos) return std::nullopt;
    const std::string key = line.substr(k0 + 1, k1 - k0 - 1);
    std::size_t v = line.find_first_not_of(' ', colon + 1);
    if (v == std::string::npos) return std::nullopt;
    if (line[v] == '"') {
      const std::size_t v1 = line.find('"', v + 1);
      if (v1 == std::string::npos) return std::nullopt;
      if (key == "digest") row.digest = line.substr(v + 1, v1 - v - 1);
      i = v1 + 1;
    } else {
      char* end = nullptr;
      const double d = std::strtod(line.c_str() + v, &end);
      if (end == line.c_str() + v) return std::nullopt;
      row.num[key] = d;
      i = static_cast<std::size_t>(end - line.c_str());
    }
  }
  if (row.digest.empty()) return std::nullopt;
  return row;
}

std::string hex(const std::array<std::uint8_t, 32>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

/// Chain aggregates both episode kinds report; the traced run must match the
/// untraced one on all of them.
void chain_counts(const chain::Blockchain& chain, Row& row) {
  row.num["chain.blocks"] = static_cast<double>(chain.block_count());
  row.num["chain.txs"] = static_cast<double>(chain.tx_count());
  row.num["chain.payload_bytes"] = static_cast<double>(chain.total_payload_bytes());
  row.digest = hex(chain.tx_stream_digest());
}

// ------------------------------------------------------- untraced episode

/// Deploys (w.setups times, keeping the last) and runs the workload through
/// sim::NetworkSim.
Row run_sim(const Workload& w, const sim::NetworkConfig& c) {
  std::unique_ptr<sim::NetworkSim> sim_net;
  std::vector<double> setups;
  for (int i = 0; i < w.setups; ++i) {
    sim_net.reset();
    const auto t0 = Clock::now();
    sim_net = std::make_unique<sim::NetworkSim>(c);
    if (w.churn) {
      ChurnScript script = churn_script(c);
      sim_net->set_fault_schedule(std::move(script.faults));
      for (const auto& [p, strategy] : script.cheaters) sim_net->set_adversary(p, strategy);
    }
    sim_net->deploy();
    setups.push_back(secs_since(t0));
  }
  std::sort(setups.begin(), setups.end());
  sim::NetworkSim& net = *sim_net;

  const auto pc0 = pairing::pairing_counters();
  const double cpu0 = auditbench::cpu_seconds();
  const auto t0 = Clock::now();
  net.run_to_completion();
  const double run_s = secs_since(t0);
  const double cpu_s = auditbench::cpu_seconds() - cpu0;
  const auto pc1 = pairing::pairing_counters();
  net.check_invariants();  // throws on any violated invariant

  const sim::NetworkStats st = net.stats();
  if (!w.churn && (st.total_rounds != expected_rounds(c) ||
                   st.passes != st.total_rounds)) {
    throw std::runtime_error(
        "honest run settled " + std::to_string(st.passes) + " passes of " +
        std::to_string(st.total_rounds) + " rounds, expected " +
        std::to_string(expected_rounds(c)) + " passes");
  }
  if (w.churn && st.attacks_detected != st.attacks_attempted) {
    throw std::runtime_error("a cheating answer went undetected");
  }
  const double rounds = static_cast<double>(st.total_rounds);
  const auto bs = net.batch_settlement()->stats();
  Row row;
  auto& n = row.num;
  n["rounds"] = rounds;
  n["passes"] = static_cast<double>(st.passes);
  n["setup_s"] = setups[setups.size() / 2];
  n["run_s"] = run_s;
  n["rounds_per_s"] = rounds / run_s;
  n["cpu_ms_per_round"] = cpu_s * 1e3 / rounds;
  n["peak_rss_mb"] = static_cast<double>(auditbench::peak_rss_bytes()) / (1 << 20);
  n["chain_bytes_per_round"] = static_cast<double>(st.chain_bytes) / rounds;
  n["gas_per_round"] =
      static_cast<double>(st.total_gas + st.aggregate_tx_gas) / rounds;
  n["sim.audit_fail_frac"] = static_cast<double>(st.fails + st.timeouts) / rounds;
  n["pairing.chains_per_window"] =
      static_cast<double>(pc1.chains - pc0.chains) / static_cast<double>(bs.batches);
  n["pairing.final_exps"] = static_cast<double>(pc1.final_exps - pc0.final_exps);
  n["settle.windows"] = static_cast<double>(bs.batches);
  n["settle.rounds_per_window"] =
      static_cast<double>(bs.rounds) / static_cast<double>(bs.batches);
  n["settle.batch_checks"] = static_cast<double>(bs.batch_checks);
  n["settle.single_checks"] = static_cast<double>(bs.single_checks);
  n["settle.culprits"] = static_cast<double>(bs.culprits);
  n["settle.fallback_windows"] = static_cast<double>(bs.fallback_windows);
  n["sim.slashes"] = static_cast<double>(st.slashes);
  n["sim.timeout_retries"] = static_cast<double>(st.timeout_retries);
  n["sim.attack_detect_frac"] =
      st.attacks_attempted ? static_cast<double>(st.attacks_detected) /
                                 static_cast<double>(st.attacks_attempted)
                           : 0.0;
  chain_counts(net.chain(), row);
  return row;
}

// --------------------------------------------------------- traced episode

/// Busy time of every layer call site the traced replay makes.
struct LayerTrace {
  Accum regen;           // owner bytes drawn / regenerated
  Accum erasure;         // ReedSolomon::encode
  Accum encode;          // storage::encode_file
  Accum keygen;          // audit::keygen
  Accum verifier_build;  // audit::Verifier + audit::prepare_file
  Accum tags;            // audit::generate_tags
  Accum prover_build;    // audit::Prover construction (tables or transient)
  Accum prove;           // Prover::prove / prove_private
  Accum serialize;       // audit::serialize(proof)
  Accum decode;          // deserialize_* replay
  Accum install;         // AuditContract construction + initialize txs
  Accum responder;       // whole responder call (utilization)
};

// NetworkSim's per-owner data seed for streaming regeneration; the traced
// replay derives every RNG stream exactly as NetworkSim::deploy does, so the
// two runs settle the same rounds into the same tx stream.
constexpr std::uint64_t kOwnerDataSeed = 0x94D049BB133111EBULL;
constexpr chain::Timestamp kSlice = 300;  // phase-tiling granularity (s)
constexpr int kKernelReps = 3;

class TracedNetwork {
 public:
  /// `script`: the churn workload's faults and cheaters, replayed through
  /// sim::FaultView and the strategies' public decide() exactly as
  /// NetworkSim's responders apply them.
  TracedNetwork(const sim::NetworkConfig& c, const ChurnScript* script, double delay_s)
      : c_(c),
        rng_(primitives::SecureRng::deterministic(c.rng_seed)),
        chain_(chain_config(c)),
        beacon_(rng_.bytes32()),
        batch_(c.rng_seed),
        rs_(c.erasure_data, c.erasure_parity),
        delay_s_(delay_s) {
    if (c_.key_pool == 0) {
      throw std::invalid_argument("traced replay needs a key pool");
    }
    if (c_.aggregate_settlement) batch_.enable_aggregate_tx();
    for (std::size_t p = 0; p < c_.num_providers; ++p) {
      const std::string name = "provider-" + std::to_string(p);
      ring_.join(name);
      provider_index_[name] = p;
    }
    if (script) {
      faults_.emplace(script->faults, c_.num_providers, c_.response_window_s);
      cheaters_ = script->cheaters;
    }
  }

  void deploy();
  void run();
  /// Decode and kernel replays on the captured first window, then the row.
  Row report();

 private:
  struct Deployment {
    std::size_t index = 0;
    std::size_t owner = 0;
    std::size_t shard = 0;
    std::string provider;
    std::size_t provider_index = 0;
    const attack::AdversaryStrategy* cheat = nullptr;  // null: honest
    attack::AdversaryContext cheat_ctx;
    audit::Fr name;
    std::size_t num_chunks = 0;
    audit::FileTag tag;
    storage::EncodedFile held;                      // full retention
    std::unique_ptr<audit::Prover> prover;          // full retention
    std::unique_ptr<audit::PreparedFile> file_ctx;  // full retention
    std::unique_ptr<primitives::SecureRng> rng;
    std::unique_ptr<contract::AuditContract> contract;
    /// The first challenge this deployment answered honestly and its proof
    /// bytes; the decode and kernel replays re-run them as one window.
    std::optional<std::pair<audit::Challenge, std::vector<std::uint8_t>>> first;
  };

  static chain::ChainConfig chain_config(const sim::NetworkConfig& c) {
    chain::ChainConfig cc;
    cc.settlement_window_s = c.settlement_window_s;
    cc.retention = c.retention;
    return cc;
  }
  bool streaming() const { return c_.retention == chain::Retention::Streaming; }
  std::size_t key_index(std::size_t owner) const { return owner % c_.key_pool; }
  std::vector<std::uint8_t> owner_data(std::size_t owner);
  std::optional<std::vector<std::uint8_t>> respond(Deployment& d,
                                                   const audit::Challenge& chal);
  /// Walks `horizon` seconds of chain time in kSlice steps, classifying each.
  void walk(chain::Timestamp horizon);
  bool all_closed() const;

  sim::NetworkConfig c_;
  primitives::SecureRng rng_;
  chain::Blockchain chain_;
  chain::TrustedBeacon beacon_;
  contract::BatchSettlement batch_;
  storage::ChordRing ring_;
  std::map<std::string, std::size_t> provider_index_;
  storage::ReedSolomon rs_;
  double delay_s_;
  std::optional<sim::FaultView> faults_;
  std::map<std::size_t, std::shared_ptr<const attack::AdversaryStrategy>> cheaters_;
  std::vector<audit::KeyPair> keys_;
  std::vector<std::unique_ptr<audit::Verifier>> verifiers_;
  std::vector<std::vector<std::vector<std::uint8_t>>> owner_shards_;  // full
  std::vector<std::unique_ptr<Deployment>> deps_;

  LayerTrace tr_;
  std::atomic<bool> responded_{false};  // a challenge fired in this slice
  std::atomic<chain::Timestamp> challenged_at_{0};
  bool settled_ = false;                // a round settled in this slice
  std::set<double> slice_flush_ms_;     // distinct window flushes this slice
  std::set<chain::Timestamp> verify_due_;
  std::uint64_t rounds_ = 0, passes_ = 0;
  std::size_t pending_max_ = 0;
  double setup_place_s_ = 0, setup_keygen_s_ = 0, setup_files_s_ = 0,
         setup_contracts_s_ = 0, setup_s_ = 0;
  double challenge_s_ = 0, verify_s_ = 0, backlog_s_ = 0, run_s_ = 0,
         flush_s_ = 0, cpu_s_ = 0;
  // Responder busy time and calls in challenge slices.
  double challenge_busy_s_ = 0;
  std::uint64_t challenge_calls_ = 0;
};

std::vector<std::uint8_t> TracedNetwork::owner_data(std::size_t owner) {
  Span span(tr_.regen);
  std::vector<std::uint8_t> data(c_.file_bytes);
  auto drng = primitives::SecureRng::deterministic(
      c_.rng_seed ^ (kOwnerDataSeed * (owner + 1)));
  drng.fill(data);
  return data;
}

void TracedNetwork::deploy() {
  const double cpu0 = auditbench::cpu_seconds();
  const auto t_setup = Clock::now();
  const std::size_t shards_per_owner = c_.erasure_data + c_.erasure_parity;

  // Stage 1 (sequential): mints, placement and file names — plus owner data
  // under full retention — drawn from the network RNG in NetworkSim's order.
  auto t0 = Clock::now();
  for (std::size_t p = 0; p < c_.num_providers; ++p) {
    chain_.mint("provider-" + std::to_string(p), 1'000'000);
  }
  std::vector<std::uint64_t> lock_on(c_.num_providers, 0);
  for (std::size_t o = 0; o < c_.num_owners; ++o) {
    const std::string owner = "owner-" + std::to_string(o);
    chain_.mint(owner, std::max<std::uint64_t>(
                           1'000'000, shards_per_owner * c_.reward_per_audit *
                                          c_.num_audits));
    if (!streaming()) {
      std::vector<std::uint8_t> data(c_.file_bytes);
      timed(tr_.regen, [&] { rng_.fill(data); });
      owner_shards_.push_back(timed(tr_.erasure, [&] { return rs_.encode(data); }));
    }
    const auto holders =
        ring_.successors(storage::ring_hash(owner + "/archive"), shards_per_owner);
    for (std::size_t sh = 0; sh < shards_per_owner; ++sh) {
      auto dep = std::make_unique<Deployment>();
      dep->index = deps_.size();
      dep->owner = o;
      dep->shard = sh;
      dep->provider = *ring_.node_name(holders[sh % holders.size()]);
      dep->provider_index = provider_index_.at(dep->provider);
      dep->name = audit::Fr::random(rng_);
      lock_on[dep->provider_index] += c_.penalty_per_fail * c_.num_audits;
      deps_.push_back(std::move(dep));
    }
  }
  for (std::size_t p = 0; p < c_.num_providers; ++p) {
    if (lock_on[p] > 1'000'000) {
      chain_.mint("provider-" + std::to_string(p), lock_on[p] - 1'000'000);
    }
  }
  setup_place_s_ = secs_since(t0);

  // Stage 2 (parallel): the key pool and its shared prepared verifiers.
  t0 = Clock::now();
  keys_.resize(c_.key_pool);
  parallel::parallel_for(c_.key_pool, [&](std::size_t k) {
    auto key_rng = primitives::SecureRng::deterministic(
        c_.rng_seed ^ (0xC2B2AE3D27D4EB4FULL * (k + 1)));
    keys_[k] = timed(tr_.keygen, [&] { return audit::keygen(c_.s, key_rng); });
  });
  verifiers_.resize(c_.key_pool);
  parallel::parallel_for(c_.key_pool, [&](std::size_t k) {
    Span span(tr_.verifier_build);
    verifiers_[k] = std::make_unique<audit::Verifier>(keys_[k].pk);
  });
  setup_keygen_s_ = secs_since(t0);

  // Stage 3 (parallel): per-deployment encoding and tags; full retention
  // also builds the prepared prover tables and the per-file verifier context.
  t0 = Clock::now();
  parallel::parallel_for(deps_.size(), [&](std::size_t i) {
    Deployment& d = *deps_[i];
    const audit::KeyPair& kp = keys_[key_index(d.owner)];
    storage::EncodedFile file;
    if (streaming()) {
      const auto data = owner_data(d.owner);
      const auto shards = timed(tr_.erasure, [&] { return rs_.encode(data); });
      file = timed(tr_.encode,
                   [&] { return storage::encode_file(shards[d.shard], c_.s); });
    } else {
      file = timed(tr_.encode, [&] {
        return storage::encode_file(owner_shards_[d.owner][d.shard], c_.s);
      });
    }
    d.num_chunks = file.num_chunks();
    d.tag = timed(tr_.tags, [&] {
      return audit::generate_tags(kp.sk, kp.pk, file, d.name,
                                  parallel::thread_count());
    });
    if (!streaming()) {
      d.held = std::move(file);
      {
        Span span(tr_.prover_build);
        d.prover = std::make_unique<audit::Prover>(kp.pk, d.held, d.tag,
                                                   /*prepare_psi=*/true,
                                                   /*prepare_sigma=*/true);
      }
      Span span(tr_.verifier_build);
      d.file_ctx = std::make_unique<audit::PreparedFile>(
          audit::prepare_file(d.name, d.num_chunks));
    }
  });
  setup_files_s_ = secs_since(t0);

  // Stage 4 (sequential): contracts and their initialize txs, in deployment
  // order, exactly as NetworkSim::install_contract builds them.
  t0 = Clock::now();
  for (std::size_t i = 0; i < deps_.size(); ++i) {
    Deployment& d = *deps_[i];
    Span span(tr_.install);
    d.rng = std::make_unique<primitives::SecureRng>(
        primitives::SecureRng::deterministic(
            c_.rng_seed ^ (0x9E3779B97F4A7C15ULL * (i + 1))));
    contract::ContractTerms terms;
    terms.owner = "owner-" + std::to_string(d.owner);
    terms.provider = d.provider;
    terms.num_audits = c_.num_audits;
    terms.audit_period_s = c_.audit_period_s;
    terms.response_window_s = c_.response_window_s;
    terms.reward_per_audit = c_.reward_per_audit;
    terms.penalty_per_fail = c_.penalty_per_fail;
    terms.challenged_chunks = c_.challenged_chunks;
    terms.private_proofs = c_.private_proofs;
    terms.batch_gas_discount = c_.batch_gas_discount;
    terms.timeout_retry_limit = c_.timeout_retry_limit;
    terms.slash_after_consecutive = c_.slash_after_consecutive;
    if (streaming()) {
      terms.retained_rounds = 2;
      terms.retained_events = 4;
    }
    d.contract = std::make_unique<contract::AuditContract>(
        chain_, beacon_, terms, *verifiers_[key_index(d.owner)], d.name,
        d.num_chunks, d.file_ctx.get());
    d.contract->enable_deferred_settlement(batch_);
    if (auto it = cheaters_.find(d.provider_index); it != cheaters_.end()) {
      // NetworkSim::adversary_context.
      d.cheat = it->second.get();
      d.cheat_ctx = {i, d.provider_index, d.owner, d.num_chunks,
                     c_.reward_per_audit, c_.penalty_per_fail, c_.num_audits};
    }
    d.contract->set_responder(
        [this, &d](const audit::Challenge& chal)
            -> std::optional<std::vector<std::uint8_t>> {
          return respond(d, chal);
        });
    d.contract->set_on_round([this](const contract::RoundRecord& r) {
      if (r.outcome == contract::RoundOutcome::Aborted) return;
      ++rounds_;
      passes_ += r.outcome == contract::RoundOutcome::Pass;
      settled_ = true;
      slice_flush_ms_.insert(r.verify_ms);
    });
    d.contract->negotiated();
    d.contract->acked(true);
    d.contract->freeze();
  }
  setup_contracts_s_ = secs_since(t0);
  setup_s_ = secs_since(t_setup);
  cpu_s_ = auditbench::cpu_seconds() - cpu0;
}

std::optional<std::vector<std::uint8_t>> TracedNetwork::respond(
    Deployment& d, const audit::Challenge& chal) {
  Span busy(tr_.responder);
  responded_.store(true, std::memory_order_relaxed);
  challenged_at_.store(chain_.now(), std::memory_order_relaxed);
  if (delay_s_ > 0) {  // --selfcheck: a fixed busy-wait per challenge
    const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(delay_s_));
    while (Clock::now() < until) {
    }
  }
  if (faults_ && !faults_->available(d.provider_index, chain_.now())) {
    return std::nullopt;  // inside a fault gap, cheaters included
  }
  const auto action =
      d.cheat ? d.cheat->decide(d.cheat_ctx, chal) : attack::AdversaryAction::Honest;
  if (action == attack::AdversaryAction::NoAnswer) return std::nullopt;

  storage::EncodedFile held;  // the transient prover borrows it
  std::optional<audit::Prover> transient;
  const audit::Prover* prover = d.prover.get();
  if (streaming() || d.cheat) {
    // NetworkSim::streaming_prove and adversarial_prove: re-encode the held
    // chunks (regenerated under streaming), zero the ones a cheater never
    // stored, and prove through a transient table-less prover.
    std::vector<std::vector<std::uint8_t>> regen;
    if (streaming()) {
      const auto data = owner_data(d.owner);
      regen = timed(tr_.erasure, [&] { return rs_.encode(data); });
    }
    const auto& shards = streaming() ? regen : owner_shards_[d.owner];
    held = timed(tr_.encode, [&] { return storage::encode_file(shards[d.shard], c_.s); });
    if (action == attack::AdversaryAction::CorruptProof) {
      for (std::size_t i = 0; i < held.chunks.size(); ++i) {
        if (d.cheat->holds_chunk(d.cheat_ctx, i)) continue;
        for (auto& b : held.chunks[i]) b = audit::Fr::zero();
      }
    }
    timed(tr_.prover_build, [&] {
      transient.emplace(keys_[key_index(d.owner)].pk, held, d.tag,
                        /*prepare_psi=*/false, /*prepare_sigma=*/false);
    });
    prover = &*transient;
  }
  std::vector<std::uint8_t> bytes;
  if (c_.private_proofs) {
    const auto proof = timed(tr_.prove, [&] { return prover->prove_private(chal, *d.rng); });
    bytes = timed(tr_.serialize, [&] { return audit::serialize(proof); });
  } else {
    const auto proof = timed(tr_.prove, [&] { return prover->prove(chal); });
    bytes = timed(tr_.serialize, [&] { return audit::serialize(proof); });
  }
  if (action == attack::AdversaryAction::MalformedProof) {
    bytes = attack::corpus::corrupt_proof(bytes, attack::detail::fold(chal.c1) ^ d.index);
  }
  // Only this deployment's responder writes `first`, once per instant.
  if (!d.cheat && !d.first) d.first.emplace(chal, bytes);
  return bytes;
}

void TracedNetwork::walk(chain::Timestamp horizon) {
  // Every slice is classified: it held a verify instant (proofs decoded and
  // enqueued one response window after their challenge) or a round settled
  // in it; else a challenge fired in it; else it only mined blocks. The
  // three classes tile the run wall. Verify wins a tie: under windowed
  // settlement a boundary re-challenges a few timed-out rounds while it
  // decodes and settles the whole window.
  for (chain::Timestamp t = 0; t < horizon; t += kSlice) {
    responded_.store(false);
    settled_ = false;
    slice_flush_ms_.clear();
    const double busy0 = tr_.responder.seconds();
    const std::uint64_t calls0 = tr_.responder.calls.load();
    const auto t0 = Clock::now();
    chain_.advance(std::min(kSlice, horizon - t));
    const double dt = secs_since(t0);
    pending_max_ = std::max(pending_max_, chain_.pending_count());
    bool verify_instant = false;
    while (!verify_due_.empty() && *verify_due_.begin() <= chain_.now()) {
      verify_due_.erase(verify_due_.begin());
      verify_instant = true;
    }
    if (responded_.load()) {
      verify_due_.insert(challenged_at_.load() + c_.response_window_s);
    }
    if (verify_instant || settled_) {
      verify_s_ += dt;
      for (double ms : slice_flush_ms_) flush_s_ += ms * 1e-3;
    } else if (responded_.load()) {
      challenge_s_ += dt;
      challenge_busy_s_ += tr_.responder.seconds() - busy0;
      challenge_calls_ += tr_.responder.calls.load() - calls0;
    } else {
      backlog_s_ += dt;
    }
  }
}

bool TracedNetwork::all_closed() const {
  return std::all_of(deps_.begin(), deps_.end(), [](const auto& d) {
    return d->contract->state() == contract::State::Closed;
  });
}

void TracedNetwork::run() {
  // NetworkSim::run_to_completion: one horizon, then bounded extension
  // epochs while retried rounds keep contracts open.
  const chain::Timestamp slack =
      c_.settlement_window_s > 1 ? (c_.num_audits + 2) * c_.settlement_window_s : 0;
  const chain::Timestamp epoch = (c_.num_audits + 2) * c_.audit_period_s + slack;
  const double cpu0 = auditbench::cpu_seconds();
  const auto t_run = Clock::now();
  walk(epoch);
  for (std::size_t guard = c_.max_repairs + 2; !all_closed() && guard > 0; --guard) {
    walk(epoch);
  }
  run_s_ = secs_since(t_run);
  cpu_s_ += auditbench::cpu_seconds() - cpu0;
  if (!all_closed()) throw std::runtime_error("traced run left contracts open");
}

/// Median per-call time (ms) of `fn`: each sample repeats the call until at
/// least 5 ms have passed, so cheap kernels still read above clock noise.
double kernel_ms(const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < kKernelReps; ++rep) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    do {
      fn();
      ++calls;
    } while (secs_since(t0) < 5e-3);
    samples.push_back(secs_since(t0) * 1e3 / static_cast<double>(calls));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

Row TracedNetwork::report() {
  // Decode replay: every captured first honest proof through deserialize_*,
  // the call AuditContract::prepare_verify makes before enqueueing a round.
  std::vector<const Deployment*> answered;
  for (const auto& d : deps_) {
    if (d->first) answered.push_back(d.get());
  }
  if (answered.empty()) throw std::runtime_error("no deployment answered honestly");
  std::vector<audit::SettlementInstance> window(answered.size());
  parallel::parallel_for(answered.size(), [&](std::size_t i) {
    const Deployment& d = *answered[i];
    audit::SettlementInstance& inst = window[i];
    inst.verifier = verifiers_[key_index(d.owner)].get();
    inst.file = d.file_ctx.get();
    inst.name = d.name;
    inst.num_chunks = d.num_chunks;
    inst.challenge = d.first->first;
    Span span(tr_.decode);
    if (c_.private_proofs) {
      inst.priv = audit::deserialize_private(d.first->second);
    } else {
      inst.basic = audit::deserialize_basic(d.first->second);
    }
  });
  for (const auto& inst : window) {
    if (!inst.basic && !inst.priv) throw std::runtime_error("captured proof failed to decode");
  }

  // Kernel replay: the whole window through verify_settlement, then its
  // kernels alone at the sizes verify_settlement uses (src/audit/
  // protocol.cpp check_batch): one sigma MSM over every round, per key an
  // epsilon MSM of 2 m_k + 1 terms and a delta MSM of m_k, the aggregate
  // opening MSM of m terms, one GT multi-exponentiation over the private R
  // commitments with 128-bit weights, one multi-pairing of 1 + 2 keys pairs.
  // The MSM points are the window's decoded sigma and psi values in order:
  // an MSM's cost depends on its size and scalars, not on which point sits
  // in which slot.
  auto krng = primitives::SecureRng::deterministic(c_.rng_seed ^ 0x5EEDULL);
  const auto seed = krng.bytes32();
  audit::SettlementOptions opts;
  opts.compute_aggregate_opening = c_.aggregate_settlement;
  audit::SettlementOutcome res = audit::verify_settlement(window, seed, opts);
  if (!res.all_ok()) throw std::runtime_error("replayed window failed verification");
  const double vs_ms =
      kernel_ms([&] { res = audit::verify_settlement(window, seed, opts); });

  std::map<const audit::Verifier*, std::size_t> per_key;
  std::vector<audit::G1> sigmas, psis;
  std::vector<audit::Fp12> gt_bases;
  std::vector<bigint::U256> gt_exps;
  for (const auto& inst : window) {
    ++per_key[inst.verifier];
    sigmas.push_back(inst.basic ? inst.basic->sigma : inst.priv->sigma);
    psis.push_back(inst.basic ? inst.basic->psi : inst.priv->psi);
    if (inst.priv) {
      std::array<std::uint8_t, 32> wide{};
      krng.fill(std::span<std::uint8_t>(wide.data() + 16, 16));
      gt_bases.push_back(inst.priv->big_r);
      gt_exps.push_back(audit::Fr::from_be_bytes_mod(wide).to_u256());
    }
  }
  auto scalars = [&](std::size_t n) {
    std::vector<audit::Fr> out(n);
    for (auto& f : out) f = audit::Fr::random(krng);
    return out;
  };
  struct MsmJob {
    std::vector<audit::G1> pts;
    std::vector<audit::Fr> sc;
  };
  std::vector<MsmJob> jobs;
  jobs.push_back({sigmas, scalars(sigmas.size())});
  if (c_.aggregate_settlement) jobs.push_back({psis, scalars(psis.size())});
  std::size_t offset = 0;
  for (const auto& [v, m] : per_key) {
    std::vector<audit::G1> eps(psis.begin() + offset, psis.begin() + offset + m);
    eps.insert(eps.end(), sigmas.begin() + offset, sigmas.begin() + offset + m);
    eps.push_back(audit::G1::generator());
    std::vector<audit::G1> delta(psis.begin() + offset, psis.begin() + offset + m);
    jobs.push_back({eps, scalars(eps.size())});
    jobs.push_back({delta, scalars(delta.size())});
    offset += m;
  }
  std::vector<audit::G1> slot_points(jobs.size());
  const double msm_ms = kernel_ms([&] {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      slot_points[j] = curve::msm<audit::G1>(jobs[j].pts, jobs[j].sc);
    }
  });
  audit::Fp12 gt_acc;
  const double multi_pow_ms =
      kernel_ms([&] { gt_acc = audit::Fp12::multi_pow(gt_bases, gt_exps); });
  std::vector<pairing::PreparedPair> pairs;
  pairs.push_back({slot_points[0], &per_key.begin()->first->prepared_g2()});
  std::size_t slot = c_.aggregate_settlement ? 2 : 1;
  for (const auto& [v, m] : per_key) {
    pairs.push_back({slot_points[slot++], &v->prepared_epsilon()});
    pairs.push_back({slot_points[slot++], &v->prepared_delta()});
  }
  const double pairing_ms = kernel_ms([&] {
    gt_acc = pairing::multi_pairing(std::span<const pairing::PreparedPair>(pairs));
  });
  const audit::Fp12 unreduced = audit::Fp12::random(krng);
  const double final_exp_ms =
      kernel_ms([&] { gt_acc = pairing::final_exponentiation(unreduced); });

  // Span bookkeeping cost: a calibration loop of empty spans.
  Accum calib;
  constexpr int kCalib = 100'000;
  const auto tc = Clock::now();
  for (int i = 0; i < kCalib; ++i) Span span(calib);
  const double span_cost_s = secs_since(tc) / kCalib;
  std::uint64_t spans = 0;
  for (const Accum* a : {&tr_.regen, &tr_.erasure, &tr_.encode, &tr_.keygen,
                         &tr_.verifier_build, &tr_.tags, &tr_.prover_build,
                         &tr_.prove, &tr_.serialize, &tr_.install, &tr_.responder}) {
    spans += a->calls.load();
  }

  Row row;
  auto& n = row.num;
  const double rounds = static_cast<double>(rounds_);
  auto per_round_ms = [&](const Accum& a) { return a.seconds() * 1e3 / rounds; };
  n["rounds"] = rounds;
  n["passes"] = static_cast<double>(passes_);
  n["challenges"] = static_cast<double>(challenge_calls_);
  n["setup_s"] = setup_s_;
  n["run_s"] = run_s_;
  n["rounds_per_s"] = rounds / run_s_;
  n["phase.challenge_s"] = challenge_s_;
  n["phase.verify_s"] = verify_s_;
  n["phase.backlog_s"] = backlog_s_;
  n["phase.cover"] = (challenge_s_ + verify_s_ + backlog_s_) / run_s_;
  n["storage.regen_ms"] = per_round_ms(tr_.regen);
  n["storage.erasure_ms"] = per_round_ms(tr_.erasure);
  n["storage.encode_ms"] = per_round_ms(tr_.encode);
  n["audit.keygen_ms"] = per_round_ms(tr_.keygen);
  n["audit.tags_ms"] = per_round_ms(tr_.tags);
  n["audit.verifier_build_ms"] = per_round_ms(tr_.verifier_build);
  n["audit.prover_build_ms"] = per_round_ms(tr_.prover_build);
  n["audit.prove_ms"] = per_round_ms(tr_.prove);
  n["audit.serialize_ms"] = per_round_ms(tr_.serialize);
  n["audit.decode_ms"] =
      tr_.decode.seconds() * 1e3 / static_cast<double>(tr_.decode.calls.load());
  n["contract.install_ms"] = per_round_ms(tr_.install);
  n["contract.settle_flush_s"] = flush_s_;
  n["contract.actions_s"] = verify_s_ - flush_s_;
  n["parallel.prepare_util"] =
      challenge_busy_s_ / (parallel::thread_count() * challenge_s_);
  n["chain.pending_max"] = static_cast<double>(pending_max_);
  n["setup.place_s"] = setup_place_s_;
  n["setup.keygen_s"] = setup_keygen_s_;
  n["setup.files_s"] = setup_files_s_;
  n["setup.contracts_s"] = setup_contracts_s_;
  n["kernel.window_rounds"] = static_cast<double>(window.size());
  n["kernel.verify_settlement_ms"] = vs_ms;
  n["kernel.msm_ms"] = msm_ms;
  n["kernel.multi_pow_ms"] = multi_pow_ms;
  n["kernel.multi_pairing_ms"] = pairing_ms;
  n["kernel.final_exp_ms"] = final_exp_ms;
  n["kernel.residual_frac"] = 1.0 - (msm_ms + multi_pow_ms + pairing_ms) / vs_ms;
  n["trace.overhead_frac"] = static_cast<double>(spans) * span_cost_s / cpu_s_;
  chain_counts(chain_, row);
  return row;
}

Row run_traced(const Workload& w, const sim::NetworkConfig& c, double delay_s) {
  std::optional<ChurnScript> script;
  if (w.churn) script = churn_script(c);
  TracedNetwork net(c, script ? &*script : nullptr, delay_s);
  net.deploy();
  net.run();
  return net.report();
}

// ----------------------------------------------------------- parent side

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: medians over the untraced (full-script) episodes.
constexpr MetricSpec kEndToEnd[] = {
    {"rounds_per_s", "rounds/s"},   {"cpu_ms_per_round", "ms"},
    {"setup_s", "s"},               {"peak_rss_mb", "MB"},
    {"chain_bytes_per_round", "B"}, {"gas_per_round", "gas"},
};

// Per-layer metrics from the traced episodes (medians).
constexpr MetricSpec kTracedLayer[] = {
    {"phase.challenge_s", "s"},
    {"phase.verify_s", "s"},
    {"phase.backlog_s", "s"},
    {"storage.regen_ms", "ms"},
    {"storage.erasure_ms", "ms"},
    {"storage.encode_ms", "ms"},
    {"audit.keygen_ms", "ms"},
    {"audit.tags_ms", "ms"},
    {"audit.verifier_build_ms", "ms"},
    {"audit.prover_build_ms", "ms"},
    {"audit.prove_ms", "ms"},
    {"audit.serialize_ms", "ms"},
    {"audit.decode_ms", "ms"},
    {"contract.install_ms", "ms"},
    {"contract.settle_flush_s", "s"},
    {"contract.actions_s", "s"},
    {"parallel.prepare_util", "ratio"},
    {"chain.pending_max", "count"},
    {"setup.place_s", "s"},
    {"setup.keygen_s", "s"},
    {"setup.files_s", "s"},
    {"setup.contracts_s", "s"},
    {"kernel.window_rounds", "count"},
    {"kernel.verify_settlement_ms", "ms"},
    {"kernel.msm_ms", "ms"},
    {"kernel.multi_pow_ms", "ms"},
    {"kernel.multi_pairing_ms", "ms"},
    {"kernel.final_exp_ms", "ms"},
    {"kernel.residual_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

// Per-layer counts from the untraced (full-script) episodes; exact.
constexpr MetricSpec kCountLayer[] = {
    {"pairing.chains_per_window", "count"},
    {"pairing.final_exps", "count"},
    {"settle.windows", "count"},
    {"settle.rounds_per_window", "count"},
    {"settle.batch_checks", "count"},
    {"settle.single_checks", "count"},
    {"settle.culprits", "count"},
    {"settle.fallback_windows", "count"},
    {"chain.blocks", "count"},
    {"chain.txs", "count"},
    {"chain.payload_bytes", "B"},
    {"sim.slashes", "count"},
    {"sim.timeout_retries", "count"},
    {"sim.audit_fail_frac", "ratio"},
    {"sim.attack_detect_frac", "ratio"},
};

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 42;
  double seconds = 20;
  int trace = 0;
  unsigned threads = 0;
  int reps = 0;
  bool smoke = false;
  bool selfcheck = false;
};

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

/// This binary's own path (the shell popen starts is not this process).
std::string self_path() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Runs one episode as a child process of this binary and parses its row.
/// The child prints exactly one line on stdout; its stderr passes through.
std::optional<Row> run_child(const Options& o, const Workload& w,
                             const char* kind, double delay_s = 0) {
  static const std::string self = self_path();
  std::string cmd = "'" + self + "' --child " + std::string(kind) +
                    " --workload " + w.name + " --seed " + std::to_string(o.seed) +
                    " --threads " + std::to_string(o.threads) +
                    " --delay " + fmt_num(delay_s) + (o.smoke ? " --smoke" : "");
  std::FILE* child = popen(cmd.c_str(), "r");
  if (!child) return std::nullopt;
  std::string out;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), child)) out += buf;
  const int status = pclose(child);
  if (status != 0) {
    std::fprintf(stderr, "bench_audit: %s episode of %s failed (status %d)\n",
                 kind, w.name, status);
    return std::nullopt;
  }
  auto row = parse_row(out);
  if (!row) {
    std::fprintf(stderr, "bench_audit: unreadable %s row: %s\n", kind, out.c_str());
  }
  return row;
}

double quantile_sorted(const std::vector<double>& v, int i) {
  // statistics.quantiles(v, n=4) ("exclusive" method) cut point i of 1..3;
  // i == 2 is the median.
  const std::size_t n = v.size();
  if (n == 1) return v[0];
  const std::size_t m = n + 1;
  std::size_t j = static_cast<std::size_t>(i) * m / 4;
  j = std::clamp<std::size_t>(j, 1, n - 1);
  const double delta = static_cast<double>(static_cast<std::size_t>(i) * m - j * 4);
  return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
}

struct Summary {
  double q1 = 0, median = 0, q3 = 0;
};

Summary summarize(const std::vector<Row>& rows, const std::string& key) {
  std::vector<double> v;
  for (const Row& r : rows) v.push_back(r.at(key));
  std::sort(v.begin(), v.end());
  Summary s;
  s.median = v.size() % 2 ? v[v.size() / 2]
                          : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  s.q1 = quantile_sorted(v, 1);
  s.q3 = quantile_sorted(v, 3);
  return s;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void fail_check(Outcome& out, const std::string& what) {
  std::fprintf(stderr, "bench_audit: CHECK FAILED: %s\n", what.c_str());
  out.correct = false;
}

/// Folds one episode's rounds into the attempted/failed tally. Churn rounds
/// that did not pass are the cheaters' and faults' doing — the untraced
/// episode proved every cheat detected and, through check_invariants(),
/// no honest round misattributed; the traced one matches it.
void tally(Outcome& out, const Row& r, bool scripted) {
  out.attempted += static_cast<std::uint64_t>(r.at("rounds"));
  if (!scripted) {
    out.failed += static_cast<std::uint64_t>(r.at("rounds") - r.at("passes"));
  }
}

void print_table(const char* title, const MetricSpec* specs, std::size_t n,
                 const std::vector<Row>& rows, bool every_row) {
  std::printf("  %s (%zu episode%s)\n", title, rows.size(), rows.size() == 1 ? "" : "s");
  for (std::size_t i = 0; i < n; ++i) {
    const Summary s = summarize(rows, specs[i].name);
    std::printf("    %-28s %14.6g %-9s  q1 %.6g  q3 %.6g\n", specs[i].name,
                s.median, specs[i].unit, s.q1, s.q3);
  }
  if (every_row) {
    for (const Row& r : rows) std::printf("    row %s\n", to_json(r).c_str());
  }
}

/// Measures one workload: untraced episodes, each followed (trace) by a
/// traced episode that must settle exactly what it settled.
Outcome measure(const Options& o, const Workload& w, bool want_e2e, bool want_layer) {
  Outcome out;
  std::vector<Row> sim_rows, traced_rows;
  const auto t0 = Clock::now();
  double last_cycle_s = 0;
  for (int e = 0;; ++e) {
    // A timed run stops before a cycle that would end past --seconds.
    if (o.reps > 0 ? e >= o.reps
                   : (e >= 1 && secs_since(t0) + last_cycle_s > o.seconds)) {
      break;
    }
    const auto cycle_t0 = Clock::now();
    auto sim_row = run_child(o, w, "sim");
    if (!sim_row) {
      fail_check(out, std::string(w.name) + ": untraced episode failed");
      return out;
    }
    tally(out, *sim_row, w.churn);
    sim_rows.push_back(*sim_row);
    last_cycle_s = secs_since(cycle_t0);
    if (!want_layer) continue;
    auto traced = run_child(o, w, "traced");
    if (!traced) {
      fail_check(out, std::string(w.name) + ": traced episode failed");
      return out;
    }
    tally(out, *traced, w.churn);
    for (const char* key : {"rounds", "passes", "chain.txs", "chain.payload_bytes"}) {
      if (traced->at(key) != sim_row->at(key)) {
        fail_check(out, std::string(w.name) + ": traced " + key + " " +
                            fmt_num(traced->at(key)) + " != untraced " +
                            fmt_num(sim_row->at(key)));
      }
    }
    if (traced->digest != sim_row->digest) {
      fail_check(out, std::string(w.name) + ": traced tx-stream digest differs");
    }
    const double cover = traced->at("phase.cover");
    if (cover < 0.98 || cover > 1.02) {
      fail_check(out, std::string(w.name) + ": phase tiling covers " +
                          fmt_num(cover) + " of the run wall");
    }
    traced_rows.push_back(*traced);
    last_cycle_s = secs_since(cycle_t0);
  }
  // Same seed, same code: every untraced episode is the same computation.
  for (const Row& r : sim_rows) {
    if (r.digest != sim_rows.front().digest) {
      fail_check(out, std::string(w.name) + ": tx-stream digest differs between episodes");
    }
    for (const MetricSpec& m : kCountLayer) {
      if (r.at(m.name) != sim_rows.front().at(m.name)) {
        fail_check(out, std::string(w.name) + ": count " + m.name +
                            " differs between episodes");
      }
    }
  }

  const bool every_row = o.reps > 0;
  std::printf("== %s: seed %llu, %u thread(s), tx-stream digest %s\n", w.name,
              static_cast<unsigned long long>(o.seed), o.threads,
              sim_rows.front().digest.c_str());
  if (want_e2e) {
    print_table("end-to-end", kEndToEnd, std::size(kEndToEnd), sim_rows, every_row);
    for (const MetricSpec& m : kEndToEnd) {
      out.metrics.push_back({m.name, m.unit, summarize(sim_rows, m.name).median});
    }
  }
  if (want_layer) {
    print_table("per-layer, traced", kTracedLayer, std::size(kTracedLayer),
                traced_rows, every_row);
    print_table("per-layer, counts", kCountLayer, std::size(kCountLayer),
                std::vector<Row>{sim_rows.front()}, false);
    for (const MetricSpec& m : kTracedLayer) {
      out.metrics.push_back({m.name, m.unit, summarize(traced_rows, m.name).median});
    }
    for (const MetricSpec& m : kCountLayer) {
      out.metrics.push_back({m.name, m.unit, sim_rows.front().at(m.name)});
    }
    const double fidelity = summarize(traced_rows, "rounds_per_s").median /
                            summarize(sim_rows, "rounds_per_s").median;
    out.metrics.push_back({"trace.fidelity", "ratio", fidelity});
    std::printf("    %-28s %14.6g %s\n", "trace.fidelity", fidelity, "ratio");
    if (fidelity < 0.85 || fidelity > 1.15) {
      std::fprintf(stderr,
                   "bench_audit: warning: %s trace.fidelity %.3f outside "
                   "[0.85, 1.15]\n",
                   w.name, fidelity);
    }
  }
  return out;
}

/// Causal check of the breakdown: a fixed busy-wait injected into the
/// traced responder must grow phase.challenge_s by challenges x delay /
/// threads (within 20%; challenges = responder calls in challenge slices),
/// and the phase tiling must cover >= 98% of the run wall.
/// The delay is derived from a first traced run, sized so the expected
/// growth is the larger of that run's challenge phase and 0.25 s; the
/// comparison uses medians of three interleaved plain/delayed pairs.
Outcome selfcheck(const Options& o, const Workload& w) {
  constexpr int kPairs = 3;
  Outcome out;
  std::vector<Row> plain, slowed;
  double delay_s = 0;
  for (int i = 0; i < 2 * kPairs; ++i) {
    const bool delayed = i % 2 == 1;
    auto row = run_child(o, w, "traced", delayed ? delay_s : 0);
    if (!row) {
      fail_check(out, std::string(w.name) + ": selfcheck episode failed");
      return out;
    }
    tally(out, *row, w.churn);
    if (row->at("phase.cover") < 0.98) {
      fail_check(out, std::string(w.name) + ": phase tiling below 98% of run wall");
    }
    if (i == 0) {
      delay_s = std::max(row->at("phase.challenge_s"), 0.25) * o.threads /
                row->at("challenges");
    }
    (delayed ? slowed : plain).push_back(*row);
  }
  const double expected = plain.front().at("challenges") * delay_s / o.threads;
  const double growth = summarize(slowed, "phase.challenge_s").median -
                        summarize(plain, "phase.challenge_s").median;
  const double run_growth =
      summarize(slowed, "run_s").median - summarize(plain, "run_s").median;
  std::printf("== %s selfcheck: delay %.6g ms/challenge, challenge phase %+.4g s "
              "(expected %+.4g s), run wall %+.4g s\n",
              w.name, delay_s * 1e3, growth, expected, run_growth);
  if (std::abs(growth - expected) > 0.2 * expected) {
    fail_check(out, std::string(w.name) +
                        ": injected delay not attributed to the challenge phase");
  }
  out.metrics.push_back({"selfcheck.growth_ratio", "ratio", growth / expected});
  return out;
}

void print_result(const Outcome& out) {
  std::string json = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + fmt_num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int child_main(const std::string& kind, const Options& o, double delay_s) {
  const Workload* w = find_workload(o.workload);
  if (!w) return 2;
  parallel::set_thread_count(o.threads);
  const sim::NetworkConfig c = config_for(*w, o.seed, o.smoke);
  try {
    Row row;
    if (kind == "sim") {
      row = run_sim(*w, c);
    } else if (kind == "traced") {
      row = run_traced(*w, c, delay_s);
    } else {
      return 2;
    }
    std::printf("%s\n", to_json(row).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_audit: %s %s episode: %s\n", w->name, kind.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_audit [--workload NAME|all] [--seed N] [--seconds S]\n"
               "                   [--trace 0|1] [--threads N] [--reps N] [--smoke]\n"
               "                   [--selfcheck]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string child_kind;
  double delay_s = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--selfcheck") {
      o.selfcheck = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::atoi(argv[++i]);
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (a == "--reps") {
      o.reps = std::atoi(argv[++i]);
    } else if (a == "--child") {
      child_kind = argv[++i];
    } else if (a == "--delay") {
      delay_s = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  const unsigned cores = nproc();
  if (o.threads == 0) o.threads = std::min(4u, cores);
  if (o.threads > cores) {
    std::fprintf(stderr, "bench_audit: --threads %u exceeds nproc %u\n", o.threads, cores);
    return 2;
  }
  if (!child_kind.empty()) return child_main(child_kind, o, delay_s);

  std::vector<const Workload*> selected;
  if (o.workload == "all") {
    for (const Workload& w : kWorkloads) selected.push_back(&w);
  } else if (const Workload* w = find_workload(o.workload)) {
    selected.push_back(w);
  } else {
    return usage();
  }
  // --smoke runs one episode of each kind and reports both metric sets.
  if (o.smoke && o.reps == 0) o.reps = 1;
  const bool want_layer = o.trace == 1 || o.smoke;
  const bool want_e2e = o.trace == 0 || o.smoke;

  std::printf("{\"config\": {\"workload\": \"%s\", \"nproc\": %u, \"threads\": %u, "
              "\"build_type\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"reps\": %d, \"trace\": %d, \"smoke\": %s, \"selfcheck\": %s}}\n",
              o.workload.c_str(), cores, o.threads, AUDITBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(o.seed), fmt_num(o.seconds).c_str(),
              o.reps, o.trace, o.smoke ? "true" : "false",
              o.selfcheck ? "true" : "false");
  std::fflush(stdout);

  Outcome total;
  for (const Workload* w : selected) {
    Outcome out = o.selfcheck ? selfcheck(o, *w) : measure(o, *w, want_e2e, want_layer);
    std::fflush(stdout);
    total.correct = total.correct && out.correct;
    total.attempted += out.attempted;
    total.failed += out.failed;
    if (selected.size() > 1) print_result(out);
    // The combined last line names each metric after its workload.
    for (Metric& m : out.metrics) {
      if (selected.size() > 1) m.name = std::string(w->name) + "." + m.name;
      total.metrics.push_back(std::move(m));
    }
  }
  print_result(total);
  return total.correct && total.failed == 0 ? 0 : 1;
}
