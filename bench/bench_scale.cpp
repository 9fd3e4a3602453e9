// Population-scale throughput and memory benchmark for the streaming
// simulation path (chain::Retention::Streaming + NetworkConfig::key_pool):
// rounds/s, peak RSS and bytes/user at 10^2..10^5 owners (10^6 behind
// --max-pop), at 1 and 4 worker threads.
//
// Each (population, threads) row runs in a fresh child process (this binary
// re-invoked with --row) so peak RSS — VmHWM from /proc/self/status — is the
// row's own high-water mark, not the max across the whole sweep.
//
// Plain main() program (no google-benchmark dependency) so CI's scale-smoke
// step can always build and run it; emits BENCH_scale.json recording the
// perf/memory trajectory.
// Usage: bench_scale [--out FILE] [--smoke] [--max-pop N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/network_sim.hpp"

using namespace dsaudit;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Peak resident set (bytes) of this process: VmHWM from /proc/self/status.
// Returns 0 where procfs is unavailable (the row then reports rss 0 and the
// gate's label join skips it).
std::size_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

// Rounds per contract, tapered so total settled rounds stays bounded as the
// population grows (10^5 x 2 and 10^2 x 10 are both honest working sets).
std::uint64_t audits_for(std::size_t population) {
  if (population <= 1'000) return 10;
  if (population <= 10'000) return 4;
  if (population <= 100'000) return 2;
  return 1;
}

// The population-scale operating point: streaming retention, a shared key
// pool, one single-chunk shard per owner (deployments == population), basic
// proofs settled in blocks. Everything observable is pinned against full
// retention by tests/test_scale.cpp; this benchmark only measures it.
sim::NetworkConfig scale_config(std::size_t population) {
  sim::NetworkConfig c;
  c.num_owners = population;
  c.num_providers = population < 64 ? 16 : 64;
  c.file_bytes = 124;  // one s=4 chunk (4 * 31 bytes)
  c.s = 4;
  c.erasure_data = 1;
  c.erasure_parity = 0;
  c.num_audits = audits_for(population);
  c.challenged_chunks = 1;
  c.private_proofs = false;
  c.batched_settlement = true;
  c.batch_gas_discount = true;
  c.retention = chain::Retention::Streaming;
  c.key_pool = 16;
  c.rng_seed = 42;
  return c;
}

// Child mode: run one row, print its JSON object on stdout, exit.
int run_row(std::size_t population, unsigned threads) {
  parallel::set_thread_count(threads);
  sim::NetworkConfig c = scale_config(population);

  auto t0 = Clock::now();
  sim::NetworkSim net(c);
  net.deploy();
  const double deploy_s = secs_since(t0);

  t0 = Clock::now();
  net.run_to_completion();
  const double run_s = secs_since(t0);
  net.check_invariants();

  const sim::NetworkStats st = net.stats();
  const std::size_t rss = peak_rss_bytes();
  std::printf(
      "{\"population\": %zu, \"threads\": %u, \"num_audits\": %llu, "
      "\"providers\": %zu, \"rounds\": %llu, \"deploy_s\": %.3f, "
      "\"run_s\": %.3f, \"rounds_per_sec\": %.1f, \"chain_bytes\": %zu, "
      "\"peak_rss_bytes\": %zu, \"bytes_per_user\": %.1f}\n",
      population, threads, static_cast<unsigned long long>(c.num_audits),
      c.num_providers, static_cast<unsigned long long>(st.total_rounds),
      deploy_s, run_s, run_s > 0 ? st.total_rounds / run_s : 0.0,
      st.chain_bytes, rss,
      population ? static_cast<double>(rss) / population : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scale.json";
  bool smoke = false;
  std::size_t max_pop = 100'000;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[++i];
    if (!std::strcmp(argv[i], "--smoke")) smoke = true;
    if (!std::strcmp(argv[i], "--max-pop") && i + 1 < argc) {
      max_pop = std::strtoull(argv[++i], nullptr, 10);
    }
    if (!std::strcmp(argv[i], "--row") && i + 2 < argc) {
      return run_row(std::strtoull(argv[i + 1], nullptr, 10),
                     static_cast<unsigned>(std::atoi(argv[i + 2])));
    }
  }

  std::vector<std::size_t> populations;
  std::vector<unsigned> widths;
  if (smoke) {
    // At 10^4 owners each synchronized audit instant queues txs that take
    // hundreds of blocks to drain: the smallest row with a deep mempool.
    populations = {100, 1'000, 10'000};
    widths = {1};
  } else {
    populations = {100, 1'000, 10'000, 100'000, 1'000'000};
    widths = {1, 4};
  }

  std::string json = "{\n  \"config\": {\"retention\": \"streaming\", "
                     "\"key_pool\": 16, \"proofs\": \"basic\", "
                     "\"batched_settlement\": true, \"seed\": 42},\n"
                     "  \"rows\": [";
  bool first = true;
  for (std::size_t pop : populations) {
    if (pop > max_pop) continue;
    for (unsigned w : widths) {
      std::fprintf(stderr, "bench_scale: population %zu, %u thread(s)...\n",
                   pop, w);
      std::string cmd = std::string("\"") + argv[0] + "\" --row " +
                        std::to_string(pop) + " " + std::to_string(w);
      std::FILE* child = popen(cmd.c_str(), "r");
      if (!child) {
        std::fprintf(stderr, "bench_scale: failed to spawn row\n");
        return 1;
      }
      std::string row;
      char buf[512];
      while (std::fgets(buf, sizeof(buf), child)) row += buf;
      const int status = pclose(child);
      while (!row.empty() && (row.back() == '\n' || row.back() == '\r')) {
        row.pop_back();
      }
      if (status != 0 || row.empty() || row.front() != '{') {
        std::fprintf(stderr,
                     "bench_scale: row (population %zu, threads %u) failed "
                     "(status %d): %s\n",
                     pop, w, status, row.c_str());
        return 1;
      }
      json += first ? "\n    " : ",\n    ";
      json += row;
      first = false;
      std::fprintf(stderr, "  %s\n", row.c_str());
    }
  }
  json += "\n  ]\n}\n";

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
