// Measurement primitives for bench_audit: out-of-library spans around calls
// into each layer, and the process-level meters (CPU time, peak RSS).
//
// A Span adds the steady_clock time of one call to a named accumulator.
// Accumulators are atomics, so pool workers running concurrent prepare
// stages record without a lock; a layer's busy time is the sum over every
// thread. Nothing inside src/ is instrumented — the spans sit in the
// benchmark's own code, around the public calls it makes.
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>

namespace auditbench {

using Clock = std::chrono::steady_clock;

inline double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Busy time and call count of one layer call site.
struct Accum {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  double seconds() const { return static_cast<double>(ns.load()) * 1e-9; }
};

/// RAII span: on destruction, charges the elapsed time to `acc`.
class Span {
 public:
  explicit Span(Accum& acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0_)
                        .count();
    acc_.ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    acc_.calls.fetch_add(1, std::memory_order_relaxed);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Accum& acc_;
  Clock::time_point t0_;
};

/// Run `fn` inside a span and return its result.
template <typename F>
decltype(auto) timed(Accum& acc, F&& fn) {
  Span span(acc);
  return fn();
}

/// User + system CPU seconds of this process, all threads included.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set of this process (VmHWM), in bytes; 0 without procfs.
inline std::size_t peak_rss_bytes() {
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

}  // namespace auditbench
