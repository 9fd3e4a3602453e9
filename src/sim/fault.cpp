#include "sim/fault.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "primitives/random.hpp"

namespace dsaudit::sim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Crash: return "crash";
    case FaultKind::Offline: return "offline";
    case FaultKind::ShardLoss: return "shard-loss";
    case FaultKind::DropProof: return "drop-proof";
    case FaultKind::DelayProof: return "delay-proof";
    case FaultKind::EarlyExit: return "early-exit";
  }
  return "?";
}

FaultSchedule FaultSchedule::random(std::uint64_t seed,
                                    std::size_t num_providers,
                                    chain::Timestamp horizon_s,
                                    std::size_t max_events) {
  if (num_providers == 0 || horizon_s == 0) {
    throw std::invalid_argument("FaultSchedule::random: empty network/horizon");
  }
  auto rng = primitives::SecureRng::deterministic(seed ^ 0xFA017EE7D15A57E4ULL);
  FaultSchedule sched;
  const std::size_t n = rng.uniform(max_events + 1);
  for (std::size_t i = 0; i < n; ++i) {
    FaultEvent ev;
    ev.at = 1 + rng.uniform(horizon_s);
    ev.provider = rng.uniform(num_providers);
    ev.kind = static_cast<FaultKind>(rng.uniform(6));
    if (ev.kind == FaultKind::Offline) {
      ev.duration_s = 1 + rng.uniform(horizon_s / 2);
    }
    sched.events.push_back(ev);
  }
  // Canonical time order: installation and consequence ordering must not
  // depend on draw order.
  std::stable_sort(sched.events.begin(), sched.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return sched;
}

std::string FaultSchedule::describe() const {
  std::ostringstream os;
  for (const auto& ev : events) {
    os << "  t=" << ev.at << " provider-" << ev.provider << " "
       << to_string(ev.kind);
    if (ev.kind == FaultKind::Offline) os << " for " << ev.duration_s << "s";
    os << "\n";
  }
  if (events.empty()) os << "  (no events)\n";
  return os.str();
}

FaultView::FaultView(const FaultSchedule& schedule, std::size_t num_providers,
                     chain::Timestamp response_window_s)
    : providers_(num_providers) {
  for (const auto& ev : schedule.events) {
    if (ev.provider >= num_providers) {
      throw std::invalid_argument("FaultView: provider index out of range");
    }
    Provider& p = providers_[ev.provider];
    switch (ev.kind) {
      case FaultKind::Crash:
      case FaultKind::EarlyExit:
        p.silent_from = std::min(p.silent_from, ev.at);
        break;
      case FaultKind::Offline:
        p.gaps.push_back({ev.at, ev.at + ev.duration_s});
        break;
      case FaultKind::DropProof:
        // Long enough that the first retry (one response window later)
        // still lands inside the gap: only a second retry recovers.
        p.gaps.push_back({ev.at, ev.at + 2 * response_window_s + 1});
        break;
      case FaultKind::DelayProof:
        // The first attempt misses the deadline; a retry one response
        // window later is already outside the gap and succeeds.
        p.gaps.push_back({ev.at, ev.at + response_window_s});
        break;
      case FaultKind::ShardLoss:
        break;  // data consequence only; availability is untouched
    }
  }
}

bool FaultView::available(std::size_t provider, chain::Timestamp t) const {
  if (provider >= providers_.size()) return true;
  const Provider& p = providers_[provider];
  if (t >= p.silent_from) return false;
  for (const auto& gap : p.gaps) {
    if (t >= gap.begin && t < gap.end) return false;
  }
  return true;
}

}  // namespace dsaudit::sim
