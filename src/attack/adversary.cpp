#include "attack/adversary.hpp"

#include <algorithm>
#include <sstream>

namespace dsaudit::attack {

using detail::fold;
using detail::mix64;

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::PartialStorage: return "partial-storage";
    case StrategyKind::Colluding: return "colluding";
    case StrategyKind::Selective: return "selective";
    case StrategyKind::SeedGrinding: return "seed-grinding";
    case StrategyKind::MalformedBytes: return "malformed-bytes";
  }
  return "?";
}

const char* to_string(AdversaryAction action) {
  switch (action) {
    case AdversaryAction::Honest: return "honest";
    case AdversaryAction::CorruptProof: return "corrupt-proof";
    case AdversaryAction::NoAnswer: return "no-answer";
    case AdversaryAction::MalformedProof: return "malformed-proof";
    case AdversaryAction::GrindProof: return "grind-proof";
  }
  return "?";
}

// ----------------------------------------------------------- PartialStorage

PartialStorageStrategy::PartialStorageStrategy(std::uint64_t seed,
                                               std::uint32_t stored_permille,
                                               bool answer_uncovered)
    : seed_(seed),
      stored_permille_(std::min<std::uint32_t>(stored_permille, 1000)),
      answer_uncovered_(answer_uncovered) {}

bool PartialStorageStrategy::holds_chunk(const AdversaryContext& ctx,
                                         std::uint64_t index) const {
  // Fixed for the whole run: which chunks the provider bothered to store is
  // decided once per (deployment, chunk), not per challenge.
  return mix64(seed_ ^ mix64(ctx.deployment * 0x7F4A7C15ULL + 1) ^ index) %
             1000 <
         stored_permille_;
}

AdversaryAction PartialStorageStrategy::decide(
    const AdversaryContext& ctx, const audit::Challenge& chal) const {
  const auto expanded = audit::expand_challenge(chal, ctx.num_chunks);
  for (std::uint64_t idx : expanded.indices) {
    if (!holds_chunk(ctx, idx)) {
      return answer_uncovered_ ? AdversaryAction::CorruptProof
                               : AdversaryAction::NoAnswer;
    }
  }
  return AdversaryAction::Honest;  // every challenged chunk is held
}

std::string PartialStorageStrategy::describe() const {
  std::ostringstream out;
  out << "partial-storage(seed=" << seed_ << ", stored=" << stored_permille_
      << "/1000, " << (answer_uncovered_ ? "answers" : "silent")
      << " when uncovered)";
  return out.str();
}

// ---------------------------------------------------------------- Colluding

ColludingStrategy::ColludingStrategy(std::uint64_t group_seed,
                                     std::uint32_t cheat_permille)
    : group_seed_(group_seed),
      cheat_permille_(std::min<std::uint32_t>(cheat_permille, 1000)) {}

bool ColludingStrategy::holds_chunk(const AdversaryContext&,
                                    std::uint64_t index) const {
  return index != 0;  // the ring's shared corrupted state: chunk 0 is gone
}

AdversaryAction ColludingStrategy::decide(const AdversaryContext&,
                                          const audit::Challenge& chal) const {
  // Keyed only by the group seed and the challenge: every ring member with
  // the same group_seed strikes on correlated coins, piling cross-key
  // failures into the same settlement window.
  return mix64(group_seed_ ^ fold(chal.c1)) % 1000 < cheat_permille_
             ? AdversaryAction::CorruptProof
             : AdversaryAction::Honest;
}

std::string ColludingStrategy::describe() const {
  std::ostringstream out;
  out << "colluding(group=" << group_seed_ << ", cheat=" << cheat_permille_
      << "/1000)";
  return out.str();
}

// ---------------------------------------------------------------- Selective

SelectiveStrategy::SelectiveStrategy(std::uint64_t seed,
                                     std::uint64_t value_threshold,
                                     std::uint32_t cheat_permille)
    : seed_(seed),
      value_threshold_(value_threshold),
      cheat_permille_(std::min<std::uint32_t>(cheat_permille, 1000)) {}

bool SelectiveStrategy::holds_chunk(const AdversaryContext& ctx,
                                    std::uint64_t index) const {
  // Data for cheap contracts was never fully stored.
  if (ctx.reward_per_audit * ctx.num_audits >= value_threshold_) return true;
  return index != 0;
}

AdversaryAction SelectiveStrategy::decide(const AdversaryContext& ctx,
                                          const audit::Challenge& chal) const {
  if (ctx.reward_per_audit * ctx.num_audits >= value_threshold_) {
    return AdversaryAction::Honest;  // premium contracts are served honestly
  }
  return mix64(seed_ ^ fold(chal.c1) ^ ctx.deployment) % 1000 < cheat_permille_
             ? AdversaryAction::CorruptProof
             : AdversaryAction::Honest;
}

std::string SelectiveStrategy::describe() const {
  std::ostringstream out;
  out << "selective(seed=" << seed_ << ", threshold=" << value_threshold_
      << ", cheat=" << cheat_permille_ << "/1000)";
  return out.str();
}

// ------------------------------------------------------------- SeedGrinding

SeedGrindingStrategy::SeedGrindingStrategy(std::uint64_t seed,
                                           std::size_t candidates)
    : seed_(seed), candidates_(std::max<std::size_t>(candidates, 1)) {}

AdversaryAction SeedGrindingStrategy::decide(const AdversaryContext&,
                                             const audit::Challenge&) const {
  return AdversaryAction::GrindProof;
}

std::string SeedGrindingStrategy::describe() const {
  std::ostringstream out;
  out << "seed-grinding(seed=" << seed_ << ", candidates=" << candidates_
      << ")";
  return out.str();
}

// ----------------------------------------------------------- MalformedBytes

MalformedBytesStrategy::MalformedBytesStrategy(std::uint64_t seed,
                                               std::uint32_t malformed_permille)
    : seed_(seed),
      malformed_permille_(std::min<std::uint32_t>(malformed_permille, 1000)) {}

AdversaryAction MalformedBytesStrategy::decide(
    const AdversaryContext& ctx, const audit::Challenge& chal) const {
  return mix64(seed_ ^ fold(chal.c1) ^ ctx.deployment) % 1000 <
                 malformed_permille_
             ? AdversaryAction::MalformedProof
             : AdversaryAction::Honest;
}

std::string MalformedBytesStrategy::describe() const {
  std::ostringstream out;
  out << "malformed-bytes(seed=" << seed_ << ", rate=" << malformed_permille_
      << "/1000)";
  return out.str();
}

// ------------------------------------------------------------------- Roster

AdversaryRoster AdversaryRoster::random(std::uint64_t seed,
                                        std::size_t num_providers,
                                        std::size_t max_adversaries) {
  AdversaryRoster roster;
  roster.by_provider.assign(num_providers, nullptr);
  if (num_providers == 0 || max_adversaries == 0) return roster;
  const std::uint64_t base = mix64(seed ^ 0xADE55A27ULL);
  const std::size_t count =
      1 + mix64(base) % std::min(max_adversaries, num_providers);
  // One shared group seed: every Colluding member drawn below joins it.
  const std::uint64_t group_seed = mix64(base ^ 0xC0117DE5ULL);
  std::size_t placed = 0;
  for (std::uint64_t attempt = 0; placed < count && attempt < count * 16;
       ++attempt) {
    const std::size_t p =
        mix64(base ^ (0x51D7 + attempt)) % num_providers;
    if (roster.by_provider[p]) continue;
    const std::uint64_t draw = mix64(base ^ (0xA77ACC + attempt));
    const std::uint64_t sseed = mix64(draw ^ p);
    switch (static_cast<StrategyKind>(draw % 5)) {
      case StrategyKind::PartialStorage:
        roster.by_provider[p] = std::make_shared<PartialStorageStrategy>(
            sseed, 400 + mix64(sseed ^ 1) % 500,  // stores 40%..90%
            /*answer_uncovered=*/(mix64(sseed ^ 2) & 1) != 0);
        break;
      case StrategyKind::Colluding:
        roster.by_provider[p] = std::make_shared<ColludingStrategy>(
            group_seed, 300 + mix64(sseed ^ 3) % 500);  // strikes 30%..80%
        break;
      case StrategyKind::Selective:
        // Threshold lands between the base and premium contract values of
        // the sweeps (base reward 10..20 * num_audits) so both branches run.
        roster.by_provider[p] = std::make_shared<SelectiveStrategy>(
            sseed, 30 + mix64(sseed ^ 4) % 60, 1000);
        break;
      case StrategyKind::SeedGrinding:
        roster.by_provider[p] = std::make_shared<SeedGrindingStrategy>(
            sseed, 2 + mix64(sseed ^ 5) % 3);
        break;
      case StrategyKind::MalformedBytes:
        roster.by_provider[p] = std::make_shared<MalformedBytesStrategy>(
            sseed, 300 + mix64(sseed ^ 6) % 500);
        break;
    }
    ++placed;
  }
  return roster;
}

std::string AdversaryRoster::describe() const {
  std::ostringstream out;
  for (std::size_t p = 0; p < by_provider.size(); ++p) {
    if (!by_provider[p]) continue;
    out << "  provider-" << p << ": " << by_provider[p]->describe() << "\n";
  }
  if (out.str().empty()) return "  (no adversaries)\n";
  return out.str();
}

}  // namespace dsaudit::attack
