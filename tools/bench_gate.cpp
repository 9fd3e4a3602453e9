// bench_gate: CI regression gate over the committed BENCH_*.json baselines.
//
// Compares every gated metric series in a freshly generated benchmark
// against the committed baseline and fails (exit 1) if any row regresses by
// more than the allowed fraction:
//
//   bench_gate [--max-regression 0.25] [--allow-missing] \
//              <baseline.json> <fresh.json>
//
// Gated metrics and their regression direction:
//   ms_per_round    — higher is worse (BENCH_settlement.json)
//   rounds_per_sec  — lower is worse  (BENCH_settlement / BENCH_scale)
//   bytes_per_user  — higher is worse (BENCH_scale.json memory rows)
//
// Rows are matched in document order by default (a count mismatch means the
// committed baseline must be regenerated). --allow-missing switches to a
// label join: rows present in only one file are reported and skipped — the
// mode the scale-smoke CI step uses, where a quick subset run is gated
// against the committed full sweep.
//
// The parser is deliberately a scanner, not a JSON library: the bench
// writers emit a fixed shape, and the gate only cares about the ordered
// (label, metric, value) rows. Faster rows never fail; CI runners are noisy,
// so the default headroom is 25%.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Metric {
  const char* key;
  bool lower_is_bad;  // regression direction
};

constexpr Metric kMetrics[] = {
    {"ms_per_round", false},
    {"rounds_per_sec", true},
    {"bytes_per_user", false},
    {"bytes_per_round", false},
    {"gas_per_round", false},
};

struct Row {
  std::string label;  // e.g. "basic batch_size=64 ms_per_round"
  double value;
  bool lower_is_bad;
};

/// Extracts the numeric value following `"key":` starting at `from`;
/// returns the position after the number, or std::string::npos.
std::size_t scan_number(const std::string& text, const std::string& key,
                        std::size_t from, double& out) {
  std::string needle = "\"" + key + "\"";
  std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::string::npos;
  at = text.find(':', at + needle.size());
  if (at == std::string::npos) return std::string::npos;
  ++at;
  while (at < text.size() && std::isspace(static_cast<unsigned char>(text[at]))) ++at;
  char* end = nullptr;
  out = std::strtod(text.c_str() + at, &end);
  if (end == text.c_str() + at) return std::string::npos;
  return static_cast<std::size_t>(end - text.c_str());
}

/// The string value of the `"key": "value"` pair starting at `key_at`, or
/// "" if there is none.
std::string scan_string(const std::string& text, std::size_t key_at) {
  const std::size_t open = text.find('"', text.find(':', key_at));
  if (open == std::string::npos) return "";
  const std::size_t close = text.find('"', open + 1);
  if (close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

/// Context label for a metric found at `at`: the nearest preceding
/// population/threads pair (BENCH_scale rows) if one is closer than any
/// settlement section, else the section ("basic"/"private"/"window_sweep"/
/// "aggregate"/"dirty"/"cold") plus the qualifiers of the metric's own row
/// object: op, then batch_size or window, then culprits (BENCH_settlement
/// rows).
std::string context_label(const std::string& text, std::size_t at) {
  std::size_t pop_at = text.rfind("\"population\"", at);
  std::string section = "?";
  std::size_t section_at = std::string::npos;
  for (const char* s :
       {"\"basic\"", "\"private\"", "\"window_sweep\"", "\"aggregate\"",
        "\"dirty\"", "\"cold\""}) {
    std::size_t f = text.rfind(s, at);
    if (f != std::string::npos &&
        (section_at == std::string::npos || f > section_at)) {
      section_at = f;
      section = std::string(s + 1, std::strlen(s) - 2);
    }
  }
  if (pop_at != std::string::npos &&
      (section_at == std::string::npos || pop_at > section_at)) {
    double pop = 0, threads = 0;
    scan_number(text, "population", pop_at, pop);
    std::size_t t_at = text.rfind("\"threads\"", at);
    std::string label = "population=" + std::to_string(static_cast<long>(pop));
    if (t_at != std::string::npos && t_at > pop_at &&
        scan_number(text, "threads", t_at, threads) != std::string::npos) {
      label += " threads=" + std::to_string(static_cast<long>(threads));
    }
    return label;
  }
  // Qualifiers count only inside the metric's own row object.
  const std::size_t row_at = text.rfind('{', at);
  auto in_row = [&](const char* key) {
    const std::size_t k_at = text.rfind("\"" + std::string(key) + "\"", at);
    return k_at != std::string::npos && k_at > row_at ? k_at : std::string::npos;
  };
  auto number_qual = [&](const char* key, std::size_t k_at) {
    double v = 0;
    scan_number(text, key, k_at, v);
    return " " + std::string(key) + "=" + std::to_string(static_cast<long>(v));
  };
  std::string qual;
  if (std::size_t op_at = in_row("op"); op_at != std::string::npos) {
    qual = " op=" + scan_string(text, op_at);
  }
  if (std::size_t bs_at = in_row("batch_size"); bs_at != std::string::npos) {
    qual += number_qual("batch_size", bs_at);
  } else if (std::size_t w_at = in_row("window"); w_at != std::string::npos) {
    qual += number_qual("window", w_at);
  } else if (qual.empty()) {
    qual = " unbatched";
  }
  if (std::size_t c_at = in_row("culprits"); c_at != std::string::npos) {
    qual += number_qual("culprits", c_at);
  }
  return section + qual;
}

/// Walks the document once, collecting every gated metric in order.
std::vector<Row> parse_rows(const std::string& text) {
  std::vector<Row> rows;
  std::size_t pos = 0;
  while (true) {
    // Next occurrence of any gated metric after pos.
    const Metric* best = nullptr;
    std::size_t best_at = std::string::npos;
    for (const Metric& m : kMetrics) {
      std::size_t at = text.find("\"" + std::string(m.key) + "\"", pos);
      if (at != std::string::npos && (best == nullptr || at < best_at)) {
        best = &m;
        best_at = at;
      }
    }
    if (best == nullptr) break;
    double value = 0;
    std::size_t next = scan_number(text, best->key, best_at, value);
    if (next == std::string::npos) break;
    rows.push_back({context_label(text, best_at) + " " + best->key, value,
                    best->lower_is_bad});
    pos = next;
  }
  return rows;
}

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_gate: cannot open %s\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Regression fraction, oriented so positive always means "worse".
double regression(const Row& base, const Row& fresh) {
  if (base.value <= 0 || fresh.value <= 0) return 0.0;
  return base.lower_is_bad ? base.value / fresh.value - 1.0
                           : fresh.value / base.value - 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  double max_regression = 0.25;
  bool allow_missing = false;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-regression") == 0 && i + 1 < argc) {
      max_regression = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--allow-missing") == 0) {
      allow_missing = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "bench_gate: unknown flag %s\n", argv[i]);
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_gate [--max-regression FRAC] [--allow-missing] "
                 "baseline.json fresh.json\n");
    return 2;
  }

  auto base = parse_rows(slurp(files[0]));
  auto fresh = parse_rows(slurp(files[1]));
  if (base.empty() || fresh.empty()) {
    std::fprintf(stderr, "bench_gate: no gated metric rows found\n");
    return 2;
  }
  if (!allow_missing && base.size() != fresh.size()) {
    std::fprintf(stderr,
                 "bench_gate: row count mismatch (baseline %zu vs fresh %zu) — "
                 "regenerate the committed baseline\n",
                 base.size(), fresh.size());
    return 1;
  }

  // Pair rows: by position in strict mode, by label join with --allow-missing.
  std::vector<std::pair<const Row*, const Row*>> pairs;
  if (allow_missing) {
    std::size_t unmatched_fresh = 0;
    for (const Row& f : fresh) {
      const Row* b = nullptr;
      for (const Row& cand : base) {
        if (cand.label == f.label) {
          b = &cand;
          break;
        }
      }
      if (b) {
        pairs.emplace_back(b, &f);
      } else {
        ++unmatched_fresh;
      }
    }
    if (unmatched_fresh) {
      std::printf("bench_gate: %zu fresh row(s) have no baseline (skipped)\n",
                  unmatched_fresh);
    }
    if (pairs.size() < base.size()) {
      std::printf("bench_gate: %zu baseline row(s) not re-measured (skipped)\n",
                  base.size() - pairs.size());
    }
    if (pairs.empty()) {
      std::fprintf(stderr, "bench_gate: no rows matched by label\n");
      return 2;
    }
  } else {
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base[i].label != fresh[i].label) {
        std::fprintf(stderr,
                     "bench_gate: row %zu label mismatch (\"%s\" vs \"%s\") — "
                     "regenerate the committed baseline\n",
                     i, base[i].label.c_str(), fresh[i].label.c_str());
        return 1;
      }
      pairs.emplace_back(&base[i], &fresh[i]);
    }
  }

  int failures = 0;
  std::printf("%-48s %14s %14s %9s\n", "row", "baseline", "fresh", "delta");
  for (const auto& [b, f] : pairs) {
    const double delta = regression(*b, *f);
    const bool bad = delta > max_regression;
    std::printf("%-48s %14.3f %14.3f %+8.1f%%%s\n", b->label.c_str(), b->value,
                f->value, delta * 100, bad ? "  << REGRESSION" : "");
    if (bad) ++failures;
  }
  if (failures) {
    std::fprintf(stderr,
                 "bench_gate: %d row(s) regressed more than %.0f%% vs %s\n",
                 failures, max_regression * 100, files[0]);
    return 1;
  }
  std::printf("bench_gate: OK (max allowed regression %.0f%%)\n",
              max_regression * 100);
  return 0;
}
