#include "engine/scenario_fuzz.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "engine/run_spec.h"
#include "engine/timeline.h"
#include "stats/rng.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"

namespace nbv6::engine {

namespace {

// %.17g: shortest text that round-trips any double exactly — the same
// convention as the golden serializer, so a promoted fuzz config carries
// its fractions bit-exactly into examples/scenarios/.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

// Boundary-biased draws: determinism bugs live at the edges (a fraction of
// exactly 0 or 1 flips every per-residence draw the same way; a one-ulp
// neighbour flips almost none), so the generator lands there often.
double fuzz_fraction(stats::Rng& rng) {
  switch (rng.below(8)) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return 1e-12;
    case 3: return 1.0 - 1e-12;
    case 4: return 0.5;
    default: return rng.uniform();
  }
}

int fuzz_pick(stats::Rng& rng, const std::vector<int>& boundary, int lo,
              int hi) {
  if (rng.chance(0.5))
    return boundary[static_cast<size_t>(
        rng.below(static_cast<std::uint64_t>(boundary.size())))];
  return static_cast<int>(rng.between(lo, hi));
}

/// Random whitespace between event-spec tokens: space, tab, or runs of
/// both. The parser must treat them all identically.
std::string fuzz_sep(stats::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return "\t";
    case 1: return "  ";
    case 2: return " \t ";
    default: return " ";
  }
}

/// One scalar "key = value" line, with optional comment/spacing noise.
void emit_line(std::string& out, stats::Rng& rng, const std::string& key,
               const std::string& value) {
  switch (rng.below(4)) {
    case 0: out += key + "=" + value; break;
    case 1: out += key + " =\t" + value; break;
    case 2: out += "  " + key + " = " + value + "   "; break;
    default: out += key + " = " + value; break;
  }
  if (rng.chance(0.2)) out += "  # fuzz";
  out += '\n';
  if (rng.chance(0.15)) out += "# interleaved comment line\n";
  if (rng.chance(0.1)) out += "\n";
}

struct WindowSpec {
  std::string text;  ///< the day=/start=/end= tokens
  int start_day = 0;
};

/// A window shape: pinned day, open-ended start, closed range (possibly
/// degenerate start==end, possibly running far past the horizon — both
/// legal, both clamped at evaluation time). start is always < days so the
/// horizon validation passes.
WindowSpec fuzz_window(stats::Rng& rng, int days, const std::string& sep) {
  WindowSpec w;
  w.start_day = static_cast<int>(rng.below(static_cast<std::uint64_t>(days)));
  switch (rng.below(4)) {
    case 0:
      w.text = "day=" + std::to_string(w.start_day);
      break;
    case 1:
      w.text = "start=" + std::to_string(w.start_day);  // to the horizon
      break;
    case 2: {
      // Tail past the horizon: evaluation clamps to days-1.
      int end = w.start_day + static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(2 * days + 1)));
      w.text = "start=" + std::to_string(w.start_day) + sep +
               "end=" + std::to_string(end);
      break;
    }
    default: {
      int end = w.start_day +
                static_cast<int>(rng.below(static_cast<std::uint64_t>(
                    std::max(1, days - w.start_day))));
      w.text = "start=" + std::to_string(w.start_day) + sep +
               "end=" + std::to_string(end);
      break;
    }
  }
  return w;
}

/// Ramp/flash multiplier: boundary-biased inside the parser's (0, 16]
/// range, but capped low enough that a max_events stack of multiplicative
/// ramps cannot push per-tick arrival counts into fuzz-run-hostile
/// territory (the day-state composition also clamps composites at 16).
double fuzz_mult(stats::Rng& rng) {
  switch (rng.below(8)) {
    case 0: return 16.0;   // the parse ceiling
    case 1: return 1.0;    // a no-op ramp — must stay bit-transparent
    case 2: return 0.0625; // strong ramp-down
    case 3: return 2.0;
    default: return rng.uniform(0.25, 4.0);
  }
}

std::string fuzz_event_line(stats::Rng& rng, int days) {
  static constexpr const char* kKinds[] = {
      "rollout_wave",   "cpe_fix",        "outage",
      "nat64_migration", "seasonal",       "prefix_renumber",
      "service_outage", "cgn_exhaustion", "device_turnover",
      "lambda_ramp",    "flash_crowd"};
  const std::string kind = kKinds[rng.below(std::size(kKinds))];
  const std::string sep = fuzz_sep(rng);
  WindowSpec w = fuzz_window(rng, days, sep);

  std::string spec = w.text;
  if (rng.chance(0.8)) spec += sep + "frac=" + fmt_double(fuzz_fraction(rng));

  if (kind == "seasonal") {
    if (rng.chance(0.7)) spec += sep + "amp=" + fmt_double(fuzz_fraction(rng));
    if (rng.chance(0.7))
      spec += sep + "period=" + std::to_string(rng.between(1, 3 * days));
  } else if (kind == "outage" || kind == "service_outage") {
    if (rng.chance(0.5))
      spec += sep + "len=" + std::to_string(rng.between(1, days + 3));
  }
  if (kind == "service_outage") {
    // Mostly real catalog indices (the paper catalog has 39 services) so
    // the outage actually bites; sometimes the mask's upper range.
    int svc = rng.chance(0.8) ? static_cast<int>(rng.below(39))
                              : static_cast<int>(rng.between(39, 63));
    spec += sep + "svc=" + std::to_string(svc);
  } else if (kind == "cgn_exhaustion") {
    static constexpr int kBudgets[] = {0, 1, 10, 100, 1000, 100000};
    int ports = rng.chance(0.7)
                    ? kBudgets[rng.below(std::size(kBudgets))]
                    : static_cast<int>(rng.between(0, 5000));
    spec += sep + "ports=" + std::to_string(ports);
  } else if (kind == "device_turnover") {
    spec += sep + "rate=" + fmt_double(fuzz_fraction(rng));
  } else if (kind == "lambda_ramp") {
    spec += sep + "mult=" + fmt_double(fuzz_mult(rng));
  } else if (kind == "flash_crowd") {
    spec += sep + "hour=" + std::to_string(rng.below(24));
    if (rng.chance(0.6))
      spec += sep + "hours=" + std::to_string(rng.between(1, 24));
    spec += sep + "mult=" + fmt_double(fuzz_mult(rng));
  }
  return "timeline." + kind + " = " + spec;
}

}  // namespace

std::string generate_scenario_text(std::uint64_t seed,
                                   const ScenarioFuzzOptions& opts) {
  stats::Rng rng(seed ^ 0x5ce7a7105fu);
  std::string out = "# fuzz scenario seed=" + fmt_u64(seed) + "\n";

  const int days = fuzz_pick(rng, {1, 2, 7, opts.max_days}, 1, opts.max_days);
  const int residences =
      fuzz_pick(rng, {1, 2, 3, opts.max_residences}, 1, opts.max_residences);

  // Scalar section: a random subset in a random order (the parser must not
  // care), always including the keys that shape the run.
  struct KV {
    std::string key, value;
  };
  std::vector<KV> lines;
  lines.push_back({"residences", std::to_string(residences)});
  lines.push_back({"days", std::to_string(days)});
  lines.push_back({"seed", fmt_u64(stats::splitmix64(seed))});
  if (rng.chance(0.5))
    lines.push_back({"threads", std::to_string(rng.between(0, 8))});
  for (const char* key :
       {"dual_stack_isp_frac", "broken_v6_frac", "heavy_streamer_frac",
        "background_only_frac", "opt_out_frac", "absence_prob"}) {
    if (rng.chance(0.6)) lines.push_back({key, fmt_double(fuzz_fraction(rng))});
  }
  if (rng.chance(0.6)) {
    // min <= max by construction, including the degenerate min == max == 0
    // fleet (background chatter only).
    double lo = rng.chance(0.25) ? 0.0 : rng.uniform(0.0, 6.0);
    double hi = rng.chance(0.25) ? lo : lo + rng.uniform(0.0, 6.0);
    lines.push_back({"activity_scale_min", fmt_double(lo)});
    lines.push_back({"activity_scale_max", fmt_double(hi)});
  }
  if (rng.chance(0.5)) {
    static constexpr const char* kModes[] = {"batch", "poisson", "uniform"};
    lines.push_back({"arrival.mode",
                     kModes[rng.below(std::size(kModes))]});
    if (rng.chance(0.7)) {
      // Mostly coarse ticks (the differential battery replays every
      // scenario several times); 7 does not divide 3600, exercising the
      // integer slot-boundary tiling; 60 occasionally for realism.
      static constexpr int kTicks[] = {1, 2, 3, 4, 6, 7, 12};
      int tph = rng.chance(0.15)
                    ? 60
                    : kTicks[rng.below(std::size(kTicks))];
      lines.push_back({"arrival.ticks_per_hour", std::to_string(tph)});
    }
  }
  // Fisher-Yates with the scenario's own rng: key order is part of the
  // grammar surface being fuzzed.
  for (size_t i = lines.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.below(i));
    std::swap(lines[i - 1], lines[j]);
  }
  for (const auto& kv : lines) emit_line(out, rng, kv.key, kv.value);

  const int events =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(opts.max_events + 1)));
  for (int e = 0; e < events; ++e) {
    out += fuzz_event_line(rng, days);
    if (rng.chance(0.2)) out += "  # event";
    out += '\n';
  }
  return out;
}

std::string to_config_text(const FleetConfig& cfg) {
  std::string out;
  out += "residences = " + std::to_string(cfg.residences) + "\n";
  out += "days = " + std::to_string(cfg.days) + "\n";
  out += "threads = " + std::to_string(cfg.threads) + "\n";
  out += "seed = " + fmt_u64(cfg.seed) + "\n";
  out += "dual_stack_isp_frac = " + fmt_double(cfg.dual_stack_isp_frac) + "\n";
  out += "broken_v6_frac = " + fmt_double(cfg.broken_v6_frac) + "\n";
  out += "heavy_streamer_frac = " + fmt_double(cfg.heavy_streamer_frac) + "\n";
  out +=
      "background_only_frac = " + fmt_double(cfg.background_only_frac) + "\n";
  out += "opt_out_frac = " + fmt_double(cfg.opt_out_frac) + "\n";
  out += "absence_prob = " + fmt_double(cfg.absence_prob) + "\n";
  out += "activity_scale_min = " + fmt_double(cfg.activity_scale_min) + "\n";
  out += "activity_scale_max = " + fmt_double(cfg.activity_scale_max) + "\n";
  out += "arrival.mode = " +
         std::string(traffic::to_string(cfg.arrival->mode)) + "\n";
  out += "arrival.ticks_per_hour = " +
         std::to_string(cfg.arrival->ticks_per_hour) + "\n";
  for (const auto& ev : cfg.timeline->events) {
    out += "timeline.";
    out += to_string(ev.kind);
    out += " = ";
    if (ev.start_day == ev.end_day) {
      out += "day=" + std::to_string(ev.start_day);
    } else if (ev.end_day == std::numeric_limits<int>::max()) {
      out += "start=" + std::to_string(ev.start_day);  // to the horizon
    } else {
      out += "start=" + std::to_string(ev.start_day) +
             " end=" + std::to_string(ev.end_day);
    }
    out += " frac=" + fmt_double(ev.fraction);
    switch (ev.kind) {
      case TimelineEventKind::seasonal:
        out += " amp=" + fmt_double(ev.amplitude);
        if (ev.period_days > 0)
          out += " period=" + std::to_string(ev.period_days);
        break;
      case TimelineEventKind::outage:
        if (ev.duration_days > 0)
          out += " len=" + std::to_string(ev.duration_days);
        break;
      case TimelineEventKind::service_outage:
        if (ev.duration_days > 0)
          out += " len=" + std::to_string(ev.duration_days);
        out += " svc=" + std::to_string(ev.service);
        break;
      case TimelineEventKind::cgn_exhaustion:
        out += " ports=" + std::to_string(ev.port_budget);
        break;
      case TimelineEventKind::device_turnover:
        out += " rate=" + fmt_double(ev.turnover_rate);
        break;
      case TimelineEventKind::lambda_ramp:
        out += " mult=" + fmt_double(ev.mult);
        break;
      case TimelineEventKind::flash_crowd:
        out += " hour=" + std::to_string(ev.hour) +
               " hours=" + std::to_string(ev.hour_span) +
               " mult=" + fmt_double(ev.mult);
        break;
      default:
        break;
    }
    out += '\n';
  }
  return out;
}

std::optional<std::string> check_parse_round_trip(std::string_view text) {
  std::string error;
  auto cfg = FleetConfig::parse(text, &error);
  if (!cfg) return "initial parse failed: " + error;

  const std::string rendered = to_config_text(*cfg);
  auto cfg2 = FleetConfig::parse(rendered, &error);
  if (!cfg2)
    return "rendered text failed to reparse: " + error +
           "\nrendered:\n" + rendered;
  if (!(*cfg == *cfg2))
    return "config changed across render/reparse\nrendered:\n" + rendered;
  // Render must be a fixed point: a second pass through the renderer that
  // changed a byte would mean non-canonical float formatting.
  if (to_config_text(*cfg2) != rendered)
    return "renderer is not a fixed point\nrendered:\n" + rendered;
  return std::nullopt;
}

std::optional<std::string> check_plan_parity(
    const FleetConfig& cfg, const traffic::ServiceCatalog& catalog) {
  SampledFleet lazy = sample_stage(cfg, catalog);
  SampledFleet mat = sample_stage(cfg, catalog);
  apply_timeline(lazy, cfg.timeline, cfg.seed, cfg.days,
                 TimelinePlanMode::lazy);
  apply_timeline(mat, cfg.timeline, cfg.seed, cfg.days,
                 TimelinePlanMode::materialized);

  auto cell = [](size_t i, int d) {
    return "residence " + std::to_string(i) + " day " + std::to_string(d);
  };
  for (size_t i = 0; i < lazy.configs.size(); ++i) {
    const auto& lz = lazy.configs[i];
    const auto& mt = mat.configs[i];
    if (cfg.timeline->empty()) {
      if (lz.day_plan_fn || !lz.day_plan.empty() || mt.day_plan_fn ||
          !mt.day_plan.empty())
        return "empty timeline left plan state on residence " +
               std::to_string(i);
      continue;
    }
    if (!lz.day_plan_fn)
      return "lazy mode missing day_plan_fn on residence " + std::to_string(i);
    if (mt.day_plan.size() != static_cast<size_t>(cfg.days))
      return "materialized plan has " + std::to_string(mt.day_plan.size()) +
             " days, expected " + std::to_string(cfg.days) + " on residence " +
             std::to_string(i);
    for (int d = 0; d < cfg.days; ++d) {
      const traffic::DayPlan a = lz.day_plan_fn(d);
      const traffic::DayPlan b = mt.day_plan[static_cast<size_t>(d)];
      if (!(a == b)) return "lazy/materialized plan mismatch at " + cell(i, d);
      // The plan must also be a pure function of the day: a second
      // evaluation through the lazy closure has no state to vary on.
      if (!(lz.day_plan_fn(d) == a))
        return "lazy plan not pure at " + cell(i, d);
    }
    // Out-of-horizon days fall back to the static plan in both modes (the
    // materialized vector via its bounds check, the closure explicitly).
    if (!(lz.day_plan_fn(cfg.days) == traffic::kStaticDayPlan) ||
        !(lz.day_plan_fn(-1) == traffic::kStaticDayPlan))
      return "lazy plan out-of-horizon fallback broken on residence " +
             std::to_string(i);
  }
  return std::nullopt;
}

}  // namespace nbv6::engine
