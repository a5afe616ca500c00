#include "engine/timeline.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/fleet.h"
#include "stats/rng.h"

namespace nbv6::engine {

namespace cfgparse {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

bool parse_double(std::string_view v, double& out) {
  // std::from_chars<double> is not universally available; strtod on a
  // bounded copy is fine for config-file volumes.
  std::string tmp(v);
  char* end = nullptr;
  out = std::strtod(tmp.c_str(), &end);
  return end == tmp.c_str() + tmp.size() && !tmp.empty() &&
         std::isfinite(out);
}

bool parse_int(std::string_view v, int& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && p == v.data() + v.size();
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && p == v.data() + v.size();
}

}  // namespace cfgparse

const char* to_string(TimelineEventKind k) {
  switch (k) {
    case TimelineEventKind::rollout_wave: return "rollout_wave";
    case TimelineEventKind::cpe_fix: return "cpe_fix";
    case TimelineEventKind::outage: return "outage";
    case TimelineEventKind::nat64_migration: return "nat64_migration";
    case TimelineEventKind::seasonal: return "seasonal";
    case TimelineEventKind::prefix_renumber: return "prefix_renumber";
    case TimelineEventKind::service_outage: return "service_outage";
    case TimelineEventKind::cgn_exhaustion: return "cgn_exhaustion";
    case TimelineEventKind::device_turnover: return "device_turnover";
    case TimelineEventKind::lambda_ramp: return "lambda_ramp";
    case TimelineEventKind::flash_crowd: return "flash_crowd";
  }
  return "?";
}

namespace {

/// Fill `*error` (when non-null) with "<what> '<token>'"-style context;
/// every rejection names the offending token so config mistakes are
/// diagnosable from the message alone.
std::nullopt_t fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return std::nullopt;
}

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '\'';
  out += s;
  out += '\'';
  return out;
}

}  // namespace

std::optional<TimelineEvent> Timeline::parse_event(std::string_view kind,
                                                   std::string_view spec,
                                                   std::string* error) {
  TimelineEvent ev;
  if (kind == "rollout_wave") ev.kind = TimelineEventKind::rollout_wave;
  else if (kind == "cpe_fix") ev.kind = TimelineEventKind::cpe_fix;
  else if (kind == "outage") ev.kind = TimelineEventKind::outage;
  else if (kind == "nat64_migration") ev.kind = TimelineEventKind::nat64_migration;
  else if (kind == "seasonal") ev.kind = TimelineEventKind::seasonal;
  else if (kind == "prefix_renumber") ev.kind = TimelineEventKind::prefix_renumber;
  else if (kind == "service_outage") ev.kind = TimelineEventKind::service_outage;
  else if (kind == "cgn_exhaustion") ev.kind = TimelineEventKind::cgn_exhaustion;
  else if (kind == "device_turnover") ev.kind = TimelineEventKind::device_turnover;
  else if (kind == "lambda_ramp") ev.kind = TimelineEventKind::lambda_ramp;
  else if (kind == "flash_crowd") ev.kind = TimelineEventKind::flash_crowd;
  else
    return fail(error, "unknown timeline event kind " + quoted(kind));

  const bool is_seasonal = ev.kind == TimelineEventKind::seasonal;
  const bool takes_len = ev.kind == TimelineEventKind::outage ||
                         ev.kind == TimelineEventKind::service_outage;
  const bool is_service = ev.kind == TimelineEventKind::service_outage;
  const bool is_cgn = ev.kind == TimelineEventKind::cgn_exhaustion;
  const bool is_turnover = ev.kind == TimelineEventKind::device_turnover;
  const bool is_flash = ev.kind == TimelineEventKind::flash_crowd;
  const bool takes_mult = is_flash || ev.kind == TimelineEventKind::lambda_ramp;
  bool have_end = false;

  auto bad_value = [&](std::string_view key, std::string_view val) {
    return fail(error, "invalid value " + quoted(val) + " for event key " +
                           quoted(key));
  };
  auto wrong_kind = [&](std::string_view key) {
    return fail(error, "event key " + quoted(key) + " not valid for kind " +
                           quoted(kind));
  };
  auto duplicate = [&](std::string_view key) {
    return fail(error, "duplicate event key " + quoted(key));
  };

  // Whitespace-separated k=v tokens; every key at most once.
  bool seen_day = false, seen_start = false, seen_end = false,
       seen_frac = false, seen_amp = false, seen_period = false,
       seen_len = false, seen_svc = false, seen_ports = false,
       seen_rate = false, seen_mult = false, seen_hour = false,
       seen_hours = false;
  size_t pos = 0;
  while (pos < spec.size()) {
    while (pos < spec.size() &&
           (spec[pos] == ' ' || spec[pos] == '\t'))
      ++pos;
    if (pos >= spec.size()) break;
    size_t end = pos;
    while (end < spec.size() && spec[end] != ' ' && spec[end] != '\t') ++end;
    std::string_view tok = spec.substr(pos, end - pos);
    pos = end;

    size_t eq = tok.find('=');
    if (eq == std::string_view::npos)
      return fail(error, "malformed token " + quoted(tok) +
                             " (expected key=value)");
    std::string_view key = tok.substr(0, eq);
    std::string_view val = tok.substr(eq + 1);

    if (key == "day") {
      if (seen_day) return duplicate(key);
      if (seen_start || seen_end)
        return fail(error, "'day' conflicts with 'start'/'end'");
      seen_day = true;
      int d = 0;
      if (!cfgparse::parse_int(val, d) || d < 0) return bad_value(key, val);
      ev.start_day = ev.end_day = d;
      have_end = true;
    } else if (key == "start") {
      if (seen_start) return duplicate(key);
      if (seen_day) return fail(error, "'start' conflicts with 'day'");
      seen_start = true;
      if (!cfgparse::parse_int(val, ev.start_day) || ev.start_day < 0)
        return bad_value(key, val);
    } else if (key == "end") {
      if (seen_end) return duplicate(key);
      if (seen_day) return fail(error, "'end' conflicts with 'day'");
      seen_end = true;
      if (!cfgparse::parse_int(val, ev.end_day) || ev.end_day < 0)
        return bad_value(key, val);
      have_end = true;
    } else if (key == "frac") {
      if (seen_frac) return duplicate(key);
      seen_frac = true;
      if (!cfgparse::parse_double(val, ev.fraction) || ev.fraction < 0.0 ||
          ev.fraction > 1.0)
        return bad_value(key, val);
    } else if (key == "amp") {
      if (!is_seasonal) return wrong_kind(key);
      if (seen_amp) return duplicate(key);
      seen_amp = true;
      if (!cfgparse::parse_double(val, ev.amplitude) || ev.amplitude < 0.0 ||
          ev.amplitude > 1.0)
        return bad_value(key, val);
    } else if (key == "period") {
      if (!is_seasonal) return wrong_kind(key);
      if (seen_period) return duplicate(key);
      seen_period = true;
      if (!cfgparse::parse_int(val, ev.period_days) || ev.period_days < 1)
        return bad_value(key, val);
    } else if (key == "len") {
      if (!takes_len) return wrong_kind(key);
      if (seen_len) return duplicate(key);
      seen_len = true;
      if (!cfgparse::parse_int(val, ev.duration_days) || ev.duration_days < 1)
        return bad_value(key, val);
    } else if (key == "svc") {
      if (!is_service) return wrong_kind(key);
      if (seen_svc) return duplicate(key);
      seen_svc = true;
      // The day-state service mask is 64 bits wide; indices must fit it.
      if (!cfgparse::parse_int(val, ev.service) || ev.service < 0 ||
          ev.service > 63)
        return bad_value(key, val);
    } else if (key == "ports") {
      if (!is_cgn) return wrong_kind(key);
      if (seen_ports) return duplicate(key);
      seen_ports = true;
      if (!cfgparse::parse_int(val, ev.port_budget) || ev.port_budget < 0)
        return bad_value(key, val);
    } else if (key == "rate") {
      if (!is_turnover) return wrong_kind(key);
      if (seen_rate) return duplicate(key);
      seen_rate = true;
      if (!cfgparse::parse_double(val, ev.turnover_rate) ||
          ev.turnover_rate < 0.0 || ev.turnover_rate > 1.0)
        return bad_value(key, val);
    } else if (key == "mult") {
      if (!takes_mult) return wrong_kind(key);
      if (seen_mult) return duplicate(key);
      seen_mult = true;
      // (0, 16]: the day-state composition clamps stacked multipliers to
      // the same ceiling, so a single event never exceeds what a stack can.
      if (!cfgparse::parse_double(val, ev.mult) || ev.mult <= 0.0 ||
          ev.mult > 16.0)
        return bad_value(key, val);
    } else if (key == "hour") {
      if (!is_flash) return wrong_kind(key);
      if (seen_hour) return duplicate(key);
      seen_hour = true;
      if (!cfgparse::parse_int(val, ev.hour) || ev.hour < 0 || ev.hour > 23)
        return bad_value(key, val);
    } else if (key == "hours") {
      if (!is_flash) return wrong_kind(key);
      if (seen_hours) return duplicate(key);
      seen_hours = true;
      if (!cfgparse::parse_int(val, ev.hour_span) || ev.hour_span < 1 ||
          ev.hour_span > 24)
        return bad_value(key, val);
    } else {
      return fail(error, "unknown event key " + quoted(key));
    }
  }

  if (is_service && !seen_svc)
    return fail(error, "'svc' is required for service_outage");
  if (is_cgn && !seen_ports)
    return fail(error, "'ports' is required for cgn_exhaustion");
  if (takes_mult && !seen_mult)
    return fail(error, std::string("'mult' is required for ") +
                           std::string(kind));
  if (is_flash && !seen_hour)
    return fail(error, "'hour' is required for flash_crowd");

  // A window event with no end runs to the horizon.
  if (!have_end) ev.end_day = std::numeric_limits<int>::max();
  if (ev.end_day < ev.start_day)
    return fail(error, "event window end " + std::to_string(ev.end_day) +
                           " precedes start " + std::to_string(ev.start_day));
  return ev;
}

namespace {

/// Per-(event, residence) decision stream: whether the residence is
/// affected and on which day inside the window its change lands. The
/// derivation folds (seed, event ordinal, index) through splitmix64 — the
/// same pattern sample_stage uses per residence — so the result
/// is independent of evaluation order and population size.
struct EventDraw {
  bool affected = false;
  int day = 0;  ///< flip/fix/migration/outage-start day inside the window
};

EventDraw draw_event(const TimelineEvent& ev, int window_end,
                     std::uint64_t seed, size_t ordinal, int index) {
  std::uint64_t state =
      seed ^ (0xD1B54A32D192ED03ull * (static_cast<std::uint64_t>(ordinal) + 1))
           ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(index) + 1));
  auto u01 = [&state] {
    return static_cast<double>(stats::splitmix64(state) >> 11) * 0x1.0p-53;
  };
  EventDraw d;
  d.affected = u01() < ev.fraction;
  // The day draw is consumed unconditionally so changing `frac` in a spec
  // never shifts another residence's schedule.
  double u = u01();
  long long width = static_cast<long long>(window_end) - ev.start_day + 1;
  d.day = ev.start_day + static_cast<int>(u * static_cast<double>(width));
  if (d.day > window_end) d.day = window_end;
  return d;
}

constexpr double kTau = 6.28318530717958647692;

/// One residence's draws for every event, hoisted out of the day loop:
/// draw_event depends only on (seed, ordinal, index), never on the day.
std::vector<EventDraw> draw_all_events(const Timeline& tl, std::uint64_t seed,
                                       int index, int days) {
  std::vector<EventDraw> draws;
  draws.reserve(tl.events.size());
  for (size_t e = 0; e < tl.events.size(); ++e) {
    const TimelineEvent& ev = tl.events[e];
    // Clamp the window to the horizon (events whose whole window lies past
    // the horizon keep a one-day window there and simply never fire).
    const int window_end =
        std::max(ev.start_day, std::min(ev.end_day, days - 1));
    draws.push_back(draw_event(ev, window_end, seed, e, index));
  }
  return draws;
}

TimelineDayState day_state_from_draws(const Timeline& tl,
                                      std::span<const EventDraw> draws,
                                      int day, int days,
                                      const ResidenceTraits& base) {
  TimelineDayState s;
  s.isp_v6 = base.dual_stack_isp;
  s.cpe_broken = base.dual_stack_isp && base.broken_v6;

  for (size_t e = 0; e < tl.events.size(); ++e) {
    const TimelineEvent& ev = tl.events[e];
    const EventDraw& d = draws[e];
    if (!d.affected) continue;
    switch (ev.kind) {
      case TimelineEventKind::rollout_wave:
        if (!base.dual_stack_isp && day >= d.day) s.isp_v6 = true;
        break;
      case TimelineEventKind::cpe_fix:
        if (day >= d.day) s.cpe_broken = false;
        break;
      case TimelineEventKind::outage:
        if (ev.duration_days > 0) {
          // 64-bit bound: start + len near INT_MAX is parser-legal.
          if (day >= d.day &&
              day < static_cast<long long>(d.day) + ev.duration_days)
            s.outage = true;
        } else if (day >= ev.start_day &&
                   day <= std::max(ev.start_day,
                                   std::min(ev.end_day, days - 1))) {
          s.outage = true;
        }
        break;
      case TimelineEventKind::nat64_migration:
        if (day >= d.day) {
          s.nat64 = true;
          s.isp_v6 = true;  // the v6-only access network delegates v6
        }
        break;
      case TimelineEventKind::seasonal:
        if (day >= ev.start_day && day <= ev.end_day) {
          int period = ev.period_days > 0 ? ev.period_days : 364;
          s.activity_mult *=
              1.0 + ev.amplitude *
                        std::sin(kTau * static_cast<double>(day - ev.start_day) /
                                 static_cast<double>(period));
        }
        break;
      case TimelineEventKind::prefix_renumber:
        // Each rotation is permanent; overlapping renumber events stack one
        // epoch each, in event order, so the epoch is reproducible for any
        // subset of events landing by `day`.
        if (day >= d.day) ++s.prefix_epoch;
        break;
      case TimelineEventKind::service_outage:
        if (ev.duration_days > 0) {
          if (day >= d.day &&
              day < static_cast<long long>(d.day) + ev.duration_days)
            s.service_down_mask |= 1ull << ev.service;
        } else if (day >= ev.start_day &&
                   day <= std::max(ev.start_day,
                                   std::min(ev.end_day, days - 1))) {
          s.service_down_mask |= 1ull << ev.service;
        }
        break;
      case TimelineEventKind::cgn_exhaustion:
        if (day >= ev.start_day &&
            day <= std::max(ev.start_day, std::min(ev.end_day, days - 1))) {
          s.cgn_port_budget = s.cgn_port_budget < 0
                                  ? ev.port_budget
                                  : std::min(s.cgn_port_budget, ev.port_budget);
        }
        break;
      case TimelineEventKind::lambda_ramp: {
        if (day < ev.start_day) break;
        // Linear ramp across the clamped window toward `mult`, holding at
        // `mult` afterwards (same shape as device_turnover). Multiple
        // ramps compose multiplicatively; see the clamp after the loop.
        const int wend =
            std::max(ev.start_day, std::min(ev.end_day, days - 1));
        const double span = static_cast<double>(wend - ev.start_day + 1);
        double progress =
            static_cast<double>(std::min(day, wend) - ev.start_day + 1) / span;
        s.lambda_mult *= 1.0 + (ev.mult - 1.0) * progress;
        break;
      }
      case TimelineEventKind::flash_crowd:
        if (day >= ev.start_day &&
            day <= std::max(ev.start_day, std::min(ev.end_day, days - 1))) {
          // The burst slots come from the event, not a per-home draw:
          // every affected home spikes in the same hours. Slots past hour
          // 23 are dropped (no wrap into the next day).
          const int first = ev.hour;
          const int last = std::min(first + ev.hour_span, 24);
          for (int h = first; h < last; ++h)
            s.flash_hour_mask |= 1u << h;
          s.flash_mult *= ev.mult;
        }
        break;
      case TimelineEventKind::device_turnover: {
        if (day < ev.start_day) break;
        // Linear ramp across the clamped window, holding at the window's
        // terminal value afterwards (replaced devices stay replaced).
        const int wend =
            std::max(ev.start_day, std::min(ev.end_day, days - 1));
        const double span = static_cast<double>(wend - ev.start_day + 1);
        double progress =
            static_cast<double>(std::min(day, wend) - ev.start_day + 1) / span;
        const double uplift = ev.turnover_rate * progress;
        // Concurrent turnover events compose as independent repairs of the
        // remaining broken share, so the composite stays inside [0, 1].
        s.v6_ok_uplift = 1.0 - (1.0 - s.v6_ok_uplift) * (1.0 - uplift);
        break;
      }
    }
  }
  // Stacked ramps/crowds could grow without bound; clamp the composites to
  // the single-event parse ceiling. std::clamp returns the value itself
  // when in range, so un-modulated days keep their exact 1.0 (the batch
  // bit-identity) and single events are never altered.
  s.lambda_mult = std::clamp(s.lambda_mult, 1.0 / 16.0, 16.0);
  s.flash_mult = std::clamp(s.flash_mult, 1.0 / 16.0, 16.0);
  return s;
}

/// TimelineDayState -> the traffic layer's DayPlan for one residence. The
/// single conversion both plan modes share, so lazy and materialized paths
/// cannot drift apart. `static_internal_v6_frac` is the residence's sampled
/// internal_v6_frac and `static_device_v6_ok_frac` its sampled
/// device_v6_ok_frac (the values negative plan fields fall back to).
traffic::DayPlan day_plan_from_state(const TimelineDayState& s,
                                     const ResidenceTraits& base,
                                     double static_internal_v6_frac,
                                     double static_device_v6_ok_frac) {
  traffic::DayPlan p;
  p.activity_mult = s.activity_mult;
  p.outage = s.outage;
  p.nat64 = s.nat64;
  p.prefix_epoch = s.prefix_epoch;
  p.service_down_mask = s.service_down_mask;
  p.cgn_port_budget = s.cgn_port_budget;
  p.lambda_mult = s.lambda_mult;
  p.flash_hour_mask = s.flash_hour_mask;
  p.flash_mult = s.flash_mult;
  // Effective device/internal IPv6 for the day. Negative values mean
  // "keep the sampled static config"; only genuine state changes are
  // materialized so a no-op event leaves the plan at defaults.
  if (s.nat64 && !base.dual_stack_isp) {
    // A formerly v4-only home behind the new v6-only access network:
    // devices overwhelmingly speak v6 once a prefix finally exists.
    p.device_v6_ok_frac = 0.95;
    p.internal_v6_frac = std::max(static_internal_v6_frac, 0.75);
  } else if (base.dual_stack_isp) {
    if (base.broken_v6 && !s.cpe_broken)
      p.device_v6_ok_frac = 1.0;  // firmware fix landed
  } else if (s.isp_v6) {
    // Rollout wave flipped a v4-only home on: working device IPv6 and
    // a LAN that starts using it.
    p.device_v6_ok_frac = 1.0;
    p.internal_v6_frac = std::max(static_internal_v6_frac, 0.75);
  }
  // Device turnover closes part of the remaining broken-device gap. Only
  // homes with delegated IPv6 feel it — a fresh device without a prefix is
  // still v4-only on the WAN.
  if (s.v6_ok_uplift > 0.0 && s.isp_v6) {
    const double eff = p.device_v6_ok_frac >= 0.0 ? p.device_v6_ok_frac
                                                  : static_device_v6_ok_frac;
    p.device_v6_ok_frac = eff + (1.0 - eff) * s.v6_ok_uplift;
  }
  return p;
}

}  // namespace

TimelineDayState timeline_day_state(const Timeline& tl, std::uint64_t seed,
                                    int index, int day, int days,
                                    const ResidenceTraits& base) {
  return day_state_from_draws(tl, draw_all_events(tl, seed, index, days), day,
                              days, base);
}

void apply_timeline(SampledFleet& fleet, const Timeline& tl,
                    std::uint64_t seed, int days, TimelinePlanMode mode) {
  if (tl.empty()) {
    for (auto& cfg : fleet.configs) {
      cfg.day_plan.clear();
      cfg.day_plan_fn = nullptr;
    }
    return;
  }
  // One shared timeline copy for every lazy provider: the captured state
  // per residence is a shared_ptr, the per-event draws, the traits, and two
  // scalars — nothing proportional to the horizon.
  const auto shared_tl = mode == TimelinePlanMode::lazy
                             ? std::make_shared<const Timeline>(tl)
                             : nullptr;
  for (size_t i = 0; i < fleet.configs.size(); ++i) {
    traffic::ResidenceConfig& cfg = fleet.configs[i];
    const ResidenceTraits& base = fleet.traits[i];
    // The per-(event, residence) draws are day-invariant: derive them once
    // per residence, not once per (residence, day).
    auto draws = draw_all_events(tl, seed, static_cast<int>(i), days);

    if (mode == TimelinePlanMode::lazy) {
      cfg.day_plan.clear();
      cfg.day_plan_fn = [shared_tl, draws = std::move(draws), base, days,
                         internal_v6 = cfg.internal_v6_frac,
                         device_v6 = cfg.device_v6_ok_frac](int day) {
        // Outside the horizon the materialized vector falls back to the
        // static configuration (the day_plan.size() bounds check); the
        // lazy provider must match or the two modes diverge whenever a
        // config's days exceeds the horizon given to apply_timeline.
        if (day < 0 || day >= days) return traffic::kStaticDayPlan;
        return day_plan_from_state(
            day_state_from_draws(*shared_tl, draws, day, days, base), base,
            internal_v6, device_v6);
      };
      continue;
    }

    cfg.day_plan_fn = nullptr;
    cfg.day_plan.assign(static_cast<size_t>(std::max(days, 0)),
                        traffic::DayPlan{});
    for (int day = 0; day < days; ++day)
      cfg.day_plan[static_cast<size_t>(day)] = day_plan_from_state(
          day_state_from_draws(tl, draws, day, days, base), base,
          cfg.internal_v6_frac, cfg.device_v6_ok_frac);
  }
}

}  // namespace nbv6::engine
