#include "engine/fleet.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace nbv6::engine {

std::optional<FleetConfig> FleetConfig::parse(std::string_view text,
                                              std::string* error) {
  using cfgparse::parse_double;
  using cfgparse::parse_int;
  using cfgparse::parse_u64;
  using cfgparse::trim;

  auto fail = [error](std::string message) -> std::nullopt_t {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  auto at_line = [](int line_no, std::string_view rest) {
    return "line " + std::to_string(line_no) + ": " + std::string(rest);
  };

  FleetConfig cfg;
  // Scalar keys may appear at most once: a config that sets the same knob
  // twice is almost certainly a copy-paste error, and silently letting the
  // last line win would make two scenario files that look different run
  // identically (or vice versa).
  std::set<std::string, std::less<>> seen;
  // Event source lines, ordinal-aligned with cfg.timeline.events, so the
  // post-loop horizon check can name the offending line.
  std::vector<int> event_lines;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    if (auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      return fail(at_line(line_no, "missing '=' in '" + std::string(line) +
                                       "'"));
    std::string_view key = trim(line.substr(0, eq));
    std::string_view val = trim(line.substr(eq + 1));

    // Timeline events: repeatable by design (each line appends one event),
    // so they bypass the duplicate-key check.
    if (key.starts_with("timeline.")) {
      std::string ev_error;
      auto ev = Timeline::parse_event(key.substr(9), val, &ev_error);
      if (!ev)
        return fail(at_line(line_no, std::string(key) + ": " + ev_error));
      cfg.timeline->events.push_back(*ev);
      event_lines.push_back(line_no);
      continue;
    }

    if (!seen.insert(std::string(key)).second)
      return fail(at_line(line_no, "duplicate key '" + std::string(key) +
                                       "'"));

    // Fractions are per-residence probabilities: outside [0, 1] they are
    // not "clamped intent", they are bugs. parse_double already rejects
    // NaN and infinities for every double-valued key.
    auto frac = [&val](double& out) {
      return parse_double(val, out) && out >= 0.0 && out <= 1.0;
    };
    bool ok;
    if (key == "residences") ok = parse_int(val, cfg.residences.mut());
    else if (key == "days") ok = parse_int(val, cfg.days.mut());
    else if (key == "threads") ok = parse_int(val, cfg.threads.mut());
    else if (key == "seed") ok = parse_u64(val, cfg.seed.mut());
    else if (key == "dual_stack_isp_frac") ok = frac(cfg.dual_stack_isp_frac.mut());
    else if (key == "broken_v6_frac") ok = frac(cfg.broken_v6_frac.mut());
    else if (key == "heavy_streamer_frac") ok = frac(cfg.heavy_streamer_frac.mut());
    else if (key == "background_only_frac") ok = frac(cfg.background_only_frac.mut());
    else if (key == "opt_out_frac") ok = frac(cfg.opt_out_frac.mut());
    else if (key == "absence_prob") ok = frac(cfg.absence_prob.mut());
    else if (key == "activity_scale_min")
      ok = parse_double(val, cfg.activity_scale_min.mut()) &&
           cfg.activity_scale_min >= 0.0;
    else if (key == "activity_scale_max")
      ok = parse_double(val, cfg.activity_scale_max.mut()) &&
           cfg.activity_scale_max >= 0.0;
    else if (key == "arrival.mode")
      ok = traffic::parse_arrival_mode(val, cfg.arrival->mode);
    else if (key == "arrival.ticks_per_hour")
      ok = parse_int(val, cfg.arrival->ticks_per_hour) &&
           cfg.arrival->ticks_per_hour >= 1 &&
           cfg.arrival->ticks_per_hour <= 3600;
    else  // unknown key: fail loudly, not silently
      return fail(at_line(line_no, "unknown key '" + std::string(key) + "'"));
    if (!ok)
      return fail(at_line(line_no, "invalid value '" + std::string(val) +
                                       "' for key '" + std::string(key) +
                                       "'"));
  }
  if (cfg.residences < 1)
    return fail("residences must be >= 1 (got " +
                std::to_string(cfg.residences) + ")");
  if (cfg.days < 1)
    return fail("days must be >= 1 (got " + std::to_string(cfg.days) + ")");
  if (cfg.activity_scale_min > cfg.activity_scale_max)
    return fail("activity_scale_min exceeds activity_scale_max");
  // Timeline events are validated against the horizon only now: `days` may
  // appear anywhere in the file, including after the event lines. An event
  // whose window starts past the last simulated day can never fire — that
  // is a scenario bug (typo'd day, horizon shrunk without moving events),
  // not intent, so it fails the parse. Open-ended windows (no `end=`) and
  // windows whose tail runs past the horizon stay legal: evaluation clamps
  // them to [start_day, days - 1] deterministically.
  for (size_t e = 0; e < cfg.timeline->events.size(); ++e) {
    const auto& ev = cfg.timeline->events[e];
    if (ev.start_day >= cfg.days)
      return fail(at_line(event_lines[e],
                          std::string("timeline.") + to_string(ev.kind) +
                              ": window starts on day " +
                              std::to_string(ev.start_day) +
                              ", at or past the " + std::to_string(cfg.days) +
                              "-day horizon"));
  }
  return cfg;
}

std::optional<FleetConfig> FleetConfig::load(const std::string& path,
                                             std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), error);
}

}  // namespace nbv6::engine
