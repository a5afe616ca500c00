#include "testutil.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>

#include "engine/run_spec.h"
#include "engine/scenario_fuzz.h"
#include "engine/thread_pool.h"

namespace nbv6::testutil {

namespace {

// FNV-1a over explicit integer state: stable across platforms/compilers
// (unlike hashing doubles' text or std::hash).
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out.append(buf, static_cast<size_t>(std::min<int>(n, sizeof buf - 1)));
}

// %.17g: shortest text that still round-trips any double exactly, so two
// serializations are equal iff every double is bit-identical.
void append_d(std::string& out, double v) {
  append(out, "%.17g", v);
}

void append_split(std::string& out, const char* label,
                  const flowmon::FamilySplit& s) {
  append(out,
         "%s v4_bytes=%" PRIu64 " v6_bytes=%" PRIu64 " v4_flows=%" PRIu64
         " v6_flows=%" PRIu64 "\n",
         label, s.v4.bytes, s.v6.bytes, s.v4.flows, s.v6.flows);
}

void append_panel(std::string& out, const char* label,
                  const core::GroupComparison& cmp) {
  append(out, "panel %s %s vs %s rows=%zu\n", label,
         core::to_string(cmp.group_a), core::to_string(cmp.group_b),
         cmp.rows.size());
  for (const auto& r : cmp.rows) {
    append(out, "  row %s paired=%d n_a=%zu n_b=%zu median_a=", r.metric.c_str(),
           r.paired ? 1 : 0, r.n_a, r.n_b);
    append_d(out, r.median_a);
    out += " median_b=";
    append_d(out, r.median_b);
    out += " z=";
    append_d(out, r.z);
    out += " effect_r=";
    append_d(out, r.effect_r);
    out += " p_raw=";
    append_d(out, r.p_raw);
    out += " p_holm=";
    append_d(out, r.p_holm);
    append(out, " significant=%d\n", r.significant ? 1 : 0);
  }
}

}  // namespace

std::string source_dir() { return NBV6_SOURCE_DIR; }

std::string scenarios_dir() { return source_dir() + "/examples/scenarios"; }

std::string golden_dir() { return source_dir() + "/tests/golden"; }

std::vector<std::string> scenario_files() {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(scenarios_dir(), ec)) {
    if (entry.path().extension() == ".cfg")
      out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string scenario_stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

engine::SampledFleet plan_scenario(const engine::FleetConfig& cfg,
                                   const traffic::ServiceCatalog& catalog,
                                   engine::TimelinePlanMode mode) {
  engine::SampledFleet fleet = engine::sample_stage(cfg, catalog);
  engine::apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days, mode);
  return fleet;
}

engine::FleetResult simulate_scenario(const engine::FleetConfig& cfg,
                                      const traffic::ServiceCatalog& catalog,
                                      engine::ThreadPool* pool,
                                      engine::TimelinePlanMode mode) {
  return engine::simulate_fleet(catalog, plan_scenario(cfg, catalog, mode),
                                pool);
}

ScenarioRun run_scenario(const engine::FleetConfig& cfg,
                         const traffic::ServiceCatalog& catalog, int lanes,
                         engine::TimelinePlanMode mode) {
  // The calling thread is one lane; the pool supplies the rest.
  const int n = engine::resolve_lanes(lanes);
  std::unique_ptr<engine::ThreadPool> pool;
  if (n > 1) pool = std::make_unique<engine::ThreadPool>(n - 1);

  ScenarioRun run;
  run.cfg = cfg;
  run.result = simulate_scenario(cfg, catalog, pool.get(), mode);
  run.report = core::fleet_stats_report(run.result, pool.get());
  // Pre/post panel over the horizon's halves: with timeline events this is
  // the before/after comparison; without, a self-check near the null.
  core::DayWindow pre{0, cfg.days / 2 - 1};
  core::DayWindow post{cfg.days / 2, cfg.days - 1};
  auto metrics = core::default_fleet_metrics();
  run.window_panel =
      core::compare_windows(run.result, metrics, pre, post,
                            core::FleetGroup::all, pool.get());
  return run;
}

std::string canonical_serialize(const ScenarioRun& run) {
  using flowmon::Scope;
  std::string out;
  out.reserve(1 << 16);

  const auto& cfg = run.cfg;
  append(out, "scenario residences=%d days=%d seed=%" PRIu64 " events=%zu",
         cfg.residences.get(), cfg.days.get(), cfg.seed.get(),
         cfg.timeline->events.size());
  // Open-loop runs name their arrival process in the header; batch runs
  // keep the original line so every pre-existing golden stays byte-exact.
  if (cfg.arrival->mode != traffic::ArrivalMode::batch) {
    append(out, " arrival=%s ticks_per_hour=%d",
           traffic::to_string(cfg.arrival->mode), cfg.arrival->ticks_per_hour);
  }
  out += '\n';

  const auto& totals = run.result.totals;
  append(out,
         "totals sessions=%" PRIu64 " flows=%" PRIu64 " invisible=%" PRIu64
         " he_failures=%" PRIu64 " outage_suppressed=%" PRIu64
         " service_outage=%" PRIu64 " cgn_failures=%" PRIu64 "\n",
         totals.sessions, totals.flows, totals.skipped_invisible,
         totals.he_failures, totals.outage_suppressed,
         totals.service_outage_failed, totals.cgn_failures);

  // ---- day-resolved session stats -----------------------------------
  // Fleet-level per-day rows in full (small: one per simulated day), the
  // per-residence series folded to an FNV checksum like the other
  // high-volume aggregates.
  for (size_t d = 0; d < totals.daily.size(); ++d) {
    const auto& ds = totals.daily[d];
    append(out,
           "day_stats day=%zu sessions=%" PRIu64 " he_failures=%" PRIu64
           " outage_suppressed=%" PRIu64 " service_outage=%" PRIu64
           " cgn_failures=%" PRIu64 "\n",
           d, ds.sessions, ds.he_failures, ds.outage_suppressed,
           ds.service_outage_failed, ds.cgn_failures);
  }
  {
    Fnv fnv;
    size_t entries = 0;
    for (const auto& r : run.result.residences) {
      for (size_t d = 0; d < r.stats.daily.size(); ++d) {
        const auto& ds = r.stats.daily[d];
        fnv.add(static_cast<std::uint64_t>(d));
        fnv.add(ds.sessions);
        fnv.add(ds.he_failures);
        fnv.add(ds.outage_suppressed);
        fnv.add(ds.service_outage_failed);
        fnv.add(ds.cgn_failures);
        ++entries;
      }
    }
    append(out, "residence_day_stats entries=%zu fnv=%016" PRIx64 "\n",
           entries, fnv.h);
  }

  // ---- fleet-level monitor state ------------------------------------
  const auto& fleet = run.result.fleet;
  append_split(out, "fleet external", fleet.totals(Scope::external));
  append_split(out, "fleet internal", fleet.totals(Scope::internal));
  for (Scope s : {Scope::external, Scope::internal}) {
    for (const auto& [day, split] : fleet.daily(s)) {
      append(out,
             "daily %s day=%d v4_bytes=%" PRIu64 " v6_bytes=%" PRIu64
             " v4_flows=%" PRIu64 " v6_flows=%" PRIu64 "\n",
             s == Scope::external ? "external" : "internal", day,
             split.v4.bytes, split.v6.bytes, split.v4.flows, split.v6.flows);
    }
  }
  {
    Fnv fnv;
    for (const auto& [hour, split] : fleet.hourly_external()) {
      fnv.add(static_cast<std::uint64_t>(hour));
      fnv.add(split.v4.bytes);
      fnv.add(split.v6.bytes);
      fnv.add(split.v4.flows);
      fnv.add(split.v6.flows);
    }
    append(out, "hourly_external count=%zu fnv=%016" PRIx64 "\n",
           fleet.hourly_external().size(), fnv.h);
  }
  {
    Fnv fnv;
    auto dests = fleet.destination_tallies();  // map-ordered: deterministic
    for (const auto& d : dests) {
      if (d.addr.is_v4()) {
        fnv.add(d.addr.v4().value());
      } else {
        fnv.add(d.addr.v6().high64());
        fnv.add(d.addr.v6().low64());
      }
      fnv.add(d.tally.bytes);
      fnv.add(d.tally.flows);
    }
    append(out, "destinations count=%zu fnv=%016" PRIx64 "\n", dests.size(),
           fnv.h);
  }

  // ---- per-residence shards -----------------------------------------
  for (size_t i = 0; i < run.result.residences.size(); ++i) {
    const auto& r = run.result.residences[i];
    const auto& ext = r.monitor.totals(Scope::external);
    const auto& internal = r.monitor.totals(Scope::internal);
    const auto& t = run.result.traits[i];
    append(out,
           "residence %zu name=%s sessions=%" PRIu64 " flows=%" PRIu64
           " he=%" PRIu64 " outage=%" PRIu64 " svc_outage=%" PRIu64
           " cgn=%" PRIu64 " ext_v4b=%" PRIu64
           " ext_v6b=%" PRIu64 " ext_v4f=%" PRIu64 " ext_v6f=%" PRIu64
           " int_b=%" PRIu64
           " traits=ds:%d,broken:%d,streamer:%d,vacant:%d,opt:%d,abs:%d\n",
           i, r.config.name.c_str(), r.stats.sessions, r.stats.flows,
           r.stats.he_failures, r.stats.outage_suppressed,
           r.stats.service_outage_failed, r.stats.cgn_failures, ext.v4.bytes,
           ext.v6.bytes, ext.v4.flows, ext.v6.flows, internal.total_bytes(),
           t.dual_stack_isp ? 1 : 0, t.broken_v6 ? 1 : 0,
           t.heavy_streamer ? 1 : 0, t.vacant ? 1 : 0, t.opt_out ? 1 : 0,
           t.scripted_absence ? 1 : 0);
  }

  // ---- metric matrix -------------------------------------------------
  for (size_t m = 0; m < run.report.matrix.metrics.size(); ++m) {
    append(out, "matrix %s", core::to_string(run.report.matrix.metrics[m]));
    for (double v : run.report.matrix.values[m]) {
      out += ' ';
      append_d(out, v);
    }
    out += '\n';
  }

  // ---- panels --------------------------------------------------------
  for (const auto& cmp : run.report.comparisons)
    append_panel(out, "unpaired", cmp);
  append_panel(out, "paired", run.report.paired);
  append_panel(out, "window_pre_post", run.window_panel);

  // ---- population distributions -------------------------------------
  for (const auto& d : run.report.distributions) {
    append(out, "distribution %s defined=%zu count=%" PRIu64,
           core::to_string(d.metric), d.defined, d.cdf.count());
    const auto& s = d.summary;
    const double vals[] = {s.mean,          s.stddev,        s.min,
                           s.p25,           s.median,        s.p75,
                           s.max,           d.cdf.quantile(0.25),
                           d.cdf.quantile(0.5), d.cdf.quantile(0.75)};
    const char* names[] = {"mean", "sd",  "min",  "p25",  "median",
                           "p75",  "max", "cq25", "cq50", "cq75"};
    for (size_t k = 0; k < std::size(vals); ++k) {
      append(out, " %s=", names[k]);
      append_d(out, vals[k]);
    }
    out += '\n';
  }
  return out;
}

std::optional<std::string> fuzz_check_scenario(
    const std::string& text, const traffic::ServiceCatalog& catalog) {
  if (auto err = engine::check_parse_round_trip(text))
    return "round-trip: " + *err;

  std::string parse_error;
  auto cfg = engine::FleetConfig::parse(text, &parse_error);
  if (!cfg) return "parse: " + parse_error;  // unreachable after round-trip

  if (auto err = engine::check_plan_parity(*cfg, catalog))
    return "plan-parity: " + *err;

  // Lane-count invariance and lazy/materialized simulation parity, both
  // stated as byte equality of the canonical serialization.
  const ScenarioRun base = run_scenario(*cfg, catalog, 1);
  const std::string base_text = canonical_serialize(base);
  for (int lanes : {4, 8}) {
    const std::string other =
        canonical_serialize(run_scenario(*cfg, catalog, lanes));
    if (other != base_text)
      return "lane-parity: 1-lane vs " + std::to_string(lanes) +
             "-lane serializations differ\n" + first_diff(base_text, other);
  }
  {
    const std::string mat = canonical_serialize(run_scenario(
        *cfg, catalog, 1, engine::TimelinePlanMode::materialized));
    if (mat != base_text)
      return "mode-parity: lazy vs materialized serializations differ\n" +
             first_diff(base_text, mat);
  }

  // Windowed metric finiteness. Count/sum metrics must be real numbers on
  // any window that intersects the horizon; rate/fraction metrics may be
  // NaN (undefined: nothing happened) but never infinite.
  const core::FleetMetric kAllMetrics[] = {
      core::FleetMetric::v6_byte_fraction,
      core::FleetMetric::v6_flow_fraction,
      core::FleetMetric::daily_v6_byte_fraction,
      core::FleetMetric::external_gb,
      core::FleetMetric::external_flows_k,
      core::FleetMetric::internal_gb,
      core::FleetMetric::he_failure_rate,
      core::FleetMetric::sessions_k,
      core::FleetMetric::outage_suppressed_k,
      core::FleetMetric::service_outage_k,
      core::FleetMetric::cgn_failure_rate,
  };
  auto is_sum_metric = [](core::FleetMetric m) {
    switch (m) {
      case core::FleetMetric::external_gb:
      case core::FleetMetric::external_flows_k:
      case core::FleetMetric::internal_gb:
      case core::FleetMetric::sessions_k:
      case core::FleetMetric::outage_suppressed_k:
      case core::FleetMetric::service_outage_k:
        return true;
      default:
        return false;
    }
  };

  const int days = cfg->days;
  std::vector<core::DayWindow> windows;
  windows.push_back({0, days - 1});
  if (days >= 2) {
    windows.push_back({0, days / 2 - 1});
    windows.push_back({days / 2, days - 1});
  }
  for (int d : {0, days / 2, days - 1}) windows.push_back({d, d});
  for (const auto& ev : cfg->timeline->events) {
    const int first = std::clamp(ev.start_day, 0, days - 1);
    const int last = std::clamp(ev.end_day, first, days - 1);
    windows.push_back({first, last});
  }

  for (const auto& w : windows) {
    const auto matrix =
        core::extract_metrics(base.result, kAllMetrics, w, nullptr);
    for (size_t m = 0; m < matrix.metrics.size(); ++m) {
      for (size_t i = 0; i < matrix.values[m].size(); ++i) {
        const double v = matrix.values[m][i];
        if (std::isinf(v) ||
            (std::isnan(v) && is_sum_metric(matrix.metrics[m])))
          return std::string("window-finiteness: metric ") +
                 core::to_string(matrix.metrics[m]) + " residence " +
                 std::to_string(i) + " window [" + std::to_string(w.first) +
                 ", " + std::to_string(w.last) + "] = " + std::to_string(v);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_file(const std::string& path, std::string_view content) {
  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  if (!outf) return false;
  outf.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(outf);
}

std::string first_diff(std::string_view a, std::string_view b) {
  if (a == b) return {};
  size_t line = 1;
  size_t pa = 0, pb = 0;
  while (pa < a.size() && pb < b.size()) {
    size_t ea = a.find('\n', pa);
    size_t eb = b.find('\n', pb);
    std::string_view la = a.substr(pa, ea == std::string_view::npos
                                           ? std::string_view::npos
                                           : ea - pa);
    std::string_view lb = b.substr(pb, eb == std::string_view::npos
                                           ? std::string_view::npos
                                           : eb - pb);
    if (la != lb) {
      std::string out = "line " + std::to_string(line) + ":\n  a: ";
      out.append(la.substr(0, 200));
      out += "\n  b: ";
      out.append(lb.substr(0, 200));
      return out;
    }
    if (ea == std::string_view::npos || eb == std::string_view::npos) break;
    pa = ea + 1;
    pb = eb + 1;
    ++line;
  }
  return "line " + std::to_string(line) +
         ": one side ends early (sizes " + std::to_string(a.size()) + " vs " +
         std::to_string(b.size()) + ")";
}

}  // namespace nbv6::testutil
