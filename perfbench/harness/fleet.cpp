// fleet: the client side of the paper. One timed call runs every fleet
// layer, in three parts, on one pool of nproc - 1 workers plus the caller:
//
//   year    examples/large_horizon.cfg (365 days, every event kind) cut to
//           64 homes, through one Pipeline::run: sample, timeline,
//           simulate, metrics, report, window_panel.
//   stream  a 512-home x 7-day fleet with poisson arrivals at 12 ticks per
//           hour, streamed by engine::stream_fleet into a counting sink —
//           the streaming path (no PassCache, no scheduler, no analysis).
//   forest  7 cpe_fix what-if variants of one 64-home x 28-day base, from
//           a cold PassCache through ForestScheduler::run with the scenario
//           transients released — where reuse, dedup and release act.
//
// The year and forest outputs are checked with the golden suite's
// canonical serializer, the stream by an order-sensitive digest of every
// flow at 1 and at nproc lanes.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/fleet_analysis.h"
#include "core/scenario_pipeline.h"
#include "engine/pipeline.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "engine/timeline.h"
#include "net/flow.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace perfbench {

namespace {

using namespace nbv6;

constexpr double kAlpha = 0.05;  // ScenarioPassOptions' default
constexpr const char* kStages[] = {"sample",  "timeline", "simulate",
                                   "metrics", "report",   "window_panel"};

// ---------------------------------------------------------------- inputs

engine::FleetConfig stream_config(const Options& o) {
  engine::FleetConfig cfg;
  cfg.residences = o.tiny ? 16 : 512;
  cfg.days = o.tiny ? 2 : 7;  // 7 days ~ 1.7M flows
  cfg.seed = o.seed;
  cfg.arrival->mode = traffic::ArrivalMode::poisson;
  cfg.arrival->ticks_per_hour = 12;
  return cfg;
}

engine::FleetConfig year_config(const Options& o) {
  const std::string path = o.root + "/examples/large_horizon.cfg";
  std::string error;
  auto cfg = engine::FleetConfig::load(path, &error);
  if (!cfg) throw std::runtime_error(path + ": " + error);
  cfg->seed = o.seed;
  cfg->residences = o.tiny ? 16 : 64;
  if (o.tiny) cfg->days = 21;
  return std::move(*cfg);
}

// The sweep_scenarios shape: variant v > 0 appends one cpe_fix wave with
// repair fraction v/N, so only the timeline slice changes and the base
// population is sampled once for the whole forest.
std::vector<engine::FleetConfig> forest_configs(const Options& o) {
  engine::FleetConfig base;
  base.residences = o.tiny ? 8 : 64;
  base.days = o.tiny ? 4 : 28;
  base.seed = o.seed;
  const int variants = o.tiny ? 4 : 7;
  std::vector<engine::FleetConfig> cfgs;
  for (int v = 0; v < variants; ++v) {
    engine::FleetConfig cfg = base;
    if (v > 0) {
      engine::TimelineEvent fix;
      fix.kind = engine::TimelineEventKind::cpe_fix;
      fix.start_day = cfg.days / 4;
      fix.end_day = cfg.days - 1;
      fix.fraction = static_cast<double>(v) / variants;
      cfg.timeline->events.push_back(fix);
    }
    cfgs.push_back(std::move(cfg));
  }
  return cfgs;
}

// ----------------------------------------------------------------- setup

struct Setup {
  explicit Setup(traffic::ServiceCatalog c) : catalog(std::move(c)) {}
  traffic::ServiceCatalog catalog;
  engine::FleetConfig stream_cfg;
  engine::SampledFleet stream_fleet;
  engine::FleetConfig year_cfg;
  std::unique_ptr<engine::Pipeline> year_pipe;
  std::vector<engine::FleetConfig> forest_cfgs;
  std::vector<std::unique_ptr<engine::Pipeline>> forest_pipes;
  std::unique_ptr<engine::ThreadPool> pool;
};

std::unique_ptr<Setup> setup(const Options& o, Trace& tr) {
  std::unique_ptr<Setup> s;
  {
    Trace::Scope span(tr, "setup.catalog");
    s = std::make_unique<Setup>(traffic::build_paper_catalog());
  }
  {
    Trace::Scope span(tr, "setup.config");
    s->stream_cfg = stream_config(o);
    s->year_cfg = year_config(o);
    s->forest_cfgs = forest_configs(o);
  }
  {
    Trace::Scope span(tr, "setup.stream_fleet");
    s->stream_fleet = engine::sample_stage(s->stream_cfg, s->catalog);
    engine::apply_timeline(s->stream_fleet, s->stream_cfg.timeline,
                           s->stream_cfg.seed, s->stream_cfg.days);
  }
  {
    Trace::Scope span(tr, "setup.pipelines");
    s->year_pipe = std::make_unique<engine::Pipeline>(
        core::make_scenario_pipeline(s->year_cfg, s->catalog));
    for (const auto& cfg : s->forest_cfgs)
      s->forest_pipes.push_back(std::make_unique<engine::Pipeline>(
          core::make_scenario_pipeline(cfg, s->catalog)));
  }
  {
    Trace::Scope span(tr, "setup.pool");
    if (o.nproc > 1)
      s->pool = std::make_unique<engine::ThreadPool>(o.nproc - 1);
  }
  return s;
}

// ------------------------------------------------------------ the parts

std::string serialize_digest(const testutil::ScenarioRun& run) {
  Fnv64 f;
  f.bytes(testutil::canonical_serialize(run));
  return hex64(f.h);
}

std::string pipeline_digest(const engine::FleetConfig& cfg,
                            const engine::Pipeline& pipe) {
  testutil::ScenarioRun run;
  run.cfg = cfg;
  run.result = pipe.output<engine::FleetResult>("fleet_result");
  run.report = pipe.output<core::FleetStatsReport>("stats_report");
  run.window_panel = pipe.output<core::GroupComparison>("window_panel");
  return serialize_digest(run);
}

std::uint64_t pipeline_flows(const engine::Pipeline& pipe) {
  return pipe.output<engine::FleetResult>("fleet_result").totals.flows;
}

engine::StreamStats stream(const Setup& s, engine::ThreadPool* pool,
                           const engine::RunSpec::FlowSink& sink) {
  return engine::stream_fleet(s.catalog, s.stream_fleet, s.stream_cfg.days,
                              s.stream_cfg.arrival, pool, sink);
}

// Order-sensitive digest of every field of every streamed flow.
void fold(Fnv64& f, const engine::FlowEvent& ev) {
  f.mix(ev.residence);
  f.mix(static_cast<std::uint64_t>(ev.day));
  f.mix(static_cast<std::uint64_t>(ev.tick));
  f.mix(static_cast<std::uint64_t>(ev.start));
  f.mix(static_cast<std::uint64_t>(ev.end));
  f.mix(ev.bytes_out);
  f.mix(ev.bytes_in);
  f.mix(static_cast<std::uint64_t>(ev.scope));
  f.mix(net::fused_flow_hash(ev.key));
}

std::string stream_digest(const Setup& s, engine::ThreadPool* pool,
                          std::uint64_t& flows) {
  Fnv64 d;
  flows = 0;
  (void)stream(s, pool, [&](const engine::FlowEvent& ev) {
    fold(d, ev);
    ++flows;
  });
  return hex64(d.h);
}

// Pool workers run the passes; the caller only coordinates, so the forest
// stays within nproc threads in total.
int forest_workers(const Options& o) { return std::max(1, o.nproc - 1); }

engine::ForestScheduler::Stats run_forest_once(Setup& s, const Options& o) {
  std::vector<engine::Pipeline*> ptrs;
  for (auto& p : s.forest_pipes) ptrs.push_back(p.get());
  engine::PassCache cache;  // cold, every run
  engine::ForestScheduler::Options fopts;
  fopts.pool = s.pool.get();
  fopts.workers = forest_workers(o);
  fopts.transient = core::scenario_transient_resources();
  return engine::ForestScheduler::run(ptrs, cache, fopts);
}

std::string forest_digest(const Setup& s) {
  Fnv64 f;
  for (std::size_t v = 0; v < s.forest_pipes.size(); ++v)
    f.bytes(pipeline_digest(s.forest_cfgs[v], *s.forest_pipes[v]));
  return hex64(f.h);
}

std::uint64_t forest_flows(const Setup& s) {
  std::uint64_t flows = 0;
  for (const auto& p : s.forest_pipes) flows += pipeline_flows(*p);
  return flows;
}

void check_forest_stats(const Setup& s,
                        const engine::ForestScheduler::Stats& stats,
                        Outcome& out) {
  std::uint64_t samples = 0;
  for (const auto& p : s.forest_pipes) samples += p->executions("sample");
  const std::size_t variants = s.forest_pipes.size();
  out.attempt(samples == 1, "forest sampled the base more than once");
  out.attempt(stats.deduped == variants - 1,
              "forest deduped " + std::to_string(stats.deduped) +
                  " passes, expected " + std::to_string(variants - 1));
}

/// Wall times of one call's three parts, and what its stream counted.
struct Call {
  double year_s = 0.0;
  double stream_s = 0.0;
  double forest_s = 0.0;
  std::uint64_t stream_flows = 0;
  [[nodiscard]] double total_s() const { return year_s + stream_s + forest_s; }
};

/// Runs the three parts on `s` and checks what each returns: the pipeline
/// executes its six passes, every streamed flow reaches the sink and is
/// counted in totals, and the forest samples once and dedups the rest.
Call timed_call(Setup& s, const Options& o, Outcome& out) {
  Call c;
  engine::Pipeline::RunStats year_stats;
  c.year_s = time_call(
      [&] { year_stats = s.year_pipe->run(nullptr, s.pool.get()); });
  out.attempt(year_stats.executed == 6 && year_stats.cached == 0,
              "year pipeline did not execute its six passes");

  engine::StreamStats st;
  std::uint64_t n = 0;
  c.stream_s = time_call([&] {
    st = stream(s, s.pool.get(), [&n](const engine::FlowEvent&) { ++n; });
  });
  c.stream_flows = n;
  out.attempt(n > 0 && st.flows == n && st.totals.flows == n,
              "streamed flow count differs from totals.flows");

  engine::ForestScheduler::Stats forest_stats;
  c.forest_s = time_call([&] { forest_stats = run_forest_once(s, o); });
  check_forest_stats(s, forest_stats, out);
  return c;
}

/// Output digests of one call's parts, compared with the first call's.
struct Digests {
  std::string year;
  std::string forest;
  std::uint64_t stream_flows = 0;

  void check(const Setup& s, const Call& c, Outcome& out) {
    const std::string y = pipeline_digest(s.year_cfg, *s.year_pipe);
    const std::string f = forest_digest(s);
    if (year.empty()) {
      year = y;
      forest = f;
      stream_flows = c.stream_flows;
    }
    out.attempt(y == year, "year digest differs between calls");
    out.attempt(f == forest, "forest digest differs between calls");
    out.attempt(c.stream_flows == stream_flows,
                "stream flow count differs between calls");
  }
};

/// The stream's digest at nproc lanes and at 1 lane must agree; the
/// workload's digest folds it with the year and forest digests and must
/// match the reference when there is one.
void check_digest(const Setup& s, const Digests& d, Outcome& out,
                  const Options& opts) {
  std::uint64_t nn = 0;
  std::uint64_t n1 = 0;
  const std::string dn = stream_digest(s, s.pool.get(), nn);
  const std::string d1 = stream_digest(s, nullptr, n1);
  out.attempt(nn == d.stream_flows && n1 == d.stream_flows,
              "digest runs streamed a different flow count");
  out.attempt(dn == d1, "stream digest differs between 1 and nproc lanes");
  Fnv64 f;
  f.bytes(d.year);
  f.bytes(dn);
  f.bytes(d.forest);
  out.attempt(out.digest_matches(hex64(f.h), opts),
              "fleet digest differs from the reference");
}

// ------------------------------------------------------------ traced run

// The six scenario stages, called directly in pipeline order — what the
// traced run times, since pass bodies are not reachable from outside
// Pipeline::run. Same functions and arguments the standard passes use.
struct StageRun {
  engine::SampledFleet population;
  engine::SampledFleet planned;
  testutil::ScenarioRun run;
  double sample_rss_mb = 0.0;    ///< peak RSS right after sampling
  double simulate_rss_mb = 0.0;  ///< peak RSS right after simulating
};

StageRun run_stages(const engine::FleetConfig& cfg,
                    const traffic::ServiceCatalog& catalog,
                    engine::ThreadPool* pool, Trace& tr,
                    const engine::SampledFleet* population = nullptr) {
  StageRun s;
  s.run.cfg = cfg;
  if (population == nullptr) {
    Trace::Scope span(tr, "sample");
    s.population = engine::sample_stage(cfg, catalog);
    population = &s.population;
  }
  s.sample_rss_mb = peak_rss_mb();
  {
    Trace::Scope span(tr, "timeline");
    s.planned = *population;
    engine::apply_timeline(s.planned, cfg.timeline, cfg.seed, cfg.days);
  }
  {
    Trace::Scope span(tr, "simulate");
    s.run.result = engine::simulate_fleet(catalog, s.planned, pool);
  }
  s.simulate_rss_mb = peak_rss_mb();
  const auto metrics = core::default_fleet_metrics();
  {
    Trace::Scope span(tr, "metrics");
    (void)core::extract_metrics(s.run.result, metrics, pool);
  }
  {
    Trace::Scope span(tr, "report");
    s.run.report = core::fleet_stats_report(s.run.result, pool, kAlpha);
  }
  {
    Trace::Scope span(tr, "window_panel");
    const core::DayWindow pre{0, cfg.days / 2 - 1};
    const core::DayWindow post{cfg.days / 2, cfg.days - 1};
    s.run.window_panel = core::compare_windows(
        s.run.result, metrics, pre, post, core::FleetGroup::all, pool, kAlpha);
  }
  return s;
}

double stage_total(const Trace& tr) {
  double sum = 0.0;
  for (const char* stage : kStages) sum += tr.total(stage);
  return sum;
}

// Traced year part: the six stage functions under spans. Returns the
// stage-by-stage digest and keeps the planned fleet for the 1-lane replay.
struct TracedYear {
  std::string digest;
  engine::SampledFleet planned;
  double part_s = 0.0;
  double simulate_s = 0.0;
};

TracedYear traced_year(const Setup& s, Outcome& out, Trace& tr) {
  TracedYear y;
  const int part = tr.begin("year");
  StageRun staged = run_stages(s.year_cfg, s.catalog, s.pool.get(), tr);
  tr.end(part);
  y.part_s = tr.duration(part);
  y.simulate_s = tr.total("simulate");
  // Nothing but the year part has run a stage yet, so the stage totals
  // are the year's own.
  for (const char* stage : kStages)
    out.add(std::string(stage) + ".busy_frac", tr.total(stage) / y.part_s,
            "frac");
  out.add("simulate.s", y.simulate_s, "s");
  out.add("simulate.flows", static_cast<double>(staged.run.result.totals.flows),
          "count");
  y.digest = serialize_digest(staged.run);
  y.planned = std::move(staged.planned);
  return y;
}

// Traced stream part: one nproc-lane stream with a sink that timestamps
// each day's first and last flow. Between days the sink sees nothing while
// the lanes generate the next day, so the stream's time splits into fill
// (lane-parallel generation) and merge+sink (serial canonical merge and
// sink calls on the caller).
void traced_stream(const Setup& s, Outcome& out, Trace& tr, double& part_s) {
  std::vector<std::pair<double, double>> windows;
  std::uint64_t calls = 0;
  int day = -1;
  double first = 0.0;
  double last = 0.0;
  const int part = tr.begin("stream");
  const auto st = stream(s, s.pool.get(), [&](const engine::FlowEvent& ev) {
    ++calls;
    if (ev.day != day) {
      if (day >= 0) windows.emplace_back(first, last);
      day = ev.day;
      first = last = now_s();
    } else if ((calls & 63) == 0) {
      last = now_s();
    }
  });
  if (day >= 0) windows.emplace_back(first, now_s());
  double merge = 0.0;
  for (const auto& [a, b] : windows) {
    tr.record("stream.merge_sink", a, b);
    merge += b - a;
  }
  tr.end(part);
  part_s = tr.duration(part);
  const double fill = part_s - merge;
  out.attempt(calls == st.flows && st.flows == st.totals.flows,
              "traced stream: sink calls != streamed flows");
  out.add("stream.s", part_s, "s");
  out.add("stream.fill_s", fill, "s");
  out.add("stream.merge_sink_s", merge, "s");
  out.add("stream.fill_frac", fill / part_s, "frac");
  out.add("stream.merge_sink_frac", merge / part_s, "frac");
  out.add("stream.sink_calls", static_cast<double>(calls), "count");
}

// Traced forest part: the overlapped forest, then a single-lane replay of
// the work it executed (sample once, the other five stages per variant),
// which gives the forest's efficiency.
void traced_forest(Setup& s, const Options& opts, Outcome& out, Trace& tr,
                   double& part_s) {
  const int part = tr.begin("forest");
  const auto stats = run_forest_once(s, opts);
  tr.end(part);
  part_s = tr.duration(part);
  check_forest_stats(s, stats, out);

  const double before = stage_total(tr);
  const int replay = tr.begin("forest.replay_1lane");
  engine::SampledFleet population;
  {
    Trace::Scope span(tr, "sample");
    population = engine::sample_stage(s.forest_cfgs[0], s.catalog);
  }
  for (const auto& cfg : s.forest_cfgs)
    (void)run_stages(cfg, s.catalog, nullptr, tr, &population);
  tr.end(replay);
  const double stage_sum = stage_total(tr) - before;

  const std::size_t scheduled = stats.executed + stats.cached + stats.deduped;
  out.add("pipeline.executed", static_cast<double>(stats.executed), "count");
  out.add("pipeline.cached", static_cast<double>(stats.cached), "count");
  out.add("pipeline.deduped", static_cast<double>(stats.deduped), "count");
  out.add("pipeline.released", static_cast<double>(stats.released), "count");
  out.add("pipeline.peak_resident", static_cast<double>(stats.peak_resident),
          "count");
  out.add("pipeline.reuse_frac",
          static_cast<double>(stats.cached + stats.deduped) /
              static_cast<double>(scheduled),
          "frac");
  out.add("forest.efficiency",
          stage_sum / (part_s * forest_workers(opts)), "frac");
  out.add("forest.s", part_s, "s");
  out.add("forest.stage_sum_1lane_s", stage_sum, "s");
}

void traced_run(const Options& opts, Outcome& out, Trace& tr) {
  // Warm-up: the year stages and one whole call, untraced, so that the
  // traced call does not pay the process's first-touch costs that the
  // untraced reference below no longer pays. The year stages come first,
  // in the fresh process, for the peak-RSS readings after sampling and
  // after simulating.
  {
    Trace untraced(false, "fleet");
    auto warm = setup(opts, untraced);
    const StageRun staged =
        run_stages(warm->year_cfg, warm->catalog, warm->pool.get(), untraced);
    out.add("sample.rss_mb", staged.sample_rss_mb, "MB");
    out.add("simulate.rss_mb", staged.simulate_rss_mb, "MB");
    (void)timed_call(*warm, opts, out);
  }
  const int root = tr.begin("traced_run");
  auto s = setup(opts, tr);
  const TracedYear year = traced_year(*s, out, tr);
  double stream_s = 0.0;
  double forest_s = 0.0;
  traced_stream(*s, out, tr, stream_s);
  traced_forest(*s, opts, out, tr, forest_s);
  tr.end(root);
  out.add("trace.uncovered_frac", tr.uncovered_frac(root), "frac");

  // Untraced references on a fresh set-up (the traced one is dropped
  // first, so its pool never overlaps the new one): the call the trace
  // overhead is measured against, whose outputs are checked as in an
  // untraced run, and the single-lane stream and simulate baselines.
  s.reset();
  Trace untraced(false, "fleet");
  s = setup(opts, untraced);
  const Call c = timed_call(*s, opts, out);
  Digests d;
  d.check(*s, c, out);
  out.attempt(year.digest == d.year,
              "stage-by-stage year run differs from Pipeline::run");
  check_digest(*s, d, out, opts);
  out.add("trace.overhead_s", (year.part_s + stream_s + forest_s) - c.total_s(),
          "s");

  const double stream_1 = time_call(
      [&] { (void)stream(*s, nullptr, [](const engine::FlowEvent&) {}); });
  out.add("stream.flows_per_s_1lane",
          static_cast<double>(c.stream_flows) / stream_1, "1/s");
  out.add("stream.lane_speedup", stream_1 / c.stream_s, "x");

  s->year_pipe = std::make_unique<engine::Pipeline>();  // drop bound results
  const double simulate_1 = time_call([&] {
    (void)engine::simulate_fleet(s->catalog, year.planned, nullptr);
  });
  out.add("simulate.lane_speedup", simulate_1 / year.simulate_s, "x");
  out.add("simulate.s_1lane", simulate_1, "s");
}

}  // namespace

void run_fleet(const Options& opts, Outcome& out, Trace& tr) {
  if (opts.trace) {
    traced_run(opts, out, tr);
    return;
  }
  // The pipelines bind their results, so every call runs on a fresh
  // set-up, the last of a timed batch.
  std::unique_ptr<Setup> s;
  std::vector<double> setup_means;
  std::vector<double> run_times;
  std::vector<double> year_times;
  std::vector<double> stream_times;
  std::vector<double> forest_times;
  double rss = 0.0;
  Digests digests;
  repeat_for(opts.seconds, kMinCalls, [&] {
    sample_setup([&] { s.reset(); }, [&] { s = setup(opts, tr); },
                 setup_means);
    const Call c = timed_call(*s, opts, out);
    if (rss == 0.0) rss = peak_rss_mb();  // before the checks' copies
    run_times.push_back(c.total_s());
    year_times.push_back(c.year_s);
    stream_times.push_back(c.stream_s);
    forest_times.push_back(c.forest_s);
    digests.check(*s, c, out);
  });
  check_digest(*s, digests, out, opts);
  out.add_timing("setup_s", setup_means, 0.5);
  const double run_s = out.add_timing("run_s", run_times, kCallQuantile);
  const std::uint64_t flows = pipeline_flows(*s->year_pipe) +
                              digests.stream_flows + forest_flows(*s);
  out.add("flows_per_s", static_cast<double>(flows) / run_s, "1/s");
  out.add("peak_rss_mb", rss, "MB");
  out.add_timing("year_s", year_times, kCallQuantile);
  out.add_timing("stream_s", stream_times, kCallQuantile);
  out.add_timing("forest_s", forest_times, kCallQuantile);
}

}  // namespace perfbench
